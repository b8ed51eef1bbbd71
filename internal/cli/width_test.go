package cli

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chameleon/internal/analysis"
	"chameleon/internal/mpi"
	"chameleon/internal/ranklist"
	"chameleon/internal/trace"
	"chameleon/internal/zan"
)

// crossingP is a trace at P=8 whose loop leaves name ranks 4..13: a list
// reaching past P, as an extrapolated or hand-built trace may hold.
// clip bounds those lists to [0, P).
func crossingP(clip bool) *trace.File {
	const p = 8
	wide := ranklist.FromRL(ranklist.Range(4, 10, 1))
	if clip {
		wide = ranklist.FromRL(ranklist.Range(4, 4, 1))
	}
	all := ranklist.FromRL(ranklist.Range(0, p, 1))
	return &trace.File{P: p, Nodes: []*trace.Node{
		trace.NewLoop(3, []*trace.Node{
			trace.NewLeaf(trace.Event{Op: mpi.OpAllreduce, Bytes: 8}, wide, 100),
			trace.NewLeaf(trace.Event{Op: mpi.OpSend, Dest: trace.Relative(1), Tag: 1, Bytes: 16}, wide, 10),
			trace.NewLeaf(trace.Event{Op: mpi.OpRecv, Src: trace.Relative(-1), Tag: 1, Bytes: 16}, wide, 10),
		}),
		trace.NewLeaf(trace.Event{Op: mpi.OpBarrier}, all, 50),
	}}
}

// Every per-rank reader counts a leaf's ranks in [0, P), as zan and the
// replayer do: chamdump -stats' total is zan's, the matrix has no row at
// or past P, and the trace diffs equivalent against its lists clipped,
// also when the clipped trace declares a larger P (each trace counts
// inside its own P).
func TestReadersCountRanksInsideP(t *testing.T) {
	f := crossingP(false)
	rep, err := zan.Analyze(f, zan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "crossing.trace")
	if err := os.WriteFile(path, f.AppendBinary(nil), 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, code := run(t, "chamdump", "-stats", path)
	var total uint64
	_, line, _ := strings.Cut(out, "# compression: ")
	if _, err := fmt.Sscanf(line, "%d dynamic events", &total); code != 0 || err != nil {
		t.Fatalf("chamdump -stats (exit %d): %v\n%s", code, err, out)
	}
	if total != rep.Events {
		t.Errorf("chamdump -stats counts %d events, zan %d", total, rep.Events)
	}
	m := analysis.Matrix(f)
	for src := range m.Counts {
		if src < 0 || src >= f.P {
			t.Errorf("matrix has a row for rank %d, outside [0, %d)", src, f.P)
		}
	}
	if d := analysis.Compare(f, crossingP(true)); !d.Equivalent() {
		t.Errorf("diff against the clipped trace: %s", d.Reason())
	}
	wider := crossingP(true)
	wider.P = 16
	if d := analysis.Compare(f, wider); !d.Equivalent() {
		t.Errorf("diff against the clipped trace at P=%d: %s", wider.P, d.Reason())
	}
}
