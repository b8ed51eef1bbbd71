package cli

import (
	"bytes"
	"fmt"
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
// or past P, and the trace diffs equivalent against its lists clipped.
func TestReadersCountRanksInsideP(t *testing.T) {
	f := crossingP(false)
	rep, err := zan.Analyze(f, zan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	printStats(&out, f)
	var total uint64
	if _, err := fmt.Sscanf(out.String(), "# compression: %d dynamic events", &total); err != nil {
		t.Fatalf("chamdump -stats header: %v\n%s", err, out.String())
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
}
