package cli

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chameleon/internal/analysis"
	"chameleon/internal/mpi"
	"chameleon/internal/ranklist"
	"chameleon/internal/sig"
	"chameleon/internal/trace"
	"chameleon/internal/tracegen"
	"chameleon/internal/zan"
)

// crossingP is a trace at P=8 whose loop leaves name ranks 4..13: a list
// reaching past P, as an extrapolated or hand-built trace may hold.
// clip bounds those lists to [0, P).
func crossingP(clip bool) *trace.File {
	const p = 8
	wide := tracegen.Span(4, 10)
	if clip {
		wide = tracegen.Span(4, 4)
	}
	all := tracegen.Span(0, p)
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

// A JSON trace whose one rank list names a negative or zero count
// covers no rank. chamdump -stats and chamstat refuse it with an error
// (exit 1) and do not panic.
func TestToolsRefuseJSONListsOfNoRank(t *testing.T) {
	var js bytes.Buffer
	f := &trace.File{P: 4, Nodes: []*trace.Node{trace.NewLeaf(trace.Event{Op: mpi.OpBarrier}, ranklist.SingleRank(0), 1)}}
	if err := f.Write(&js); err != nil {
		t.Fatal(err)
	}
	const one = `[{"start":0}]`
	for _, list := range []string{`[{"start":0,"dims":[[-1,1]]}]`, `[{"start":0,"dims":[[0,1]]}]`} {
		path := filepath.Join(t.TempDir(), "empty.json")
		if err := os.WriteFile(path, []byte(strings.Replace(js.String(), one, list, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, args := range [][]string{{"chamdump", "-stats", path}, {"chamstat", path}} {
			if _, stderr, code := run(t, args[0], args[1:]...); code != 1 || !strings.Contains(stderr, "rank list") {
				t.Errorf("%v on list %s: exit %d, stderr %q; want 1 and the list named", args, list, code, stderr)
			}
		}
	}
}

// chamdump words a refused JSON trace in JSON terms. The first two
// inputs are the ones the store's TestJSONRankListsAreBounded refuses
// (a dimension past the bound, a list past it); the third holds two
// lists of 2^20 ranks, each written as two pieces split at different
// ranks, which the reader expands and re-compacts past the file's
// budget, a budget counted in bytes of the binary re-encoding, which
// the message says.
func TestChamdumpWordsJSONRefusals(t *testing.T) {
	leaf := func(site uint64) *trace.Node {
		return trace.NewLeaf(trace.Event{Op: mpi.OpBarrier, Stack: sig.Stack(sig.Mix(site))}, ranklist.SingleRank(0), 1)
	}
	const one = `[{"start":0}]`
	split := func(at int) string {
		return fmt.Sprintf(`[{"start":0,"dims":[[%d,1]]},{"start":%d,"dims":[[%d,1]]}]`, at, at, 1<<20-at)
	}
	for _, c := range []struct {
		lists []string
		want  string
	}{
		{[]string{`[{"start":0,"dims":[[2,1],[4194304,0]]}]`}, "trace: decode JSON: rank list dimension out of range"},
		{[]string{`[{"start":0,"dims":[[1048576,1],[4,0]]}]`}, "trace: decode JSON: rank list too large"},
		{[]string{split(1 << 19), split(1<<19 + 1)}, "past the file's budget (1048576 ranks plus one for each byte of its binary re-encoding)"},
	} {
		f := &trace.File{P: 4}
		for i := range c.lists {
			f.Nodes = append(f.Nodes, leaf(0x1157+uint64(i)))
		}
		var js bytes.Buffer
		if err := f.Write(&js); err != nil {
			t.Fatal(err)
		}
		text := js.String()
		for _, list := range c.lists {
			text = strings.Replace(text, one, list, 1)
		}
		path := filepath.Join(t.TempDir(), "refused.json")
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		_, stderr, code := run(t, "chamdump", path)
		if code != 1 || !strings.Contains(stderr, c.want) || strings.Contains(stderr, "decode binary") ||
			strings.Contains(stderr, "input's budget") {
			t.Errorf("chamdump on lists %v: exit %d, stderr %q; want 1 and %q", c.lists, code, stderr, c.want)
		}
	}
}
