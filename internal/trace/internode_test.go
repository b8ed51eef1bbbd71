package trace

import (
	"os"
	"reflect"
	"testing"

	"chameleon/internal/mpi"
	"chameleon/internal/ranklist"
	"chameleon/internal/sig"
)

// rankLeaf builds a leaf recorded by the given rank.
func rankLeaf(site, rank int) *Node {
	return NewLeaf(ev(site), ranklist.SingleRank(rank), 1000)
}

// mergeBoth runs one merge in both modes — cloning, the reference, on
// the inputs themselves; owned, the path production takes, on deep
// copies — and requires identical nodes and cost accounting. It returns
// the owned result, so each case's own assertions run against it.
func mergeBoth(t *testing.T, ref Merger, a, b []*Node) ([]*Node, MergeStats) {
	t.Helper()
	owned := ref
	owned.Owned = true
	got := owned.Merge(CloneSeq(a), CloneSeq(b))
	want := ref.Merge(a, b)
	// The structural hash is the compressor's cache; the merger neither
	// reads nor maintains it (a cloned loop starts at 0, an owned one
	// keeps a stale value), so identity is compared without it.
	clearHashes(got)
	clearHashes(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("owned merge diverged from the cloning reference:\n%s\nvs\n%s", Format(got), Format(want))
	}
	if owned.Stats != ref.Stats {
		t.Fatalf("owned merge accounted %+v, cloning reference %+v", owned.Stats, ref.Stats)
	}
	return got, owned.Stats
}

func clearHashes(seq []*Node) {
	for _, n := range seq {
		n.Ev.hash = 0
		clearHashes(n.Body)
	}
}

func TestMergeIdenticalTraces(t *testing.T) {
	a := []*Node{rankLeaf(1, 0), rankLeaf(2, 0)}
	b := []*Node{rankLeaf(1, 1), rankLeaf(2, 1)}
	out, stats := mergeBoth(t, Merger{P: 4}, a, b)
	if len(out) != 2 {
		t.Fatalf("merged %d nodes", len(out))
	}
	want := ranklist.FromRanks([]int{0, 1})
	for _, n := range out {
		if !n.Ranks.Equal(want) {
			t.Fatalf("ranks = %v", n.Ranks)
		}
		if n.Delta.Count() != 2 {
			t.Fatalf("delta not merged")
		}
	}
	if stats.Compares == 0 || stats.BytesMerged == 0 {
		t.Fatalf("no work accounted")
	}
}

func TestMergeDivergentTraces(t *testing.T) {
	// Rank 1 has an extra event (a different branch): the merge must
	// keep every node, interleaved at the alignment point.
	a := []*Node{rankLeaf(1, 0), rankLeaf(3, 0)}
	b := []*Node{rankLeaf(1, 1), rankLeaf(2, 1), rankLeaf(3, 1)}
	out, _ := mergeBoth(t, Merger{P: 4}, a, b)
	stacks := map[uint64]struct{}{}
	CollectStacks(out, stacks)
	if len(stacks) != 3 {
		t.Fatalf("stacks = %d, want 3", len(stacks))
	}
	// Events 1 and 3 carry both ranks; event 2 only rank 1.
	for _, n := range out {
		switch n.Ev.Tag {
		case 1, 3:
			if n.Ranks.Size() != 2 {
				t.Fatalf("tag %d ranks = %v", n.Ev.Tag, n.Ranks)
			}
		case 2:
			if !n.Ranks.Equal(ranklist.SingleRank(1)) {
				t.Fatalf("tag 2 ranks = %v", n.Ranks)
			}
		}
	}
}

func TestMergeDisjointTraces(t *testing.T) {
	// Completely different call paths (master vs workers): everything is
	// preserved, nothing merges.
	a := []*Node{rankLeaf(1, 0), rankLeaf(2, 0)}
	b := []*Node{rankLeaf(3, 1), rankLeaf(4, 1)}
	out, _ := mergeBoth(t, Merger{P: 4}, a, b)
	if len(out) != 4 {
		t.Fatalf("merged %d nodes, want 4", len(out))
	}
}

func TestMergeLoops(t *testing.T) {
	mkLoop := func(rank int, iters uint64) []*Node {
		return []*Node{NewLoop(iters, []*Node{rankLeaf(1, rank), rankLeaf(2, rank)})}
	}
	out, _ := mergeBoth(t, Merger{P: 4}, mkLoop(0, 10), mkLoop(1, 10))
	if len(out) != 1 || !out[0].IsLoop() || out[0].Iters != 10 {
		t.Fatalf("loop merge failed: %+v", out)
	}
	if out[0].Body[0].Ranks.Size() != 2 {
		t.Fatalf("body ranks not merged")
	}

	// Differing trip counts: strict mode keeps them apart...
	out, _ = mergeBoth(t, Merger{P: 4}, mkLoop(0, 10), mkLoop(1, 12))
	if len(out) != 2 {
		t.Fatalf("strict merged differing iters")
	}
	// ...the parameter filter folds them with an iters histogram.
	out, _ = mergeBoth(t, Merger{P: 4, Filter: true}, mkLoop(0, 10), mkLoop(1, 12))
	if len(out) != 1 || out[0].ItersHist == nil {
		t.Fatalf("filter did not merge differing iters: %+v", out)
	}
	if got := out[0].MeanIters(); got != 11 {
		t.Fatalf("mean iters = %d", got)
	}
}

func TestMergeSingletonAbsolute(t *testing.T) {
	// Workers 3 and 5 both send to rank 0 with different offsets: the
	// merge must recognize the common absolute target.
	a := rankLeaf(1, 3)
	a.Ev.Dest = Relative(-3)
	b := rankLeaf(1, 5)
	b.Ev.Dest = Relative(-5)
	out, _ := mergeBoth(t, Merger{P: 8}, []*Node{a}, []*Node{b})
	if len(out) != 1 {
		t.Fatalf("not merged: %d nodes", len(out))
	}
	if out[0].Ev.Dest.Kind != EPAbsolute || out[0].Ev.Dest.Off != 0 {
		t.Fatalf("dest = %v", out[0].Ev.Dest)
	}
}

func TestMergeKeepsByteAndTagDistinct(t *testing.T) {
	a := rankLeaf(1, 0)
	b := rankLeaf(1, 1)
	b.Ev.Bytes = 999 // different size must not merge
	if out, _ := mergeBoth(t, Merger{P: 4}, []*Node{a}, []*Node{b}); len(out) != 2 {
		t.Fatalf("different sizes merged")
	}
}

func TestMergeEmptySides(t *testing.T) {
	a := []*Node{rankLeaf(1, 0)}
	if out, _ := mergeBoth(t, Merger{P: 4}, a, nil); len(out) != 1 {
		t.Fatalf("merge with empty right")
	}
	if out, _ := mergeBoth(t, Merger{P: 4}, nil, a); len(out) != 1 {
		t.Fatalf("merge with empty left")
	}
	if out, _ := mergeBoth(t, Merger{P: 4}, nil, nil); len(out) != 0 {
		t.Fatalf("merge of empties")
	}
}

func TestMergeConservation(t *testing.T) {
	// Property over pseudo-random traces: restricting the merged trace
	// to one rank's membership reproduces that rank's per-stack event
	// counts exactly — the invariant replay depends on. (Merged nodes
	// union rank lists; they do not add counts.)
	state := uint64(99)
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state>>33) % n
	}
	countForRank := func(seq []*Node, rank int) map[uint64]uint64 {
		got := map[uint64]uint64{}
		var walk func(seq []*Node, mult uint64)
		walk = func(seq []*Node, mult uint64) {
			for _, n := range seq {
				if n.IsLoop() {
					walk(n.Body, mult*n.Iters)
				} else if n.Ranks.Contains(rank) {
					got[uint64(n.Ev.Stack)] += mult
				}
			}
		}
		walk(seq, 1)
		return got
	}
	for trial := 0; trial < 30; trial++ {
		build := func(rank int) []*Node {
			var c Compressor
			for i, n := 0, next(60)+1; i < n; i++ {
				l := leaf(next(5) + 1)
				l.Ranks = ranklist.SingleRank(rank)
				c.AppendLeaf(l)
			}
			return c.Seq
		}
		a, b := build(0), build(1)
		wantA, wantB := countForRank(a, 0), countForRank(b, 1)
		merged, _ := mergeBoth(t, Merger{P: 4}, a, b)
		for rank, want := range map[int]map[uint64]uint64{0: wantA, 1: wantB} {
			got := countForRank(merged, rank)
			if len(got) != len(want) {
				t.Fatalf("trial %d rank %d: %d stacks, want %d", trial, rank, len(got), len(want))
			}
			for s, w := range want {
				if got[s] != w {
					t.Fatalf("trial %d rank %d: stack %x count %d, want %d", trial, rank, got[s], w, w)
				}
			}
		}
	}
}

func TestStructuralEqual(t *testing.T) {
	a := leaf(1)
	b := leaf(1)
	if !StructuralEqual(a, b, false) {
		t.Fatalf("identical leaves unequal")
	}
	c := leaf(2)
	if StructuralEqual(a, c, false) {
		t.Fatalf("different leaves equal")
	}
	la := NewLoop(3, []*Node{leaf(1)})
	lb := NewLoop(3, []*Node{leaf(1)})
	if !StructuralEqual(la, lb, false) {
		t.Fatalf("identical loops unequal")
	}
	lc := NewLoop(4, []*Node{leaf(1)})
	if StructuralEqual(la, lc, false) {
		t.Fatalf("differing iters equal in strict mode")
	}
	if !StructuralEqual(la, lc, true) {
		t.Fatalf("differing iters unequal under filter")
	}
	if StructuralEqual(a, la, false) {
		t.Fatalf("leaf equals loop")
	}
	// Rank lists are part of intra-fold equality.
	d := leaf(1)
	d.Ranks = ranklist.SingleRank(7)
	if StructuralEqual(a, d, false) {
		t.Fatalf("different ranks equal")
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	n := leaf(1)
	n.Ev.Src = Endpoint{Kind: EPAnySource}
	inner := NewLoop(4, []*Node{leaf(2)})
	inner.ItersHist = nil
	f := &File{
		P:         8,
		Benchmark: "TEST",
		Tracer:    "chameleon",
		Clustered: true,
		Filter:    true,
		Nodes:     []*Node{n, NewLoop(10, []*Node{rankLeaf(3, 2), inner})},
	}
	path := t.TempDir() + "/trace.json"
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.P != 8 || back.Benchmark != "TEST" || !back.Clustered || !back.Filter {
		t.Fatalf("metadata lost: %+v", back)
	}
	if !SeqStructuralEqual(f.Nodes, back.Nodes, false) {
		t.Fatalf("structure lost:\n%s\nvs\n%s", Format(f.Nodes), Format(back.Nodes))
	}
	if DynamicEvents(back.Nodes) != DynamicEvents(f.Nodes) {
		t.Fatalf("event counts differ")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load("/nonexistent/path"); err == nil {
		t.Fatalf("missing file accepted")
	}
	path := t.TempDir() + "/bad.json"
	if err := writeFile(path, "{\"p\":0,\"nodes\":[]}"); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatalf("invalid P accepted")
	}
	if err := writeFile(path, "not json"); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatalf("garbage accepted")
	}
}

func writeFile(path, content string) error {
	f := &File{}
	_ = f
	return osWriteFile(path, content)
}

func TestEventString(t *testing.T) {
	e := ev(1)
	if e.String() == "" {
		t.Fatalf("empty event string")
	}
	if (Event{Op: mpi.OpBarrier, Stack: sig.Stack(1)}).String() == "" {
		t.Fatalf("empty barrier string")
	}
}

func osWriteFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
