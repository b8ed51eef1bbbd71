package trace

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"chameleon/internal/mpi"
	"chameleon/internal/ranklist"
	"chameleon/internal/sig"
	"chameleon/internal/stats"
)

// rankLeaf builds a leaf recorded by the given rank.
func rankLeaf(site, rank int) *Node {
	return NewLeaf(ev(site), ranklist.SingleRank(rank), 1000)
}

// mergeBoth runs one merge twice — the cloning reference on the inputs
// themselves, the consuming merge production runs on deep copies — and
// requires identical nodes and cost accounting, and inputs the
// reference left as they were. It returns the production result, so
// each case's own assertions run against it.
func mergeBoth(t *testing.T, m Merger, a, b []*Node) ([]*Node, MergeStats) {
	t.Helper()
	ca, cb := CloneSeq(a), CloneSeq(b)
	ref := m
	want := cloneMerge(&ref, a, b)
	if !sameSeq(a, ca) || !sameSeq(b, cb) {
		t.Fatalf("the cloning reference changed its inputs")
	}
	got := m.Merge(ca, cb)
	// The structural hash is the compressor's cache; the merger neither
	// reads nor maintains it (a cloned loop starts at 0, a consumed one
	// keeps a stale value), so identity is compared without it.
	clearHashes(got)
	clearHashes(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merge diverged from the cloning reference:\n%s\nvs\n%s", Format(got), Format(want))
	}
	if m.Stats != ref.Stats {
		t.Fatalf("merge accounted %+v, cloning reference %+v", m.Stats, ref.Stats)
	}
	return got, m.Stats
}

// cloneMerge is the merger's former cloning mode, kept as the reference
// for the consuming one: the same alignment, but every output node is a
// fresh deep copy and neither input is touched. It shares the
// comparisons (nodeMatch, findSync, mergeEndpoint) and accumulates the
// same m.Stats.
func cloneMerge(m *Merger, a, b []*Node) []*Node {
	out := make([]*Node, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if m.nodeMatch(a[i], b[j]) {
			out = append(out, cloneMergeNode(m, a[i], b[j]))
			i++
			j++
			continue
		}
		ai, bj := m.findSync(a, i, b, j)
		switch {
		case ai >= 0 && (bj < 0 || ai <= bj):
			for k := 0; k < ai; k++ {
				out = append(out, cloneTake(m, a[i]))
				i++
			}
		case bj >= 0:
			for k := 0; k < bj; k++ {
				out = append(out, cloneTake(m, b[j]))
				j++
			}
		default:
			out = append(out, cloneTake(m, a[i]))
			i++
			if j < len(b) {
				out = append(out, cloneTake(m, b[j]))
				j++
			}
		}
	}
	for ; i < len(a); i++ {
		out = append(out, cloneTake(m, a[i]))
	}
	for ; j < len(b); j++ {
		out = append(out, cloneTake(m, b[j]))
	}
	return out
}

// cloneMergeNode combines two matching nodes into a fresh deep copy
// covering both rank sets.
func cloneMergeNode(m *Merger, a, b *Node) *Node {
	if a.IsLoop() {
		body := make([]*Node, len(a.Body))
		for i := range a.Body {
			body[i] = cloneMergeNode(m, a.Body[i], b.Body[i])
		}
		out := NewLoop(a.Iters, body)
		if m.Filter && (a.Iters != b.Iters || a.ItersHist != nil || b.ItersHist != nil) {
			out.ItersHist = mergedItersHist(a, b)
		}
		m.Stats.BytesMerged += out.SizeBytes()
		return out
	}
	out := a.Clone()
	dest, _ := m.mergeEndpoint(a.Ev.Dest, a, b.Ev.Dest, b)
	src, _ := m.mergeEndpoint(a.Ev.Src, a, b.Ev.Src, b)
	out.Ev.Dest = dest
	out.Ev.Src = src
	out.Ranks = a.Ranks.Union(b.Ranks)
	out.Delta.Merge(b.Delta)
	m.Stats.BytesMerged += out.SizeBytes()
	return out
}

func mergedItersHist(a, b *Node) *stats.Histogram {
	h := stats.NewHistogram()
	if a.ItersHist != nil {
		h.Merge(a.ItersHist)
	} else {
		h.Add(int64(a.Iters))
	}
	if b.ItersHist != nil {
		h.Merge(b.ItersHist)
	} else {
		h.Add(int64(b.Iters))
	}
	return h
}

// cloneTake emits a deep copy of an unmatched node.
func cloneTake(m *Merger, n *Node) *Node {
	m.Stats.BytesMerged += n.SizeBytes()
	return n.Clone()
}

// sameSeq reports whether two sequences hold equal nodes; a nil and an
// empty sequence are the same.
func sameSeq(x, y []*Node) bool {
	return len(x) == len(y) && (len(x) == 0 || reflect.DeepEqual(x, y))
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

// TestMergeUnionsEachPairOnce: when every matched leaf of a merge
// unites the same two rank lists, as in a radix merge step of an SPMD
// trace, the merge computes that union once and the leaves share it.
// Each leaf's list is built on its own, so only equal descriptors, not
// a shared slice, can tell the merger it met the pair before. Merging
// two sequences of 200 leaves costs the output slice and one union (a
// []RL and a []Dim), not one union per leaf.
func TestMergeUnionsEachPairOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what a call allocates")
	}
	const leaves, p = 200, 256
	span := func(from, n int) []int {
		rs := make([]int, n)
		for i := range rs {
			rs[i] = from + i
		}
		return rs
	}
	side := func(from int) []*Node {
		seq := make([]*Node, leaves)
		for i := range seq {
			seq[i] = NewLeaf(ev(i%7+1), ranklist.FromRanks(span(from, p/2)), 1000)
		}
		return seq
	}
	const runs = 5
	var as, bs [runs + 1][]*Node
	for i := range as {
		as[i], bs[i] = side(0), side(p/2)
	}
	k := 0
	var out []*Node
	allocs := testing.AllocsPerRun(runs, func() {
		m := Merger{P: p}
		out = m.Merge(as[k], bs[k])
		k++
	})
	if allocs > 3 {
		t.Errorf("merging %d leaves on one pair of lists: %v allocs, want <= 3 (the output and one union)", leaves, allocs)
	}
	want := ranklist.FromRanks(span(0, p))
	if len(out) != leaves {
		t.Fatalf("merged %d nodes, want %d", len(out), leaves)
	}
	for _, n := range out {
		if !n.Ranks.Equal(want) {
			t.Fatalf("merged leaf covers %v, want %v", n.Ranks, want)
		}
	}
	a, b := side(0), side(p/2)
	mergeBoth(t, Merger{P: p}, a, b)
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

// fuzzMergeSide builds one side of a merge: the compressed sequence
// the ranks of lists record from stream. Each byte is one call,
// repeated 1 + b>>5 times (runs of different lengths give loops whose
// trip counts differ between the sides): its call site is 1 + b&3, bit
// 2 enlarges its message, and bits 3-4 pick its end-point — relative to
// the caller, the caller's offset to rank 0 (which merges singletons
// into an absolute end-point), absolute rank 0, or a wildcard receive.
// Its ranks are lists[0], or with more than one list, the one the next
// byte picks.
func fuzzMergeSide(stream []byte, lists []ranklist.List, filter bool) []*Node {
	c := Compressor{Filter: filter}
	for i := 0; i < len(stream); i++ {
		b, ranks := stream[i], lists[0]
		if len(lists) > 1 && i+1 < len(stream) {
			i++
			ranks = lists[int(stream[i])%len(lists)]
		}
		e := ev(int(b&3) + 1)
		if b&4 != 0 {
			e.Bytes = 999
		}
		switch (b >> 3) & 3 {
		case 1:
			e.Dest = Relative(-ranks.Min())
		case 2:
			e.Dest = Absolute(0)
		case 3:
			e.Op, e.Dest, e.Src = mpi.OpRecv, Endpoint{}, Endpoint{Kind: EPAnySource}
		}
		for k := 0; k <= int(b>>5); k++ {
			c.AppendLeaf(NewLeaf(e, ranks, 1000+int64(b)*int64(k+1)))
		}
	}
	return c.Seq
}

// mergePalette is what a leaf's list is drawn from when each leaf picks
// its own: more distinct lists than the merger remembers unions of, so
// a merge evicts, and lists equal to another but built apart, so only
// descriptors can tell that the merger met a pair before.
func mergePalette() []ranklist.List {
	return []ranklist.List{
		ranklist.SingleRank(0), ranklist.FromRanks([]int{0}),
		ranklist.FromRanks([]int{0, 1, 2}), ranklist.FromRanks([]int{2, 1, 0}),
		ranklist.SingleRank(4), ranklist.FromRanks([]int{4, 6}), ranklist.FromRanks([]int{6, 4}),
		ranklist.FromRanks([]int{1, 3, 5, 7}), ranklist.FromRanks([]int{0, 1, 2, 3, 4, 5, 6, 7}),
		ranklist.FromRanks([]int{5, 6}), ranklist.SingleRank(3), ranklist.FromRanks([]int{0, 2, 4, 6}),
		ranklist.FromRanks([]int{1, 2, 5, 6}), ranklist.SingleRank(7),
	}
}

// FuzzMergeMatchesReference checks the consuming merge against the
// cloning reference (mergeBoth) on two sides built from byte streams.
// Bit 0 of mode turns the parameter filter on (for the compressors and
// the merger alike); bits 1 and 2 give the left and the right side a
// multi-rank list instead of a single rank; bit 3 lets every call of
// both sides draw its list from mergePalette instead.
func FuzzMergeMatchesReference(f *testing.F) {
	// The cases of the tests above: identical, divergent and disjoint
	// traces, loops with equal and differing trip counts (strict and
	// filtered), singleton offsets that merge as absolute, differing
	// message sizes, empty sides.
	f.Add(byte(0), []byte{0, 1}, []byte{0, 1})
	f.Add(byte(0), []byte{0, 2}, []byte{0, 1, 2})
	f.Add(byte(0), []byte{0, 1}, []byte{2, 3})
	loop := func(n int) []byte { return bytes.Repeat([]byte{0, 1}, n) }
	f.Add(byte(0), loop(10), loop(10))
	f.Add(byte(0), loop(10), loop(12))
	f.Add(byte(1), loop(10), loop(12))
	f.Add(byte(0), []byte{8}, []byte{8})
	f.Add(byte(0), []byte{0}, []byte{4})
	f.Add(byte(0), []byte{0}, []byte{})
	f.Add(byte(0), []byte{}, []byte{0})
	// Multi-rank sides, wildcards, absolute end-points, and runs of
	// 3 vs 4 calls under the filter.
	f.Add(byte(7), []byte{0x40, 1, 0x40, 1, 0x18}, []byte{0x60, 1, 0x60, 1, 0x10})
	// Under the filter a side's own compressor folds runs of 3 and 4
	// calls into one loop with a trip-count histogram: on the right, on
	// the left, on both.
	f.Add(byte(1), []byte{0x20, 1, 0x20, 1}, []byte{0x40, 1, 0x60, 1})
	f.Add(byte(1), []byte{0x40, 1, 0x60, 1}, []byte{0x20, 1, 0x20, 1})
	f.Add(byte(1), []byte{0x40, 1, 0x60, 1}, []byte{0x20, 1, 0x60, 1})
	f.Add(byte(6), []byte{9, 2, 9, 2, 9, 2}, []byte{9, 2, 9, 2})
	// Per-call lists, on 28 calls that all differ, so neither side's
	// compressor folds them: one left list against each right one (a
	// memo keyed on one side would answer wrongly), and 28 pairs of
	// which the last 14 repeat the first, evicted by then, some on
	// lists equal to the first's but built apart. Then loops of
	// per-call lists under the filter.
	var oneL, oneR, cycL, cycR []byte
	for k := byte(0); k < 28; k++ {
		oneL, oneR = append(oneL, k, 2), append(oneR, k, k)
		cycL, cycR = append(cycL, k, k), append(cycR, k, k+5)
	}
	f.Add(byte(8), oneL, oneR)
	f.Add(byte(8), cycL, cycR)
	f.Add(byte(9), bytes.Repeat([]byte{0x20, 0, 1, 2}, 6), bytes.Repeat([]byte{0x20, 4, 1, 6}, 6))
	f.Fuzz(func(t *testing.T, mode byte, as, bs []byte) {
		const p, maxCalls = 8, 128
		if len(as) > maxCalls || len(bs) > maxCalls {
			return
		}
		filter := mode&1 != 0
		left := []ranklist.List{ranklist.SingleRank(0)}
		right := []ranklist.List{ranklist.SingleRank(4)}
		if mode&2 != 0 {
			left[0] = ranklist.FromRanks([]int{0, 1, 2})
		}
		if mode&4 != 0 {
			right[0] = ranklist.FromRanks([]int{4, 6})
		}
		if mode&8 != 0 {
			left, right = mergePalette(), mergePalette()
		}
		a := fuzzMergeSide(as, left, filter)
		b := fuzzMergeSide(bs, right, filter)
		mergeBoth(t, Merger{P: p, Filter: filter}, a, b)
	})
}
