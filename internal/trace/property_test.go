package trace

import (
	"testing"
	"testing/quick"

	"chameleon/internal/ranklist"
)

// stream decodes a byte slice into an event-site stream over a small
// alphabet (the generator for compression property tests).
func stream(bs []byte, alphabet int) []int {
	out := make([]int, len(bs))
	for i, b := range bs {
		out[i] = int(b)%alphabet + 1
	}
	return out
}

// compress runs a stream through the intra-node compressor.
func compress(sites []int, filter bool) *Compressor {
	c := &Compressor{Filter: filter}
	for _, s := range sites {
		c.AppendLeaf(leaf(s))
	}
	return c
}

// siteCounts tallies dynamic events per site in a compressed sequence.
func siteCounts(seq []*Node) map[int]uint64 {
	got := map[int]uint64{}
	var walk func(seq []*Node, mult uint64)
	walk = func(seq []*Node, mult uint64) {
		for _, n := range seq {
			if n.IsLoop() {
				walk(n.Body, mult*n.Iters)
			} else {
				got[n.Ev.Tag] += mult
			}
		}
	}
	walk(seq, 1)
	return got
}

func TestQuickCompressionConservesEvents(t *testing.T) {
	f := func(bs []byte) bool {
		sites := stream(bs, 4)
		c := compress(sites, false)
		if DynamicEvents(c.Seq) != uint64(len(sites)) {
			return false
		}
		want := map[int]uint64{}
		for _, s := range sites {
			want[s]++
		}
		got := siteCounts(c.Seq)
		if len(got) != len(want) {
			return false
		}
		for s, w := range want {
			if got[s] != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCompressionNeverGrows(t *testing.T) {
	// The compressed node count never exceeds the input length.
	f := func(bs []byte) bool {
		sites := stream(bs, 3)
		c := compress(sites, false)
		return NodeCount(c.Seq) <= len(sites)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCompressionFoldsRepetition(t *testing.T) {
	// Any pattern repeated enough compresses well: the stored node count
	// is bounded by the pattern size (plus nesting overhead), not the
	// repetition count.
	f := func(pattern []byte, reps uint8) bool {
		if len(pattern) == 0 || len(pattern) > 12 {
			return true // out of scope
		}
		n := int(reps%40) + 10
		var sites []int
		base := stream(pattern, 5)
		for i := 0; i < n; i++ {
			sites = append(sites, base...)
		}
		c := compress(sites, false)
		return NodeCount(c.Seq) <= 4*len(pattern)+4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMergePerRankConservation(t *testing.T) {
	// Merging two ranks' compressed traces preserves each rank's
	// restricted per-site counts.
	countFor := func(seq []*Node, rank int) map[int]uint64 {
		got := map[int]uint64{}
		var walk func(seq []*Node, mult uint64)
		walk = func(seq []*Node, mult uint64) {
			for _, n := range seq {
				if n.IsLoop() {
					walk(n.Body, mult*n.Iters)
				} else if n.Ranks.Contains(rank) {
					got[n.Ev.Tag] += mult
				}
			}
		}
		walk(seq, 1)
		return got
	}
	f := func(as, bs []byte) bool {
		build := func(bsx []byte, rank int) ([]*Node, map[int]uint64) {
			sites := stream(bsx, 4)
			c := &Compressor{}
			want := map[int]uint64{}
			for _, s := range sites {
				l := leaf(s)
				l.Ranks = ranklist.SingleRank(rank)
				c.AppendLeaf(l)
				want[s]++
			}
			return c.Seq, want
		}
		a, wantA := build(as, 0)
		b, wantB := build(bs, 1)
		merged, _ := mergeBoth(t, Merger{P: 4}, a, b)
		for rank, want := range map[int]map[int]uint64{0: wantA, 1: wantB} {
			got := countFor(merged, rank)
			if len(got) != len(want) {
				return false
			}
			for s, w := range want {
				if got[s] != w {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBinaryRoundTrip(t *testing.T) {
	// Serialization round-trips arbitrary compressed traces.
	f := func(bs []byte) bool {
		sites := stream(bs, 5)
		if len(sites) == 0 {
			return true
		}
		c := compress(sites, false)
		file := &File{P: 4, Benchmark: "Q", Tracer: "quick", Nodes: c.Seq}
		path := t.TempDir() + "/q.bin"
		if err := file.SaveBinary(path); err != nil {
			return false
		}
		back, err := LoadAny(path)
		if err != nil {
			return false
		}
		return SeqStructuralEqual(file.Nodes, back.Nodes, false) &&
			DynamicEvents(back.Nodes) == uint64(len(sites))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickValidateAcceptsCompressorOutput(t *testing.T) {
	f := func(bs []byte) bool {
		sites := stream(bs, 4)
		if len(sites) == 0 {
			return true
		}
		c := compress(sites, false)
		file := &File{P: 4, Nodes: c.Seq}
		return file.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
