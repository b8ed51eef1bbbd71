package trace

import (
	"math/rand"
	"testing"

	"chameleon/internal/mpi"
	"chameleon/internal/ranklist"
	"chameleon/internal/sig"
)

// Generators for the hash property: events from an alphabet small enough
// that equal events, near misses (one field apart) and 32-bit collisions
// of unequal ones all occur; rank lists compacted from the ranks of
// hand-built descriptors (zero and negative strides among them).

func randEndpoint(rng *rand.Rand) Endpoint {
	switch rng.Intn(4) {
	case 0:
		return NoEndpoint
	case 1:
		return Relative(rng.Intn(3) - 1)
	case 2:
		return Absolute(rng.Intn(2))
	}
	return Endpoint{Kind: EPAnySource}
}

func randRanks(rng *rand.Rand) ranklist.List {
	var dims []ranklist.Dim
	for d := rng.Intn(3); d > 0; d-- {
		dims = append(dims, ranklist.Dim{Iters: 1 + rng.Intn(3), Stride: rng.Intn(5) - 2})
	}
	return ranklist.FromRanks(ranklist.New(rng.Intn(4), dims...).Ranks())
}

func randNode(rng *rand.Rand, depth int) *Node {
	if depth > 0 && rng.Intn(3) == 0 {
		body := make([]*Node, 1+rng.Intn(3))
		for i := range body {
			body[i] = randNode(rng, depth-1)
		}
		return NewLoop(uint64(1+rng.Intn(3)), body)
	}
	return NewLeaf(Event{
		Op:    []mpi.OpCode{mpi.OpSend, mpi.OpRecv}[rng.Intn(2)],
		Stack: sig.Stack(rng.Intn(3)),
		Site:  sig.SiteID(rng.Intn(3)),
		Comm:  mpi.CommID(rng.Intn(2)),
		Dest:  randEndpoint(rng),
		Src:   randEndpoint(rng),
		Tag:   rng.Intn(2),
		Bytes: 64 << uint(rng.Intn(2)),
	}, randRanks(rng), int64(rng.Intn(5000)))
}

// lookalike copies n changing only what StructuralEqual(·, ·, true) does
// not read: every loop gets another trip count.
func lookalike(n *Node) *Node {
	c := n.Clone()
	if !c.IsLoop() {
		return c
	}
	c.Iters += 1 + c.Iters%2
	for i, b := range n.Body {
		c.Body[i] = lookalike(b)
	}
	return c
}

// TestHashNeverSplitsEqualNodes is the fold search's one trap: the scans
// skip StructuralEqual when two hashes differ, so differing hashes must
// imply structurally different nodes — under either filter setting, and
// for loops that differ only in Iters.
//
// Mutation note: hashing Iters into a loop's hash must make this test
// fail; it was tried when the test was written.
func TestHashNeverSplitsEqualNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var equal, equalLoops, split int
	for i := 0; i < 20000; i++ {
		a := randNode(rng, 2)
		b := randNode(rng, 2)
		if i%2 == 0 {
			b = lookalike(a)
		}
		a.rehash()
		b.rehash()
		if a.Ev.hash != b.Ev.hash {
			split++
		}
		for _, filter := range []bool{false, true} {
			if !StructuralEqual(a, b, filter) {
				continue
			}
			equal++
			if a.IsLoop() && a.Iters != b.Iters {
				equalLoops++
			}
			if a.Ev.hash != b.Ev.hash {
				t.Fatalf("filter=%v: structurally equal nodes hash %08x and %08x:\n%s\nvs\n%s",
					filter, a.Ev.hash, b.Ev.hash, Format([]*Node{a}), Format([]*Node{b}))
			}
		}
	}
	// The generator must actually reach the cases the property is about.
	if equal < 5000 || equalLoops < 1000 || split < 5000 {
		t.Fatalf("weak sample: %d equal pairs (%d loops differing in Iters), %d split hashes", equal, equalLoops, split)
	}
}

// TestRecycledNodeIsRehashed: Pool.Put clears the hash with the rest of
// the node, and a recycled node that re-enters the compressor — even
// carrying a hash copied along with another node's Ev — is hashed afresh.
func TestRecycledNodeIsRehashed(t *testing.T) {
	var pool Pool
	c := Compressor{Pool: &pool}
	first := pool.Leaf(ev(1), ranklist.SingleRank(0), 10)
	c.AppendLeaf(first)
	h1 := first.Ev.hash
	if want := leaf(1).rehash(); h1 != want || h1 == 0 {
		t.Fatalf("appended leaf carries hash %08x, want %08x", h1, want)
	}
	pool.PutSeq(c.Reset())
	if first.Ev.hash != 0 {
		t.Fatalf("Pool.Put left hash %08x on a recycled node", first.Ev.hash)
	}
	stale := ev(2)
	stale.hash = h1 // as if copied out of a hashed node
	second := pool.Leaf(stale, ranklist.SingleRank(0), 10)
	if second != first {
		t.Fatalf("pool did not recycle the node")
	}
	c.AppendLeaf(second)
	if got, want := second.Ev.hash, leaf(2).rehash(); got != want || got == h1 {
		t.Fatalf("recycled leaf carries hash %08x (first life %08x), want %08x", got, h1, want)
	}
}
