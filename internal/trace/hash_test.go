package trace

import (
	"testing"

	"chameleon/internal/ranklist"
)

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
