package trace_test

import (
	"testing"

	"chameleon/internal/mpi"
	"chameleon/internal/ranklist"
	"chameleon/internal/sig"
	"chameleon/internal/trace"
)

func poolEvent(site int) trace.Event {
	return trace.Event{
		Op: mpi.OpSend, Stack: sig.Stack(sig.Mix(uint64(site))),
		Comm: mpi.CommWorld, Dest: trace.Relative(1), Tag: site, Bytes: 64,
	}
}

// TestPoolLeafAllocations: a leaf and its histogram are one object, so a
// cold Pool.Leaf allocates once and a recycled one not at all.
func TestPoolLeafAllocations(t *testing.T) {
	ev, ranks := poolEvent(1), ranklist.SingleRank(0)
	if got := testing.AllocsPerRun(100, func() {
		var p trace.Pool
		p.Leaf(ev, ranks, 10)
	}); got != 1 {
		t.Errorf("cold Pool.Leaf allocates %.0f objects, want 1", got)
	}
	var p trace.Pool
	if got := testing.AllocsPerRun(100, func() {
		p.Put(p.Leaf(ev, ranks, 10))
	}); got != 0 {
		t.Errorf("warm Pool.Leaf allocates %.0f objects, want 0", got)
	}
}

// TestRecycledLeafHistogramIsReset: a leaf whose histogram spilled to
// all 64 buckets comes back from the pool holding its new sample only.
func TestRecycledLeafHistogramIsReset(t *testing.T) {
	var p trace.Pool
	first := p.Leaf(poolEvent(1), ranklist.SingleRank(0), 1)
	for v := int64(2); v > 0; v <<= 1 {
		first.Delta.Add(v)
	}
	if first.Delta.Count() < 60 {
		t.Fatalf("setup: histogram holds %d samples", first.Delta.Count())
	}
	p.Put(first)
	second := p.Leaf(poolEvent(2), ranklist.SingleRank(1), 1000)
	if second != first {
		t.Fatalf("pool did not recycle the leaf")
	}
	h := second.Delta
	if h.Count() != 1 || h.Min != 1000 || h.Max != 1000 {
		t.Fatalf("recycled histogram: count %d min %d max %d, want one sample of 1000", h.Count(), h.Min, h.Max)
	}
	fresh := trace.NewLeaf(poolEvent(2), ranklist.SingleRank(1), 1000).Delta
	for i := 0; i < 64; i++ {
		if h.Bucket(i) != fresh.Bucket(i) {
			t.Fatalf("recycled histogram bucket %d = %d, want %d", i, h.Bucket(i), fresh.Bucket(i))
		}
	}
}

// TestLoopFromLeafCarcassHasNoDelta: with no loop carcass pooled, Loop
// takes a leaf carcass and drops its histogram, so the loop does not
// read as carrying leaf timing.
func TestLoopFromLeafCarcassHasNoDelta(t *testing.T) {
	var p trace.Pool
	leaf := p.Leaf(poolEvent(1), ranklist.SingleRank(0), 10)
	p.Put(leaf)
	body := []*trace.Node{trace.NewLeaf(poolEvent(2), ranklist.SingleRank(0), 10)}
	loop := p.Loop(3, body)
	if loop != leaf {
		t.Fatalf("Loop did not take the leaf carcass")
	}
	if loop.Delta != nil || loop.Iters != 3 || len(loop.Body) != 1 || !loop.IsLoop() {
		t.Fatalf("loop from a leaf carcass: Delta %v Iters %d body %d", loop.Delta, loop.Iters, len(loop.Body))
	}
}

// TestPooledCompressorMatchesUnpooled drives one generated stream through
// a compressor with a nil Pool and one with a Pool, flushing both now
// and then so the pooled side records into recycled leaves (spilled
// histograms, and loop iteration histograms turned leaf histograms).
// Sequences and histograms must agree after every event.
func TestPooledCompressorMatchesUnpooled(t *testing.T) {
	for _, filter := range []bool{false, true} {
		state := uint64(33)
		next := func(n int) int {
			state = state*6364136223846793005 + 1442695040888963407
			return int(state>>33) % n
		}
		var pool trace.Pool
		plain := trace.Compressor{Filter: filter}
		pooled := trace.Compressor{Filter: filter, Pool: &pool}
		for i := 0; i < 4000; i++ {
			ev := poolEvent(next(3) + 1)
			delta := int64(1) << next(40)
			plain.AppendLeaf((*trace.Pool)(nil).Leaf(ev, ranklist.SingleRank(0), delta))
			pooled.AppendLeaf(pool.Leaf(ev, ranklist.SingleRank(0), delta))
			if !sameSeq(plain.Seq, pooled.Seq) || plain.Compares != pooled.Compares || plain.SizeBytes() != pooled.SizeBytes() {
				t.Fatalf("filter=%v, event %d: pooled\n%s\nunpooled\n%s", filter, i, trace.Format(pooled.Seq), trace.Format(plain.Seq))
			}
			if next(100) == 0 {
				plain.Reset()
				pool.PutSeq(pooled.Reset())
			}
		}
	}
}
