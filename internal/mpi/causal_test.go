package mpi

import (
	"fmt"
	"testing"

	"chameleon/internal/obs"
)

// lowbit returns the lowest set bit of v.
func lowbit(v int) int { return v & -v }

// runCausal executes body on p ranks with causal capture enabled and
// returns the body's edges (the finalize barrier's edges, which carry
// the op-derived "finalize" context, are excluded).
func runCausal(t *testing.T, p int, body func(pr *Proc)) []obs.Edge {
	t.Helper()
	o := obs.New(obs.Options{CausalRanks: p})
	if _, err := Run(Config{P: p, Obs: o}, body); err != nil {
		t.Fatal(err)
	}
	var out []obs.Edge
	for _, e := range o.Causal.Edges() {
		if e.Ctx != "finalize" {
			out = append(out, e)
		}
	}
	return out
}

// TestTreeEdgeCapture verifies every hop of the tree collectives —
// Bcast, Reduce and Gather rooted at 0 and at p−1, then rawBarrier —
// produces exactly one matched send/recv edge with the tag and bytes
// the binomial schedule gives it, for power-of-two and
// non-power-of-two rank counts. The expected hops are stated here
// apart from TreePeer: in the tree rooted at root, virtual rank
// v = (r−root) mod p has parent v−lowbit(v) and a subtree of
// min(lowbit(v), p−v) ranks; bcast sends parent→child, reduce and
// gather child→parent (a gather hop carries its subtree's
// contributions), and rawBarrier is a reduce to 0 (phase 0) plus a
// 0-byte bcast (phase 1).
func TestTreeEdgeCapture(t *testing.T) {
	const bytes = 24
	for _, p := range []int{1, 2, 5, 8} {
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			roots := []int{0, p - 1}
			edges := runCausal(t, p, func(pr *Proc) {
				w := pr.World()
				for _, root := range roots {
					w.Bcast(root, bytes, nil)        // tag seq 3i
					w.Reduce(root, bytes, 7, OpSum)  // tag seq 3i+1
					w.Gather(root, bytes, pr.Rank()) // tag seq 3i+2
				}
				w.rawBarrier(0) // tag seq 6, phases 0+1
			})
			if p == 1 {
				if len(edges) != 0 {
					t.Fatalf("p=1: %d edges, want 0 (no hops in a single-rank tree)", len(edges))
				}
				return
			}
			// (from, to, tag, bytes) -> count. Tags are
			// collTag(CommWorld, seq, phase) = seq<<4|phase as allocated
			// above.
			count := make(map[[4]int]int)
			for _, e := range edges {
				if e.Seq == 0 {
					t.Fatalf("edge without piggybacked seq: %+v", e)
				}
				if e.SendVT > e.ArriveVT || e.ArriveVT > e.RecvVT {
					t.Fatalf("edge times out of order: %+v", e)
				}
				count[[4]int{e.From, e.To, e.Tag, e.Bytes}]++
			}
			var want [][4]int
			for v := 1; v < p; v++ {
				for i, root := range roots {
					parent, child := (v-lowbit(v)+root)%p, (v+root)%p
					want = append(want,
						[4]int{parent, child, (3*i + 0) << 4, bytes},                       // bcast hop
						[4]int{child, parent, (3*i + 1) << 4, 8},                           // reduce hop
						[4]int{child, parent, (3*i + 2) << 4, bytes * min(lowbit(v), p-v)}, // gather hop
					)
				}
				parent, child := v-lowbit(v), v
				want = append(want,
					[4]int{child, parent, 6<<4 | 0, 8}, // barrier reduce phase
					[4]int{parent, child, 6<<4 | 1, 0}, // barrier bcast phase
				)
			}
			for _, k := range want {
				if count[k] != 1 {
					t.Errorf("hop from=%d to=%d tag=%d bytes=%d: %d edges, want exactly 1",
						k[0], k[1], k[2], k[3], count[k])
				}
			}
			if len(edges) != len(want) {
				t.Errorf("%d edges, want %d", len(edges), len(want))
			}
		})
	}
}

// TestCausalDisabled proves the zero-cost discipline end to end: with no
// causal store (observer nil, or enabled without CausalRanks) the run
// records nothing and messages carry no stamp.
func TestCausalDisabled(t *testing.T) {
	body := func(pr *Proc) {
		w := pr.World()
		w.Bcast(0, 8, nil)
		w.rawBarrier(0)
	}
	if _, err := Run(Config{P: 4}, body); err != nil {
		t.Fatal(err)
	}
	o := obs.New(obs.Options{Metrics: true})
	if o.CausalStore() != nil {
		t.Fatal("CausalStore must be nil when CausalRanks is unset")
	}
	if _, err := Run(Config{P: 4, Obs: o}, body); err != nil {
		t.Fatal(err)
	}
	if n := o.Causal.EdgeCount(); n != 0 {
		t.Fatalf("disabled causal recorded %d edges", n)
	}
}

// TestCausalContextLabels checks the context API: explicit contexts
// label the edges recorded inside them, CausalContextDefault defers to
// an installed outer name, and the restore closure reinstates the
// previous context.
func TestCausalContextLabels(t *testing.T) {
	const p = 4
	o := obs.New(obs.Options{CausalRanks: p})
	_, err := Run(Config{P: p, Obs: o}, func(pr *Proc) {
		w := pr.World()
		restore := pr.CausalContext("vote", 3)
		// An inner default must NOT override the explicit outer name.
		restoreInner := pr.CausalContextDefault("merge", 9)
		w.treeBcastU64(0, collTag(CommWorld, w.nextSeq(), 0), 1)
		restoreInner()
		restore()
		// With no outer context the default applies.
		defer pr.CausalContextDefault("merge", 9)()
		w.treeBcastU64(0, collTag(CommWorld, w.nextSeq(), 0), 2)
	})
	if err != nil {
		t.Fatal(err)
	}
	byCtx := make(map[string]int)
	for _, e := range o.Causal.Edges() {
		byCtx[e.Ctx]++
		if e.Ctx == "vote" && e.CtxSeq != 3 {
			t.Fatalf("vote edge seq = %d, want 3", e.CtxSeq)
		}
		if e.Ctx == "merge" && e.CtxSeq != 9 {
			t.Fatalf("merge edge seq = %d, want 9", e.CtxSeq)
		}
	}
	if byCtx["vote"] != p-1 || byCtx["merge"] != p-1 {
		t.Fatalf("edges by ctx = %v, want %d vote and %d merge", byCtx, p-1, p-1)
	}
}
