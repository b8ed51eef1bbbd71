package trace

import (
	"testing"

	"chameleon/internal/mpi"
	"chameleon/internal/ranklist"
)

// leafVisitor adapts a plain function to the Visitor interface.
type leafVisitor func(*Node, Cursor)

func (f leafVisitor) EnterLoop(*Node, Cursor) bool { return true }
func (f leafVisitor) LeaveLoop(*Node, Cursor)      {}
func (f leafVisitor) Leaf(n *Node, c Cursor)       { f(n, c) }

// VisitLeaves walks the sequence and calls fn once per stored leaf with
// its cursor (iteration weight, depth, window).
func VisitLeaves(seq []*Node, fn func(n *Node, c Cursor)) {
	Accept(seq, leafVisitor(fn))
}

// buildVisitFixture returns [leaf0, loop(3){leaf1, loop(2){leaf2}}, leaf3]:
// three windows, nested loops, known weights.
func buildVisitFixture() []*Node {
	leaf := func(tag int) *Node {
		return NewLeaf(Event{Op: mpi.OpSend, Tag: tag, Bytes: 8}, ranklist.SingleRank(0), 100)
	}
	inner := NewLoop(2, []*Node{leaf(2)})
	outer := NewLoop(3, []*Node{leaf(1), inner})
	return []*Node{leaf(0), outer, leaf(3)}
}

func TestVisitLeavesWeightsAndWindows(t *testing.T) {
	seq := buildVisitFixture()
	type got struct {
		tag    int
		mult   uint64
		depth  int
		window int
	}
	var out []got
	VisitLeaves(seq, func(n *Node, c Cursor) {
		out = append(out, got{n.Ev.Tag, c.Mult, c.Depth, c.Window})
	})
	want := []got{
		{0, 1, 0, 0},
		{1, 3, 1, 1},
		{2, 6, 2, 1},
		{3, 1, 0, 2},
	}
	if len(out) != len(want) {
		t.Fatalf("visited %d leaves, want %d: %+v", len(out), len(want), out)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("leaf %d: got %+v, want %+v", i, out[i], want[i])
		}
	}
}

// TestVisitWeightedCountMatchesDynamicEvents proves the closed-form
// identity the analysis engine rests on: summing Mult over leaves equals
// expanding every loop. MeanIters and Iters agree for unfiltered traces.
func TestVisitWeightedCountMatchesDynamicEvents(t *testing.T) {
	seq := buildVisitFixture()
	var sum uint64
	VisitLeaves(seq, func(n *Node, c Cursor) { sum += c.Mult })
	if want := DynamicEvents(seq); sum != want {
		t.Fatalf("weighted leaf sum %d != DynamicEvents %d", sum, want)
	}
}

// pruningVisitor prunes loops and counts what it saw.
type pruningVisitor struct {
	enters, leaves, leafs int
}

func (p *pruningVisitor) EnterLoop(*Node, Cursor) bool { p.enters++; return false }
func (p *pruningVisitor) LeaveLoop(*Node, Cursor)      { p.leaves++ }
func (p *pruningVisitor) Leaf(*Node, Cursor)           { p.leafs++ }

func TestAcceptPrunesOnEnterLoopFalse(t *testing.T) {
	seq := buildVisitFixture()
	v := &pruningVisitor{}
	Accept(seq, v)
	if v.enters != 1 {
		t.Errorf("EnterLoop called %d times, want 1 (outer loop only)", v.enters)
	}
	if v.leaves != 0 {
		t.Errorf("LeaveLoop called %d times for pruned loops, want 0", v.leaves)
	}
	if v.leafs != 2 {
		t.Errorf("visited %d top-level leaves, want 2", v.leafs)
	}
}

func TestAcceptEmptySequence(t *testing.T) {
	VisitLeaves(nil, func(*Node, Cursor) { t.Fatal("leaf visited in empty sequence") })
}
