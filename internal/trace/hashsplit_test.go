package trace_test

import (
	"testing"

	"chameleon/internal/mpi"
	"chameleon/internal/trace"
	"chameleon/internal/tracegen"
)

// lookalike copies n changing what StructuralEqual(·, ·, true) does not
// read: every loop gets another trip count and every leaf another call
// site ID (Gen leaves it 0). A non-zero comm also flips every leaf's
// communicator, which Event.Equal does read: a near miss.
func lookalike(n *trace.Node, comm mpi.CommID) *trace.Node {
	c := n.Clone()
	if !c.IsLoop() {
		c.Ev.Site = (c.Ev.Site + 1) % 3
		c.Ev.Comm ^= comm
		return c
	}
	c.Iters += 1 + c.Iters%2
	for i, b := range n.Body {
		c.Body[i] = lookalike(b, comm)
	}
	return c
}

// TestHashNeverSplitsEqualNodes is the fold search's one trap: the scans
// skip StructuralEqual when two hashes differ, so differing hashes must
// imply structurally different nodes — under either filter setting, for
// loops that differ only in Iters and leaves that differ only in Site.
//
// Mutation notes: hashing Iters into a loop's hash, or Site into a
// leaf's, must make this test fail, and so must Event.Equal ignoring
// Comm (the near misses then compare equal with split hashes); each was
// tried when the test was written.
func TestHashNeverSplitsEqualNodes(t *testing.T) {
	var equal, equalLoops, split int
	for i, data := range tracegen.Seeds(21, 20000) {
		g := tracegen.New(data)
		a, b := g.File().Nodes[0], g.File().Nodes[0] // a leaf or a loop each
		if i%3 < 2 {
			b = lookalike(a, mpi.CommID(i%3))
		}
		ha, hb := trace.Rehash(a), trace.Rehash(b)
		if ha != hb {
			split++
		}
		for _, filter := range []bool{false, true} {
			if !trace.StructuralEqual(a, b, filter) {
				continue
			}
			equal++
			if a.IsLoop() && a.Iters != b.Iters {
				equalLoops++
			}
			if ha != hb {
				t.Fatalf("filter=%v: structurally equal nodes hash %08x and %08x:\n%s\nvs\n%s",
					filter, ha, hb, trace.Format([]*trace.Node{a}), trace.Format([]*trace.Node{b}))
			}
		}
	}
	// The generator must actually reach the cases the property is about.
	if equal < 5000 || equalLoops < 1000 || split < 5000 {
		t.Fatalf("weak sample: %d equal pairs (%d loops differing in Iters), %d split hashes", equal, equalLoops, split)
	}
}
