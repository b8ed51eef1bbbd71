package trace

// Node pooling for the per-rank hot path. Every recorded MPI event costs
// a leaf: a Node and its Delta histogram, allocated together as one
// object. The compressor's absorb/create folds then discard most leaves
// within a few events. A Pool keeps those carcasses whole — a recycled
// leaf still holds its histogram — so steady-state recording allocates
// nothing, and a free list grows once per carcass, not once per part.
//
// Pools are intentionally lock-free and goroutine-local: each recorder
// (one per simulated rank) owns one, and nodes recycled into a pool may
// only be touched by that pool's owner afterwards. Ownership of live
// nodes is linear — TakePartial hands a sequence away, the radix-tree
// merge consumes both inputs (Merger.Merge), and the online compressor
// folds what reaches rank 0 — so a node is never reachable from two
// places when it dies.

import (
	"chameleon/internal/ranklist"
	"chameleon/internal/stats"
)

// Pool is a free list of trace nodes. The zero value is ready to use; a
// nil *Pool is valid and falls back to plain allocation everywhere.
type Pool struct {
	// leaves are cleared nodes that still hold a histogram in Delta;
	// bare are cleared nodes without one (recycled loops).
	leaves []*Node
	bare   []*Node
}

// leafObj is a fresh leaf: the node and its Delta histogram in one
// allocation (216 bytes, the size class the two took up apart).
type leafObj struct {
	n Node
	h stats.Histogram
}

// Leaf builds a leaf node for one observed event, reusing pooled
// storage: a leaf carcass, else a recycled loop given a new histogram,
// else one fresh leafObj. It is the pooled analogue of NewLeaf.
func (p *Pool) Leaf(ev Event, ranks ranklist.List, deltaNs int64) *Node {
	var n *Node
	switch {
	case p != nil && len(p.leaves) > 0:
		n = p.leaves[len(p.leaves)-1]
		p.leaves = p.leaves[:len(p.leaves)-1]
		n.Delta.Reset()
	case p != nil && len(p.bare) > 0:
		n = p.pop()
		n.Delta = stats.NewHistogram()
	default:
		l := new(leafObj)
		n = &l.n
		n.Delta = &l.h
		n.Delta.Reset()
	}
	n.Delta.Add(deltaNs)
	n.Ev = ev
	n.Ranks = ranks
	return n
}

// Loop builds a loop node from pooled storage: a recycled loop, else a
// leaf carcass whose histogram is dropped.
func (p *Pool) Loop(iters uint64, body []*Node) *Node {
	n := p.pop()
	n.Iters = iters
	n.Body = body
	return n
}

// pop takes a node without a histogram: a bare carcass, a leaf carcass
// stripped of its Delta, or a fresh node.
func (p *Pool) pop() *Node {
	switch {
	case p == nil:
	case len(p.bare) > 0:
		n := p.bare[len(p.bare)-1]
		p.bare = p.bare[:len(p.bare)-1]
		return n
	case len(p.leaves) > 0:
		n := p.leaves[len(p.leaves)-1]
		p.leaves = p.leaves[:len(p.leaves)-1]
		n.Delta = nil
		return n
	}
	return &Node{}
}

// Put recycles one node and everything it owns (its histograms, and for
// loops the whole body subtree). The caller must be the node's sole
// owner. A node keeps one histogram across its next life: its Delta, or
// a loop's ItersHist, which becomes the Delta of a future leaf.
func (p *Pool) Put(n *Node) {
	if p == nil || n == nil {
		return
	}
	for _, c := range n.Body {
		p.Put(c)
	}
	h := n.Delta
	if h == nil {
		h = n.ItersHist
	}
	*n = Node{Delta: h}
	if h != nil {
		p.leaves = append(p.leaves, n)
	} else {
		p.bare = append(p.bare, n)
	}
}

// PutSeq recycles a whole detached sequence (a discarded partial trace).
func (p *Pool) PutSeq(seq []*Node) {
	if p == nil {
		return
	}
	for _, n := range seq {
		p.Put(n)
	}
}
