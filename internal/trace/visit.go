package trace

// Read-only visitor API over compressed RSD trees: Accept walks a
// decoded tree, Walk the binary encoding itself, with the same
// callbacks.
//
// A walk touches every stored node exactly once; it never expands
// loops. Instead the Cursor carries the product of the enclosing loop
// trip counts (Mult), so a visitor can weight each leaf's
// per-iteration contribution in closed form — the core move of
// compressed-domain analysis (cost proportional to stored nodes, not
// to the dynamic events they represent).
//
// Windows: the top-level nodes of a global trace are its marker
// windows. Marker barriers themselves are never recorded (every tracer
// skips the marker communicator), but the online compressor flushes at
// marker boundaries, so consecutive top-level segments align with the
// application's timestep windows. Cursor.Window is the index of the
// enclosing top-level node.

// Cursor is the walk state handed to a Visitor at each node.
type Cursor struct {
	// Mult is the product of the enclosing loops' trip counts
	// (MeanIters); a leaf visited with Mult == m represents m dynamic
	// occurrences per covered rank.
	Mult uint64
	// Depth is the loop-nesting depth (0 at top level).
	Depth int
	// Window is the index of the enclosing top-level node.
	Window int
}

// Visitor receives the nodes of a compressed walk.
type Visitor interface {
	// EnterLoop is called before a loop's body; returning false prunes
	// the subtree (LeaveLoop is not called for pruned loops).
	EnterLoop(n *Node, c Cursor) bool
	// LeaveLoop is called after a loop's body has been walked.
	LeaveLoop(n *Node, c Cursor)
	// Leaf is called for each leaf node.
	Leaf(n *Node, c Cursor)
}

// Header is what a binary trace declares before its first node.
type Header struct {
	P                 int
	Benchmark, Tracer string
	Clustered, Filter bool
	Windows           int // the top-level node count: every Cursor.Window is below it
}

// A HeaderVisitor is handed the header before the first node, to size
// per-rank or per-window tables. Walk calls Header once; Accept, which
// has no header, never does.
type HeaderVisitor interface {
	Visitor
	Header(h Header)
}

// Walk drives v (nil: none, the bytes are only checked) straight from b,
// a binary trace of either version, with the callbacks and cursors
// Accept makes on the file DecodeBinary(b) returns, without building it.
// It reads with the decoder's bounds and budgets, so it fails exactly
// when DecodeBinary fails (a loop EnterLoop prunes is still read), maybe
// after some callbacks.
//
// Every node Walk hands out is scratch, one per depth, reused by the
// next node read at that depth, and so are its histograms: a visitor
// must not keep a *Node, its Delta or its ItersHist past the callback it
// was given in (a loop's lasts until its LeaveLoop). A loop's Body is
// empty but not nil; its body is the callbacks in between. Rank lists
// are shared, read once per distinct encoding, and may be kept.
func Walk(b []byte, v Visitor) error {
	w := walker{v: v}
	return w.walk(b)
}

// Accept walks the sequence depth-first in trace order, visiting every
// stored node exactly once.
func Accept(seq []*Node, v Visitor) {
	for i, n := range seq {
		acceptNode(n, Cursor{Mult: 1, Window: i}, v)
	}
}

func acceptNode(n *Node, c Cursor, v Visitor) {
	if !n.IsLoop() {
		v.Leaf(n, c)
		return
	}
	if !v.EnterLoop(n, c) {
		return
	}
	bc := Cursor{Mult: c.Mult * n.MeanIters(), Depth: c.Depth + 1, Window: c.Window}
	for _, b := range n.Body {
		acceptNode(b, bc, v)
	}
	v.LeaveLoop(n, c)
}
