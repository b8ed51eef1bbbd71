package trace

import (
	"fmt"
	"strings"

	"chameleon/internal/ranklist"
	"chameleon/internal/stats"
)

// Node is one element of a compressed trace: either a leaf (one MPI
// event with its rank list and timing statistics) or a loop (an RSD /
// PRSD: Iters repetitions of Body). PRSDs arise naturally because Body
// members may themselves be loops.
type Node struct {
	// Leaf fields (valid when Body == nil).
	Ev    Event
	Ranks ranklist.List
	Delta *stats.Histogram // computation time preceding the event (ns)

	// Loop fields (valid when Body != nil).
	Iters     uint64
	Body      []*Node
	ItersHist *stats.Histogram // iteration-count spread when the
	// parameter filter merged loops with differing trip counts
}

// IsLoop reports whether the node is an RSD/PRSD loop.
func (n *Node) IsLoop() bool { return n.Body != nil }

// NewLeaf builds a leaf node for one observed event.
func NewLeaf(ev Event, ranks ranklist.List, deltaNs int64) *Node {
	h := stats.NewHistogram()
	h.Add(deltaNs)
	return &Node{Ev: ev, Ranks: ranks, Delta: h}
}

// NewLoop builds a loop node.
func NewLoop(iters uint64, body []*Node) *Node {
	return &Node{Iters: iters, Body: body}
}

// Clone deep-copies the node.
func (n *Node) Clone() *Node {
	c := &Node{Ev: n.Ev, Ranks: n.Ranks, Iters: n.Iters}
	if n.Delta != nil {
		c.Delta = n.Delta.Clone()
	}
	if n.ItersHist != nil {
		c.ItersHist = n.ItersHist.Clone()
	}
	if n.Body != nil {
		c.Body = CloneSeq(n.Body)
	}
	return c
}

// CloneSeq deep-copies a node sequence.
func CloneSeq(seq []*Node) []*Node {
	out := make([]*Node, len(seq))
	for i, n := range seq {
		out[i] = n.Clone()
	}
	return out
}

// StructuralEqual reports whether two nodes describe the same trace
// structure (the intra-node fold criterion): equal events, equal rank
// lists, and for loops equal bodies. With filter set, loop iteration
// counts may differ (ScalaTrace's parameter filter for irregular codes
// like POP); without it they must match exactly.
func StructuralEqual(a, b *Node, filter bool) bool {
	if a.IsLoop() != b.IsLoop() {
		return false
	}
	if !a.IsLoop() {
		return a.Ev.Equal(b.Ev) && a.Ranks.Equal(b.Ranks)
	}
	if !filter && a.Iters != b.Iters {
		return false
	}
	return SeqStructuralEqual(a.Body, b.Body, filter)
}

// SeqStructuralEqual compares two node sequences element-wise.
func SeqStructuralEqual(a, b []*Node, filter bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !StructuralEqual(a[i], b[i], filter) {
			return false
		}
	}
	return true
}

// MergeInto folds src's statistics into dst. Both must be structurally
// equal under the given filter setting. It returns the number of bytes
// dst grew by (only the creation of an iteration-count histogram changes
// a node's footprint), so the compressor can track its size exactly
// without re-walking the sequence.
func MergeInto(dst, src *Node, filter bool) int {
	if !dst.IsLoop() {
		dst.Delta.Merge(src.Delta)
		return 0
	}
	grown := 0
	if filter && dst.Iters != src.Iters {
		if dst.ItersHist == nil {
			dst.ItersHist = stats.NewHistogram()
			dst.ItersHist.Add(int64(dst.Iters))
			grown += dst.ItersHist.SizeBytes()
		}
		dst.ItersHist.Add(int64(src.Iters))
		if src.ItersHist != nil {
			dst.ItersHist.Merge(src.ItersHist)
		}
	}
	for i := range dst.Body {
		grown += MergeInto(dst.Body[i], src.Body[i], filter)
	}
	return grown
}

// MeanIters returns the loop trip count to use during replay: the exact
// count, or the histogram mean when the parameter filter merged
// differing counts.
func (n *Node) MeanIters() uint64 {
	if n.ItersHist != nil && n.ItersHist.Count() > 0 {
		m := n.ItersHist.Mean()
		if m < 1 {
			m = 1
		}
		return uint64(m)
	}
	return n.Iters
}

// LeafCount returns the number of leaf nodes in PRSD notation — the
// paper's n, "the number of MPI events in PRSD compressed notation".
func LeafCount(seq []*Node) int {
	n := 0
	for _, nd := range seq {
		if nd.IsLoop() {
			n += LeafCount(nd.Body)
		} else {
			n++
		}
	}
	return n
}

// NodeCount returns the total number of nodes (leaves and loops).
func NodeCount(seq []*Node) int {
	n := 0
	for _, nd := range seq {
		n++
		if nd.IsLoop() {
			n += NodeCount(nd.Body)
		}
	}
	return n
}

// DynamicEvents returns the number of dynamic MPI events the sequence
// represents (leaves weighted by enclosing loop iterations).
func DynamicEvents(seq []*Node) uint64 {
	var total uint64
	for _, nd := range seq {
		if nd.IsLoop() {
			total += nd.Iters * DynamicEvents(nd.Body)
		} else {
			total++
		}
	}
	return total
}

// SizeBytes approximates the serialized/in-memory footprint of the
// sequence; the space ledger (Table IV) and the merge cost model consume
// it.
func SizeBytes(seq []*Node) int {
	total := 0
	for _, nd := range seq {
		total += nd.SizeBytes()
	}
	return total
}

// SizeBytes approximates one node's footprint, its loop body included.
func (n *Node) SizeBytes() int { return n.HeadBytes() + SizeBytes(n.Body) }

// HeadBytes is the node's own share of SizeBytes: a loop's without its
// body's, which a visitor is handed node by node.
func (n *Node) HeadBytes() int {
	if n.IsLoop() {
		s := 16 + 24 // iters + slice header
		if n.ItersHist != nil {
			s += n.ItersHist.SizeBytes()
		}
		return s
	}
	s := 64 // event tuple
	s += n.Ranks.SizeBytes()
	if n.Delta != nil {
		s += n.Delta.SizeBytes()
	}
	return s
}

// Format renders the sequence as an indented PRSD listing (chamdump).
func Format(seq []*Node) string {
	var b strings.Builder
	formatSeq(&b, seq, 0)
	return b.String()
}

func formatSeq(b *strings.Builder, seq []*Node, depth int) {
	ind := strings.Repeat("  ", depth)
	for _, n := range seq {
		if n.IsLoop() {
			iters := fmt.Sprintf("%d", n.Iters)
			if n.ItersHist != nil {
				iters = fmt.Sprintf("~%d", n.MeanIters())
			}
			fmt.Fprintf(b, "%sPRSD<%s> {\n", ind, iters)
			formatSeq(b, n.Body, depth+1)
			fmt.Fprintf(b, "%s}\n", ind)
			continue
		}
		fmt.Fprintf(b, "%s%s ranks=%s", ind, n.Ev.String(), n.Ranks.String())
		if n.Delta != nil && n.Delta.Count() > 0 {
			fmt.Fprintf(b, " delta=%s", n.Delta.String())
		}
		b.WriteString("\n")
	}
}
