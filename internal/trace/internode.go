package trace

// Inter-node compression: merging two ranks' (or subtrees') compressed
// traces into one. Structurally equal nodes merge by unioning rank lists
// and folding statistics; mismatching regions are interleaved with a
// bounded look-ahead so SPMD traces with small divergences (an if/else
// branch, a master rank) still align. This is the pairwise step of the
// radix-tree reduction ScalaTrace runs in MPI_Finalize and Chameleon
// runs online over the K lead traces; its comparison count is the n²
// term of the paper's O(n² log P) complexity.

import (
	"chameleon/internal/ranklist"
	"chameleon/internal/stats"
)

// MergeStats accumulates the work performed by merges, which the virtual
// cost model prices.
type MergeStats struct {
	// Compares counts node structural comparisons (the n² term).
	Compares int
	// BytesMerged counts trace bytes touched while merging.
	BytesMerged int
}

// mergeLookahead bounds how far the aligner scans for a re-sync point
// after a mismatch.
const mergeLookahead = 16

// Merger merges node sequences under one filter setting, accumulating
// MergeStats. A merge consumes both input sequences: matched pairs merge
// in place into the left node and unmatched nodes move into the output,
// so the inputs are unusable afterwards. Ownership along the radix merge
// tree is linear, a child sending its sequence away and never touching
// it again, so no caller needs copies.
//
// A Merger remembers the last few rank-list unions it computed: every
// leaf matched in one merge step tends to unite the same two lists (the
// ranks below each side of the radix tree), so the leaves after the
// first share one result instead of each expanding and compacting the
// same ranks again. Lists are immutable once built, so sharing is safe.
type Merger struct {
	Filter bool
	// P is the rank count, used to normalize absolute end-points; 0
	// disables normalization.
	P int
	// Owned is ignored: every merge consumes both inputs (see Merge).
	// The field stays only for callers that still set it.
	Owned bool
	Stats MergeStats

	unions [unionMemoSize]unionMemo
	next   int // the entry the next new union replaces
}

// unionMemoSize is how many unions a Merger remembers, replaced round
// robin: a merge step meets a handful of distinct pairs of lists (the
// two sides' common list, a master or boundary rank's own).
const unionMemoSize = 8

// unionMemo is one remembered union: u holds the ranks of a and b.
type unionMemo struct {
	a, b, u ranklist.List
}

// union returns a ∪ b, shared with an earlier leaf's result when this
// merger united lists with the same descriptors before. Lookups compare
// descriptors (List.Equal), which never allocates, so the answer does
// not depend on which leaves happen to share a list.
func (m *Merger) union(a, b ranklist.List) ranklist.List {
	for i := range m.unions {
		if e := &m.unions[i]; e.a.Equal(a) && e.b.Equal(b) {
			return e.u
		}
	}
	u := a.Union(b)
	m.unions[m.next] = unionMemo{a, b, u}
	m.next = (m.next + 1) % unionMemoSize
	return u
}

// eventMatch reports whether two leaves can merge across ranks: same
// operation, stack signature, communicator, tag and size, and mergeable
// end-points. Unlike the intra-node fold it ignores rank lists (they
// union) and tolerates end-point encodings that agree once resolved.
func (m *Merger) eventMatch(a, b *Node) bool {
	ea, eb := a.Ev, b.Ev
	if ea.Op != eb.Op || ea.Stack != eb.Stack || ea.Comm != eb.Comm ||
		ea.Tag != eb.Tag || ea.Bytes != eb.Bytes {
		return false
	}
	if _, ok := m.mergeEndpoint(ea.Dest, a, eb.Dest, b); !ok {
		return false
	}
	if _, ok := m.mergeEndpoint(ea.Src, a, eb.Src, b); !ok {
		return false
	}
	return true
}

func (m *Merger) mergeEndpoint(a Endpoint, an *Node, b Endpoint, bn *Node) (Endpoint, bool) {
	return MergeEndpoints(
		a, an.Ranks.Min(), an.Ranks.Size() == 1,
		b, bn.Ranks.Min(), bn.Ranks.Size() == 1,
		m.P,
	)
}

// nodeMatch reports whether two nodes (leaf or loop) can merge.
func (m *Merger) nodeMatch(a, b *Node) bool {
	m.Stats.Compares++
	if a.IsLoop() != b.IsLoop() {
		return false
	}
	if !a.IsLoop() {
		return m.eventMatch(a, b)
	}
	if !m.Filter && a.Iters != b.Iters {
		return false
	}
	if len(a.Body) != len(b.Body) {
		return false
	}
	for i := range a.Body {
		if !m.nodeMatch(a.Body[i], b.Body[i]) {
			return false
		}
	}
	return true
}

// mergeNode folds b into a, which then covers both rank sets:
// statistics fold into a's own storage and b is consumed. It returns a.
func (m *Merger) mergeNode(a, b *Node) *Node {
	if a.IsLoop() {
		for i := range a.Body {
			a.Body[i] = m.mergeNode(a.Body[i], b.Body[i])
		}
		if m.Filter && (a.Iters != b.Iters || a.ItersHist != nil || b.ItersHist != nil) {
			mergeItersHistInto(a, b)
		}
		m.Stats.BytesMerged += a.SizeBytes()
		return a
	}
	// End-points must merge before a's rank list unions: the encoding
	// rules depend on each side's own rank set.
	dest, _ := m.mergeEndpoint(a.Ev.Dest, a, b.Ev.Dest, b)
	src, _ := m.mergeEndpoint(a.Ev.Src, a, b.Ev.Src, b)
	a.Ev.Dest = dest
	a.Ev.Src = src
	a.Ranks = m.union(a.Ranks, b.Ranks)
	a.Delta.Merge(b.Delta)
	m.Stats.BytesMerged += a.SizeBytes()
	return a
}

// mergeItersHistInto leaves in a.ItersHist the trip counts of both
// loops: a's own count (or histogram) and b's.
func mergeItersHistInto(a, b *Node) {
	if a.ItersHist == nil {
		a.ItersHist = stats.NewHistogram()
		a.ItersHist.Add(int64(a.Iters))
	}
	if b.ItersHist != nil {
		a.ItersHist.Merge(b.ItersHist)
	} else {
		a.ItersHist.Add(int64(b.Iters))
	}
}

// take moves an unmatched node into the output.
func (m *Merger) take(n *Node) *Node {
	m.Stats.BytesMerged += n.SizeBytes()
	return n
}

// Merge aligns and merges two compressed sequences, returning the merged
// sequence. Unmatched nodes are preserved in order (interleaved at their
// alignment position), so no MPI event is ever dropped. Both inputs are
// consumed (see Merger).
func (m *Merger) Merge(a, b []*Node) []*Node {
	out := make([]*Node, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if m.nodeMatch(a[i], b[j]) {
			out = append(out, m.mergeNode(a[i], b[j]))
			i++
			j++
			continue
		}
		// Re-sync: find the nearest forward match in either sequence.
		ai, bj := m.findSync(a, i, b, j)
		switch {
		case ai >= 0 && (bj < 0 || ai <= bj):
			// a[i..i+ai) is unmatched; emit it.
			for k := 0; k < ai; k++ {
				out = append(out, m.take(a[i]))
				i++
			}
		case bj >= 0:
			for k := 0; k < bj; k++ {
				out = append(out, m.take(b[j]))
				j++
			}
		default:
			// No re-sync within the look-ahead: emit both heads.
			out = append(out, m.take(a[i]))
			i++
			if j < len(b) {
				out = append(out, m.take(b[j]))
				j++
			}
		}
	}
	for ; i < len(a); i++ {
		out = append(out, m.take(a[i]))
	}
	for ; j < len(b); j++ {
		out = append(out, m.take(b[j]))
	}
	return out
}

// findSync scans ahead for the smallest skip that re-aligns the
// sequences: ai is the number of a-nodes to skip so a[i+ai] matches
// b[j], bj the number of b-nodes to skip so b[j+bj] matches a[i]; -1
// when no match lies within the look-ahead.
func (m *Merger) findSync(a []*Node, i int, b []*Node, j int) (ai, bj int) {
	ai, bj = -1, -1
	for k := 1; k <= mergeLookahead && i+k < len(a); k++ {
		if m.nodeMatch(a[i+k], b[j]) {
			ai = k
			break
		}
	}
	for k := 1; k <= mergeLookahead && j+k < len(b); k++ {
		if m.nodeMatch(a[i], b[j+k]) {
			bj = k
			break
		}
	}
	return ai, bj
}
