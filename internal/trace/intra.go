package trace

// Intra-node (loop-level) compression: the online folding of a rank's
// event stream into RSD/PRSD loop nodes, run inside the PMPI wrapper as
// events are recorded.
//
// The folding rules mirror ScalaTrace's:
//
//  1. absorb — if the sequence ends with a loop node followed by a run
//     of nodes structurally equal to that loop's body, the run is folded
//     into the loop (Iters++);
//  2. create — otherwise, if the last L nodes structurally equal the L
//     nodes before them (for the smallest such L up to MaxWindow), the
//     two runs become a new loop node with Iters=2.
//
// Applied after every append, these two rules build nested PRSDs for
// loop nests: the inner repetition folds first, the enclosing pattern
// (now containing the inner loop node) folds at the next level.

// DefaultMaxWindow bounds the pattern length the compressor searches. It
// must exceed the largest per-timestep event count of the traced codes
// (LU's pipelined sweeps emit ~65 distinct leaves per timestep) or the
// timestep loop never folds; the absorb/create scans stay cheap because
// mismatching candidates fail on their first hash word.
const DefaultMaxWindow = 160

// Compressor folds an event stream into a compressed node sequence.
type Compressor struct {
	// Seq is the compressed sequence so far.
	Seq []*Node
	// MaxWindow bounds candidate loop-body lengths (DefaultMaxWindow if 0).
	MaxWindow int
	// Filter enables ScalaTrace's parameter filter: loops whose trip
	// counts differ may still fold, recording the spread in a histogram.
	Filter bool
	// Compares counts structural comparisons performed (cost accounting).
	Compares int
	// Pool, when set, receives the nodes the absorb/create folds discard,
	// so steady-state recording reuses instead of reallocating them. It
	// must be owned by the same goroutine as the compressor.
	Pool *Pool

	// size is the exact footprint of Seq in SizeBytes terms, maintained
	// incrementally (leaf histograms have constant footprint, so only
	// appends, folds and iteration-histogram creation can change it).
	size int
}

func (c *Compressor) window() int {
	if c.MaxWindow > 0 {
		return c.MaxWindow
	}
	return DefaultMaxWindow
}

// AppendLeaf records one event and re-folds the tail.
func (c *Compressor) AppendLeaf(n *Node) {
	c.AppendNode(n)
}

// AppendNode appends a pre-built node (used when growing the online
// global trace from flushed segments) and re-folds the tail. The whole
// subtree is re-hashed on the way in: Merger.mergeNode rewrites
// end-points and rank lists in place, so a hash it carries is stale.
func (c *Compressor) AppendNode(n *Node) {
	n.rehash()
	c.size += n.SizeBytes()
	c.Seq = append(c.Seq, n)
	for c.fold() {
	}
}

// Structural hashes. Compares is the modelled cost of the fold search
// (charged to the virtual clock); the comparisons it counts need not be
// performed field by field. Every node in a compressor caches a hash of
// what StructuralEqual reads, and the scans test it first: a mismatch
// costs one word compare, only a match pays the full check. The one
// invariant is that StructuralEqual(a, b, filter) implies equal hashes
// under either filter setting, so a leaf hashes the fields Event.Equal
// reads plus the rank list's smallest member, and a loop hashes its
// body's length and hashes but never Iters, which also keeps it valid
// across absorb's Iters++ and MergeInto.

const hashPrime = 0x9e3779b97f4a7c15

// rehash recomputes the structural hash of n and of its whole subtree.
func (n *Node) rehash() uint32 {
	h := uint64(len(n.Body))
	if n.IsLoop() {
		for _, b := range n.Body {
			h = (h ^ uint64(b.rehash())) * hashPrime
		}
	} else {
		e := &n.Ev
		for _, v := range [...]uint64{
			uint64(e.Stack), uint64(e.Op) | uint64(e.Dest.Kind)<<8 | uint64(e.Src.Kind)<<16,
			uint64(e.Comm), uint64(e.Dest.Off), uint64(e.Src.Off),
			uint64(e.Tag), uint64(e.Bytes), uint64(n.Ranks.Min()),
		} {
			h = (h ^ v) * hashPrime
		}
	}
	n.Ev.hash = uint32(h ^ h>>32)
	return n.Ev.hash
}

// differ is the scans' element test: hashes first, the full structural
// check only when they agree.
func (c *Compressor) differ(a, b *Node) bool {
	c.Compares++
	return a.Ev.hash != b.Ev.hash || !StructuralEqual(a, b, c.Filter)
}

// fold applies one absorb or create step; it reports whether anything
// changed (the caller loops until a fixed point, which builds nested
// loops bottom-up).
func (c *Compressor) fold() bool {
	if c.absorb() {
		return true
	}
	return c.create()
}

// absorb folds a completed body repetition into the loop preceding it:
// for each candidate run length m, if the node m positions back is a
// loop with an m-node body equal to the trailing run, the run is folded
// (Iters++). Smaller m first so inner loops absorb before outer ones.
func (c *Compressor) absorb() bool {
	n := len(c.Seq)
	for m, w := 1, c.window(); m <= w && m < n; m++ {
		loop := c.Seq[n-1-m]
		if !loop.IsLoop() || len(loop.Body) != m {
			continue
		}
		run := c.Seq[n-m:]
		ok := true
		for k := 0; k < m; k++ {
			if c.differ(loop.Body[k], run[k]) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for k := 0; k < m; k++ {
			c.size += MergeInto(loop.Body[k], run[k], c.Filter) - run[k].SizeBytes()
			c.Pool.Put(run[k])
		}
		loop.Iters++
		c.Seq = c.Seq[:n-m]
		return true
	}
	return false
}

// create folds the last L nodes with the L before them into a new loop.
func (c *Compressor) create() bool {
	n := len(c.Seq)
	maxL := c.window()
	if maxL > n/2 {
		maxL = n / 2
	}
	for L := 1; L <= maxL; L++ {
		a := c.Seq[n-2*L : n-L]
		b := c.Seq[n-L:]
		ok := true
		for k := 0; k < L; k++ {
			if c.differ(a[k], b[k]) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		body := make([]*Node, L)
		for k := 0; k < L; k++ {
			body[k] = a[k]
			c.size += MergeInto(body[k], b[k], c.Filter) - b[k].SizeBytes()
			c.Pool.Put(b[k])
		}
		loop := c.Pool.Loop(2, body)
		loop.rehash()     // recomputes the body's hashes with it, harmlessly
		c.size += 16 + 24 // the new loop node's own overhead (see Node.SizeBytes)
		c.Seq = append(c.Seq[:n-2*L], loop)
		return true
	}
	return false
}

// Reset clears the sequence (Chameleon deletes partial traces after each
// flush) and returns the old one. Ownership of the returned nodes moves
// to the caller — recycle them via Pool.PutSeq when they are discarded
// rather than handed on.
func (c *Compressor) Reset() []*Node {
	old := c.Seq
	c.Seq = nil
	c.size = 0
	return old
}

// SizeBytes reports the current compressed trace footprint. It is O(1):
// the compressor maintains the byte count incrementally across appends
// and folds.
func (c *Compressor) SizeBytes() int { return c.size }
