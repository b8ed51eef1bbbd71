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

// DefaultMaxWindow bounds the length, in nodes, of the loop bodies the
// compressor searches for. A timestep's body must fit once its inner
// loops have folded, or the timestep loop never folds. The bound is not
// what a scan costs: each looks at no more candidates than the sequence
// holds (on rank 0 of LU class A at P=256, 18 nodes on average and 65
// at most), and rejects most of them on one word, the candidate's
// length in absorb and its first pair's hashes in create.
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

// fold applies one absorb or create step; it reports whether anything
// changed (the caller loops until a fixed point, which builds nested
// loops bottom-up).
func (c *Compressor) fold() bool {
	if c.absorb() {
		return true
	}
	return c.create()
}

// samePrefix returns how many leading pairs of a and b are structurally
// equal, testing each pair's hashes first. b is at least as long as a.
func samePrefix(a, b []*Node, filter bool) int {
	for k, x := range a {
		if y := b[k]; x.Ev.hash != y.Ev.hash || !StructuralEqual(x, y, filter) {
			return k
		}
	}
	return len(a)
}

// absorb folds a completed body repetition into the loop preceding it:
// for each candidate run length m, if the node m positions back is a
// loop with an m-node body equal to the trailing run, the run is folded
// (Iters++). Smaller m first so inner loops absorb before outer ones.
// The pairs it tests are added to Compares once, after the scan.
func (c *Compressor) absorb() bool {
	seq := c.Seq
	n := len(seq)
	tested := 0
	for m, w := 1, min(c.window(), n-1); m <= w; m++ {
		loop := seq[n-1-m]
		if len(loop.Body) != m { // a leaf's nil Body has length 0
			continue
		}
		run := seq[n-m:]
		if loop.Body[0].Ev.hash != run[0].Ev.hash {
			tested++
			continue
		}
		k := samePrefix(loop.Body, run, c.Filter)
		tested += min(k+1, m)
		if k < m {
			continue
		}
		c.Compares += tested
		for k, b := range loop.Body {
			c.size += MergeInto(b, run[k], c.Filter) - run[k].SizeBytes()
			c.Pool.Put(run[k])
		}
		loop.Iters++
		c.Seq = seq[:n-m]
		return true
	}
	c.Compares += tested
	return false
}

// create folds the last L nodes with the L before them into a new loop,
// for the smallest such L. Like absorb, it adds the pairs it tests to
// Compares after the scan.
func (c *Compressor) create() bool {
	seq := c.Seq
	n := len(seq)
	tested := 0
	for L, w := 1, min(c.window(), n/2); L <= w; L++ {
		if seq[n-2*L].Ev.hash != seq[n-L].Ev.hash {
			tested++
			continue
		}
		a, b := seq[n-2*L:n-L], seq[n-L:]
		k := samePrefix(a, b, c.Filter)
		tested += min(k+1, L)
		if k < L {
			continue
		}
		c.Compares += tested
		body := make([]*Node, L)
		for k, x := range a {
			body[k] = x
			c.size += MergeInto(x, b[k], c.Filter) - b[k].SizeBytes()
			c.Pool.Put(b[k])
		}
		loop := c.Pool.Loop(2, body)
		loop.rehash()     // recomputes the body's hashes with it, harmlessly
		c.size += 16 + 24 // the new loop node's own overhead (see Node.SizeBytes)
		c.Seq = append(seq[:n-2*L], loop)
		return true
	}
	c.Compares += tested
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
