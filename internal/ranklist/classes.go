package ranklist

import (
	"encoding/binary"
	"slices"
)

// This file answers questions about rank lists clamped to the world
// [0, p) without expanding them: how many ranks a list holds there
// (SizeIn), where a list lands when every rank moves by the same offset
// around the ring (Shift), and which ranks the same lists cover
// (Classes). All three work piece by piece: a piece is a descriptor, or
// the part of one inside [0, p), whose rows do not interleave. Every
// descriptor a List holds is one piece, so it is at most three pieces
// inside [0, p) whatever its size.

// piece is k rows of n ranks each, the ranks of a row d apart and the
// rows s apart, from start: rows never interleave, (n-1)*d < s. A run
// of k ranks at stride s is k rows of one rank. Every count and stride
// is at least 1.
type piece struct {
	start, n, d, k, s int
}

// canon returns the piece in its simplest shape: a single row becomes
// a run (rows of one rank), and rows that touch become one run of
// stride 1.
func (x piece) canon() piece {
	if x.n == 1 {
		x.d = 1
	}
	if x.k == 1 && x.n > 1 {
		x = piece{start: x.start, n: 1, d: 1, k: x.n, s: x.d}
	}
	if x.d == 1 && x.n == x.s {
		x = piece{start: x.start, n: 1, d: 1, k: x.n * x.k, s: 1}
	}
	if x.k == 1 {
		x.s = 1
	}
	return x
}

// end is one past the piece's last rank.
func (x piece) end() int { return x.start + (x.k-1)*x.s + (x.n-1)*x.d + 1 }

// run is the piece as a descriptor under construction.
func (x piece) run() run {
	if x.n == 1 {
		return runOf(x.start, x.s, x.k)
	}
	return run{start: x.start, nd: 2, dims: [2]Dim{{Iters: x.n, Stride: x.d}, {Iters: x.k, Stride: x.s}}}
}

// piece returns the descriptor as one piece. Every descriptor a List
// holds is one (see List): at most two dimensions of at least two
// iterations at a positive stride, whose rows do not interleave.
func (r RL) piece() piece {
	x := piece{start: r.Start, n: 1, d: 1, k: 1, s: 1}
	switch len(r.Dims) {
	case 2:
		x.k, x.s = r.Dims[1].Iters, r.Dims[1].Stride
		fallthrough
	case 1:
		x.n, x.d = r.Dims[0].Iters, r.Dims[0].Stride
	}
	return x.canon()
}

// clamp calls fn for the parts of the piece inside [0, p), in rank
// order: the rows wholly inside as one piece, and the at most two rows
// that cross 0 or p cut to their ranks inside, each a run.
func (x piece) clamp(p int, fn func(piece)) {
	ext := (x.n - 1) * x.d
	first := max(0, ceilDiv(-x.start, x.s))            // the first row starting at 0 or later
	last := min(x.k-1, floorDiv(p-1-x.start-ext, x.s)) // the last row ending below p
	row := func(i int) {
		if i < 0 || i >= x.k {
			return
		}
		if start, n := clamp(x.start+i*x.s, x.d, x.n, p); n > 0 {
			fn(piece{start: start, n: 1, d: 1, k: n, s: x.d}.canon())
		}
	}
	row(first - 1)
	if first <= last {
		fn(piece{start: x.start + first*x.s, n: x.n, d: x.d, k: last - first + 1, s: x.s}.canon())
	}
	if last+1 != first-1 {
		row(last + 1)
	}
}

// clamp returns the part of the run of n ranks start, start+stride, ...
// (stride >= 1) inside [0, p), as its first rank and its rank count.
func clamp(start, stride, n, p int) (int, int) {
	if start >= p || start+(n-1)*stride < 0 {
		return start, 0
	}
	lo, hi := 0, n
	if start < 0 {
		lo = (-start + stride - 1) / stride
	}
	if last := start + (n-1)*stride; last >= p {
		hi = (p-1-start)/stride + 1
	}
	return start + lo*stride, hi - lo
}

// SizeIn returns the number of the list's ranks in [0, p). It costs a
// step per descriptor.
func (l List) SizeIn(p int) int {
	size := 0
	for _, r := range l.rls {
		r.piece().clamp(p, func(x piece) { size += x.n * x.k })
	}
	return size
}

// Shift returns the list of (r + off) mod p over the list's ranks r in
// [0, p): the ranks a relative end-point of offset off names, around
// the ring of p ranks. It moves the list piece by piece, cutting a
// piece the wrap crosses into the rows below p, the row across it and
// the rows past it, then joins and stacks them again in rank order.
func (l List) Shift(off, p int) List {
	off = ((off % p) + p) % p
	var runs []run
	add := func(x piece) { runs = append(runs, x.run()) }
	for _, r := range l.rls {
		r.piece().clamp(p, func(x piece) {
			if x.start += off; x.start >= p {
				x.start -= p
			}
			x.clamp(p, add) // the ranks still under p
			x.start -= p
			x.clamp(p, add) // the ranks the wrap takes to the front
		})
	}
	slices.SortFunc(runs, func(x, y run) int { return x.start - y.start })
	var b builder
	for _, r := range runs {
		b.add(r)
	}
	return b.list()
}

// runOf is the run of n ranks start, start+stride, ... (n >= 1).
func runOf(start, stride, n int) run {
	if n == 1 {
		return run{start: start}
	}
	return run{start: start, nd: 1, dims: [2]Dim{{Iters: n, Stride: stride}}}
}

// builder collects descriptors of at most two dimensions in order of
// their first rank, joining a run that continues the previous one and
// stacking runs of one shape that recur at a constant stride, as
// FromRanks does, so every descriptor it builds is one piece.
type builder struct {
	runs  []run
	ndims int
}

// add appends the descriptor x, whose first rank follows the first
// rank of every descriptor added before (the cutter's classes add runs
// in residue order, so a run may start inside an earlier run's span).
func (b *builder) add(x run) {
	if k := len(b.runs); k > 0 && x.nd < 2 {
		last := &b.runs[k-1]
		n, stride := 1, 0
		if x.nd == 1 {
			n, stride = x.dims[0].Iters, x.dims[0].Stride
		}
		shape := Dim{Iters: n, Stride: stride}
		switch {
		case last.nd == 0 && (n == 1 || x.start-last.start == stride):
			// A single rank and a run, or two single ranks, that step
			// evenly: one run.
			last.nd, last.dims[0] = 1, Dim{Iters: n + 1, Stride: x.start - last.start}
			b.ndims++
			return
		case last.nd == 1 && (n == 1 || stride == last.dims[0].Stride) &&
			x.start == last.start+last.dims[0].Iters*last.dims[0].Stride:
			last.dims[0].Iters += n
			return
		case last.nd == 1 && n > 1 && shape == last.dims[0] && x.start-last.start > (n-1)*stride:
			// Rows that do not interleave: one piece.
			last.nd, last.dims[1] = 2, Dim{Iters: 2, Stride: x.start - last.start}
			b.ndims++
			return
		case last.nd == 2 && n > 1 && shape == last.dims[0] &&
			x.start == last.start+last.dims[1].Iters*last.dims[1].Stride:
			last.dims[1].Iters++
			return
		}
	}
	b.runs = append(b.runs, x)
	b.ndims += x.nd
}

// list materializes the descriptors, in one []RL and one []Dim.
func (b *builder) list() List {
	if len(b.runs) == 0 {
		return List{}
	}
	rls := make([]RL, len(b.runs))
	put(rls, make([]Dim, b.ndims), b.runs)
	return List{rls: rls}
}

// put writes the runs into rls, each descriptor's Dims carved from dims
// and capped so an append to one cannot reach the next, and returns
// what is left of dims.
func put(rls []RL, dims []Dim, runs []run) []Dim {
	for k, d := range runs {
		rls[k] = RL{Start: d.start}
		if d.nd > 0 {
			rls[k].Dims = dims[:d.nd:d.nd]
			copy(rls[k].Dims, d.dims[:d.nd])
			dims = dims[d.nd:]
		}
	}
	return dims
}

// Class is one cell of the partition Classes cuts [0, p) into.
type Class struct {
	// Ranks holds the class's ranks as disjoint descriptors, in order of
	// their first rank.
	Ranks List
	// Size is the number of ranks in the class.
	Size int
	// Of holds the indices of the lists that cover the class's ranks, in
	// ascending order; it is empty for the ranks no list covers.
	Of []int
}

// Classes cuts [0, p) into classes: two ranks are in one class exactly
// when the same lists cover them, and the ranks no list covers form one
// class of their own. Classes come in order of their first rank.
//
// It never expands a list. It sweeps the lists' pieces, clamped to
// [0, p), in rank order: between two consecutive piece ends the pieces
// that cover part of the segment stay the same. A piece of stride 1
// covers all of it. The others repeat every T ranks, the least common
// multiple of their row strides (or the segment's length, if that is
// shorter), so the segment is cut by residue mod T, at the residues
// where a piece's rows begin and end (a row of stride 1 is one interval
// of residues, a strided row a residue per rank), into descriptors of
// stride T. Its cost is a step per piece and segment plus one per
// residue interval: a step per descriptor when the strided pieces of a
// segment share a row stride, as the lists of one process grid do. Lists
// of coprime strides that overlap make T the segment's length; then the
// cost, and the classes' own descriptors, grow with the ranks they
// cover, which the cut walks a bounded window of residues at a time.
func Classes(lists []List, p int) []Class {
	var c Cutter
	return c.Cut(lists, p)
}

// A Cutter cuts lists into classes as Classes does, and keeps its
// scratch for the next cut: the classes Cut returns, their Ranks and
// their Of, are valid until the next Cut.
type Cutter struct {
	items   []item
	cuts    []int
	active  []int // the items covering part of the current segment
	classes []cutClass
	index   map[string]int // a class's lists, encoded -> the class
	key     []byte

	base, cover, members []int // scratch of segment
	covered              []int // per list: the hits covering the current residue
	edges                []edge

	ofs  []int // every class's Of, one after the other
	out  []Class
	rls  []RL
	dims []Dim
}

// item is a piece of list list, inside [0, p).
type item struct {
	piece
	list int
}

// edge is where a hit of list list on a segment's residues begins
// (open) or ends.
type edge struct {
	at, list int
	open     bool
}

// windowHits is about the most hits a segment's cut holds at once: a
// segment needing more is cut a window of residues at a time.
const windowHits = 1 << 12

// Cut returns Classes(lists, p), in the Cutter's memory.
func (c *Cutter) Cut(lists []List, p int) []Class {
	if p <= 0 {
		return nil
	}
	c.items, c.active, c.classes, c.ofs = c.items[:0], c.active[:0], c.classes[:0], c.ofs[:0]
	clear(c.index)
	c.covered = slices.Grow(c.covered[:0], len(lists))[:len(lists)]
	clear(c.covered)
	for i, l := range lists {
		for _, r := range l.rls {
			r.piece().clamp(p, func(x piece) { c.items = append(c.items, item{x, i}) })
		}
	}
	slices.SortFunc(c.items, func(x, y item) int { return x.start - y.start })
	c.cuts = append(c.cuts[:0], 0, p)
	for _, x := range c.items {
		c.cuts = append(c.cuts, x.start, x.end())
	}
	slices.Sort(c.cuts)
	c.cuts = slices.Compact(c.cuts)

	next := 0 // the first item not yet active
	for k := 0; k+1 < len(c.cuts); k++ {
		lo, hi := c.cuts[k], c.cuts[k+1]
		live := c.active[:0]
		for _, a := range c.active {
			if c.items[a].end() > lo {
				live = append(live, a)
			}
		}
		for ; next < len(c.items) && c.items[next].start == lo; next++ {
			live = append(live, next)
		}
		c.active = live
		c.segment(lo, hi)
	}
	return c.classList()
}

// classList materializes the classes: their descriptors in one []RL and
// one []Dim.
func (c *Cutter) classList() []Class {
	nrl, ndims := 0, 0
	for i := range c.classes {
		nrl += len(c.classes[i].b.runs)
		ndims += c.classes[i].b.ndims
	}
	c.rls, c.dims = slices.Grow(c.rls[:0], nrl)[:nrl], slices.Grow(c.dims[:0], ndims)[:ndims]
	c.out = slices.Grow(c.out[:0], len(c.classes))[:len(c.classes)]
	rls, dims := c.rls, c.dims
	for i := range c.classes {
		cl := &c.classes[i]
		n := len(cl.b.runs)
		dims = put(rls, dims, cl.b.runs)
		c.out[i] = Class{Ranks: List{rls: rls[:n:n]}, Size: cl.size, Of: c.ofs[cl.of : cl.of+cl.nof : cl.of+cl.nof]}
		rls = rls[n:]
	}
	return c.out
}

// cutClass is a class under construction: its lists are
// ofs[of:of+nof].
type cutClass struct {
	of, nof int
	b       builder
	size    int
}

// segment cuts the ranks [lo, hi), which the active items cover part
// of.
func (c *Cutter) segment(lo, hi int) {
	c.base = c.base[:0]
	n, period, strided, hits := hi-lo, 1, false, 0.0
	for _, a := range c.active {
		x := &c.items[a]
		if x.s == 1 {
			c.base = append(c.base, x.list)
			continue
		}
		// The least common multiple, capped at n; l*x.s > n is checked
		// by division, which cannot overflow.
		strided = true
		if l := period / gcd(period, x.s); l > n/x.s {
			period = n
		} else {
			period = min(l*x.s, n)
		}
	}
	slices.Sort(c.base)
	c.base = slices.Compact(c.base)
	if !strided {
		c.emit(lo, n, 1, 0, 1, c.base)
		return
	}
	for _, a := range c.active {
		if x := &c.items[a]; x.s > 1 {
			rows := float64(period)/float64(x.s) + 2
			if x.d > 1 {
				rows *= float64(x.n)
			}
			hits += rows
		}
	}
	w := period
	if hits > windowHits {
		w = max(1, int(float64(period)*windowHits/hits))
	}
	for from := 0; from < period; from += w {
		c.window(lo, n, period, from, min(from+w, period))
	}
}

// window cuts the residues [from, to) mod period of the n-rank segment
// from lo: it collects where the strided items' rows begin and end
// there, then sweeps them in residue order.
func (c *Cutter) window(lo, n, period, from, to int) {
	c.edges = c.edges[:0]
	hit := func(x, y, list int) {
		c.edges = append(c.edges, edge{x, list, true}, edge{y, list, false})
	}
	for _, a := range c.active {
		x := &c.items[a]
		if x.s == 1 {
			continue
		}
		r0, ext := ((x.start-lo)%x.s+x.s)%x.s, (x.n-1)*x.d
		for row := r0 + ceilDiv(from-ext-r0, x.s)*x.s; row < to; row += x.s {
			if x.d == 1 {
				hit(max(row, from), min(row+x.n, to), x.list)
				continue
			}
			last := min(x.n-1, floorDiv(to-1-row, x.d))
			for j := max(0, ceilDiv(from-row, x.d)); j <= last; j++ {
				hit(row+j*x.d, row+j*x.d+1, x.list)
			}
		}
	}
	slices.SortFunc(c.edges, func(x, y edge) int { return x.at - y.at })
	at := from
	for i := 0; i < len(c.edges); {
		if e := c.edges[i].at; e > at {
			c.emit(lo, n, period, at, e, c.merged())
			at = e
		}
		for ; i < len(c.edges) && c.edges[i].at == at; i++ {
			e := c.edges[i]
			if e.open {
				if c.covered[e.list]++; c.covered[e.list] == 1 {
					k, _ := slices.BinarySearch(c.cover, e.list)
					c.cover = slices.Insert(c.cover, k, e.list)
				}
			} else if c.covered[e.list]--; c.covered[e.list] == 0 {
				k, _ := slices.BinarySearch(c.cover, e.list)
				c.cover = slices.Delete(c.cover, k, k+1)
			}
		}
	}
	if at < to {
		c.emit(lo, n, period, at, to, c.merged())
	}
}

// merged returns the lists covering the current residue: the segment's
// stride-1 lists and the strided ones hitting it, ascending.
func (c *Cutter) merged() []int {
	m, a, b := c.members[:0], c.base, c.cover
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			m, a = append(m, a[0]), a[1:]
		case b[0] < a[0]:
			m, b = append(m, b[0]), b[1:]
		default:
			m, a, b = append(m, a[0]), a[1:], b[1:]
		}
	}
	c.members = append(append(m, a...), b...)
	return c.members
}

// emit adds the ranks lo+res+j*period of the n-rank segment from lo,
// for every residue res in [from, to), to the class of the lists of.
func (c *Cutter) emit(lo, n, period, from, to int, of []int) {
	cl := c.class(of)
	// Residues below n%period occur once more than the others.
	q, rem := n/period, n%period
	for _, part := range [2][3]int{{from, min(to, rem), q + 1}, {max(from, rem), to, q}} {
		x, y, count := part[0], part[1], part[2]
		if x >= y || count == 0 {
			continue
		}
		cl.size += (y - x) * count
		switch {
		case count == 1:
			cl.b.add(runOf(lo+x, 1, y-x))
		case y-x == 1:
			cl.b.add(runOf(lo+x, period, count))
		default:
			cl.b.add(run{start: lo + x, nd: 2, dims: [2]Dim{{Iters: y - x, Stride: 1}, {Iters: count, Stride: period}}})
		}
	}
}

// class returns the class of the lists of, made the first time they
// are seen.
func (c *Cutter) class(of []int) *cutClass {
	c.key = c.key[:0]
	for _, j := range of {
		c.key = binary.AppendUvarint(c.key, uint64(j))
	}
	if i, ok := c.index[string(c.key)]; ok {
		return &c.classes[i]
	}
	if c.index == nil {
		c.index = map[string]int{}
	}
	i := len(c.classes)
	c.index[string(c.key)] = i
	if i < cap(c.classes) { // reuse the slot's runs
		c.classes = c.classes[:i+1]
		runs := c.classes[i].b.runs[:0]
		c.classes[i] = cutClass{b: builder{runs: runs}}
	} else {
		c.classes = append(c.classes, cutClass{})
	}
	c.classes[i].of, c.classes[i].nof = len(c.ofs), len(of)
	c.ofs = append(c.ofs, of...)
	return &c.classes[i]
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// floorDiv is a/b rounded down, for b > 0.
func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && a < 0 {
		q--
	}
	return q
}

// ceilDiv is a/b rounded up, for b > 0.
func ceilDiv(a, b int) int { return -floorDiv(-a, b) }
