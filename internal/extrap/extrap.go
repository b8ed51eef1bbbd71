// Package extrap implements trace-based communication extrapolation in
// the spirit of ScalaExtrap (Wu & Mueller, PPoPP'11), the companion tool
// of the ScalaTrace/Chameleon ecosystem: given the compressed,
// location-independent global trace of an SPMD run at P ranks, rewrite
// it into the trace the same code would produce at a different rank
// count, without ever running at that scale.
//
// Three properties of the trace representation make this possible:
//
//   - rank lists are topological classes of a process grid (corners,
//     edges, interior, whole rows), which re-instantiate at any grid
//     size;
//   - end-points are relative ±c offsets whose only grid-dependent value
//     is the row stride (±cols), which rescales to the target grid;
//   - loop structure is scale-invariant for strong-scaled SPMD codes.
//
// Computation times extrapolate from multiple input traces by fitting
// delta ~ a + b/P per call site (strong scaling splits a fixed problem),
// mirroring ScalaExtrap's timing regression.
package extrap

import (
	"fmt"
	"sort"

	"chameleon/internal/ranklist"
	"chameleon/internal/stats"
	"chameleon/internal/trace"
)

// geometry is the inferred 2D process grid of a rank count.
type geometry struct {
	rows, cols int
}

func inferGeometry(p int) geometry {
	best := 1
	for f := 1; f*f <= p; f++ {
		if p%f == 0 {
			best = f
		}
	}
	return geometry{rows: best, cols: p / best}
}

// axisClass classifies a coordinate along one grid axis.
type axisClass int

const (
	classFirst axisClass = iota
	classMid
	classLast
)

func classify(x, n int) axisClass {
	switch {
	case x == 0:
		return classFirst
	case x == n-1:
		return classLast
	default:
		return classMid
	}
}

// axisMembers returns the coordinates of a class along an axis of size n.
func axisMembers(c axisClass, n int) []int {
	switch c {
	case classFirst:
		return []int{0}
	case classLast:
		return []int{n - 1}
	}
	out := make([]int, 0, n-2)
	for x := 1; x < n-1; x++ {
		out = append(out, x)
	}
	return out
}

// cellClass is a 2D topological class (row class x column class): the
// nine corner/edge/interior regions of a grid.
type cellClass struct {
	row, col axisClass
}

// classMembers expands a cell class on a grid.
func classMembers(c cellClass, g geometry) []int {
	var out []int
	for _, r := range axisMembers(c.row, g.rows) {
		for _, col := range axisMembers(c.col, g.cols) {
			out = append(out, r*g.cols+col)
		}
	}
	return out
}

// classesOf returns the set of cell classes a rank set covers and
// whether the set is exactly the union of those classes (class-complete).
func classesOf(ranks []int, g geometry) (map[cellClass]bool, bool) {
	classes := map[cellClass]bool{}
	for _, r := range ranks {
		classes[cellClass{classify(r/g.cols, g.rows), classify(r%g.cols, g.cols)}] = true
	}
	covered := 0
	for c := range classes {
		covered += len(classMembers(c, g))
	}
	return classes, covered == len(ranks)
}

// mapRank scales a single rank's grid position to the target geometry.
func mapRank(r int, src, dst geometry) int {
	row, col := r/src.cols, r%src.cols
	mapAxis := func(x, n, m int) int {
		switch classify(x, n) {
		case classFirst:
			return 0
		case classLast:
			return m - 1
		}
		if n <= 2 {
			return 0
		}
		// Proportional interior mapping.
		y := 1 + (x-1)*(m-2)/maxInt(1, n-2)
		if y > m-2 {
			y = m - 2
		}
		if y < 1 {
			y = minInt(1, m-1)
		}
		return y
	}
	return mapAxis(row, src.rows, dst.rows)*dst.cols + mapAxis(col, src.cols, dst.cols)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// mapRanks extrapolates a rank list: class-complete sets re-instantiate
// their classes on the target grid; other sets map member-wise.
func mapRanks(l ranklist.List, src, dst geometry, srcP, dstP int) ranklist.List {
	ranks := l.Ranks()
	if len(ranks) == srcP {
		all := make([]int, dstP)
		for i := range all {
			all[i] = i
		}
		return ranklist.FromRanks(all)
	}
	if classes, complete := classesOf(ranks, src); complete {
		var out []int
		for c := range classes {
			out = append(out, classMembers(c, dst)...)
		}
		sort.Ints(out)
		return ranklist.FromRanks(out)
	}
	out := make([]int, 0, len(ranks))
	for _, r := range ranks {
		out = append(out, mapRank(r, src, dst))
	}
	return ranklist.FromRanks(out)
}

// mapEndpoint rescales an end-point: the row stride ±cols becomes the
// target's ±cols'; unit and zero offsets are grid-invariant; absolute
// ranks map positionally.
func mapEndpoint(e trace.Endpoint, src, dst geometry) trace.Endpoint {
	switch e.Kind {
	case trace.EPRelative:
		switch {
		case e.Off == src.cols:
			return trace.Relative(dst.cols)
		case e.Off == -src.cols:
			return trace.Relative(-dst.cols)
		default:
			return e
		}
	case trace.EPAbsolute:
		return trace.Absolute(mapRank(e.Off, src, dst))
	}
	return e
}

// Extrapolate rewrites a global trace recorded at f.P ranks into the
// trace the same code would produce at targetP ranks. Loop structure and
// computation deltas are preserved; rank lists, end-points and
// (master/worker) round counts rescale with the process grid.
func Extrapolate(f *trace.File, targetP int) (*trace.File, error) {
	if f == nil || len(f.Nodes) == 0 {
		return nil, fmt.Errorf("extrap: empty trace")
	}
	if targetP <= 1 {
		return nil, fmt.Errorf("extrap: invalid target rank count %d", targetP)
	}
	src, dst := inferGeometry(f.P), inferGeometry(targetP)
	out := &trace.File{
		P:         targetP,
		Benchmark: f.Benchmark,
		Tracer:    f.Tracer + "+extrap",
		Clustered: f.Clustered,
		Filter:    f.Filter,
		Sites:     f.Sites,
		Nodes:     extrapolateSeq(f.Nodes, src, dst, f.P, targetP),
	}
	return out, nil
}

func extrapolateSeq(seq []*trace.Node, src, dst geometry, srcP, dstP int) []*trace.Node {
	out := make([]*trace.Node, 0, len(seq))
	for _, n := range seq {
		if n.IsLoop() {
			// A shallow copy: the body is rebuilt below, never cloned
			// first, so each node is copied once whatever its depth.
			c := *n
			c.Body = extrapolateSeq(n.Body, src, dst, srcP, dstP)
			if n.ItersHist != nil {
				c.ItersHist = n.ItersHist.Clone()
			}
			out = append(out, &c)
			continue
		}
		c := n.Clone()
		c.Ranks = mapRanks(n.Ranks, src, dst, srcP, dstP)
		c.Ev.Dest = mapEndpoint(c.Ev.Dest, src, dst)
		c.Ev.Src = mapEndpoint(c.Ev.Src, src, dst)
		out = append(out, c)
	}
	return out
}

// FitTiming refines an extrapolated trace's computation deltas from
// multiple source traces of the same code at different scales: for every
// call site present in all inputs, fit delta(P) = a + b/P (the strong
// scaling law: per-rank share of a fixed problem) and stamp the target's
// prediction. Inputs must be in ascending P order; the last one is the
// structural source.
func FitTiming(sources []*trace.File, target *trace.File) error {
	if len(sources) < 2 {
		return fmt.Errorf("extrap: timing fit needs >= 2 source traces, got %d", len(sources))
	}
	type sample struct{ invP, delta float64 }
	bySite := map[uint64][]sample{}
	for _, f := range sources {
		means := map[uint64]*stats.Welford{}
		collectDeltas(f.Nodes, means)
		for site, w := range means {
			bySite[site] = append(bySite[site], sample{invP: 1 / float64(f.P), delta: w.Mean()})
		}
	}
	fits := map[uint64][2]float64{} // site -> (a, b)
	for site, ss := range bySite {
		if len(ss) < 2 {
			continue
		}
		// Least squares on delta = a + b*invP.
		var sx, sy, sxx, sxy float64
		for _, s := range ss {
			sx += s.invP
			sy += s.delta
			sxx += s.invP * s.invP
			sxy += s.invP * s.delta
		}
		n := float64(len(ss))
		den := n*sxx - sx*sx
		if den == 0 {
			continue
		}
		b := (n*sxy - sx*sy) / den
		a := (sy - b*sx) / n
		fits[site] = [2]float64{a, b}
	}
	applyFits(target.Nodes, fits, float64(target.P))
	return nil
}

func collectDeltas(seq []*trace.Node, into map[uint64]*stats.Welford) {
	for _, n := range seq {
		if n.IsLoop() {
			collectDeltas(n.Body, into)
			continue
		}
		if n.Delta == nil || n.Delta.Count() == 0 {
			continue
		}
		w := into[uint64(n.Ev.Stack)]
		if w == nil {
			w = &stats.Welford{}
			into[uint64(n.Ev.Stack)] = w
		}
		w.Add(float64(n.Delta.Mean()))
	}
}

func applyFits(seq []*trace.Node, fits map[uint64][2]float64, p float64) {
	for _, n := range seq {
		if n.IsLoop() {
			applyFits(n.Body, fits, p)
			continue
		}
		fit, ok := fits[uint64(n.Ev.Stack)]
		if !ok || n.Delta == nil {
			continue
		}
		predicted := fit[0] + fit[1]/p
		if predicted < 0 {
			predicted = 0
		}
		h := stats.NewHistogram()
		h.Add(int64(predicted))
		n.Delta = h
	}
}
