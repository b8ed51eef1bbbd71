package zan

// The pre-change refAnalyzer, kept verbatim as the oracle for the channel
// table in zan.go, but for returning its per-rank rows beside the Report
// (which now holds rank classes instead): a map of window-local channel counts cleared every
// window beside a whole-trace map of leftovers, each channel a fresh
// heap object per window. FuzzAnalyzeMatchesReference requires the two
// to produce the same Report on every generated trace whose tags are
// not MPI_ANY_TAG (the tag-wildcard rule changed those on purpose).
// A leaf's width is its ranks inside [0, P), as in zan.go; the list's
// whole size went unnoticed while generated lists lay inside [0, P).
// Only identifiers are renamed (ref prefix); the helpers it shares
// with zan.go (synchronizes, p2pSides, imbalance, Ratio, minU64,
// maxI64) are unchanged by the rewrite.

import (
	"errors"
	"fmt"

	"chameleon/internal/mpi"
	"chameleon/internal/stats"
	"chameleon/internal/trace"
	"chameleon/internal/vtime"
)

// refChKey identifies a directed point-to-point channel.
type refChKey struct {
	tag, src, dst int
}

// refChCount tallies one channel. Window-local instances hold the
// window's full counts; the whole-trace map holds only the leftovers
// that failed to pair inside their window, plus first-activity windows
// for the happens-before check.
type refChCount struct {
	sends, recvs uint64
	// first window that sent/received on the channel (-1 = never).
	firstSendWin, firstRecvWin int
}

type refTagCount struct {
	sends, recvs uint64
}

// refAnalyzer accumulates one walk. It implements trace.Visitor for the
// closed-form mode; the expansion oracle drives the same leaf method
// with weight 1 per dynamic occurrence.
type refAnalyzer struct {
	p     int
	model vtime.CostModel

	windows []Window
	ranks   []Rank

	// Per-window scratch, valid while leaves of window cur arrive (both
	// walk modes emit leaves in window order).
	cur         int
	scratchComp []int64                  // per-rank compute inside the current window
	scratchEv   []uint64                 // per-rank events inside the current window
	touched     []int                    // ranks touched in the current window
	winChans    map[refChKey]*refChCount // cleared, not remade, for each window
	winDelta    *stats.Histogram         // likewise reset

	// Whole-trace match state.
	chans map[refChKey]*refChCount
	tags  map[int]*refTagCount
	match MatchReport
}

// refAnalyze walks the trace once and returns its compressed-domain
// report. An empty trace yields an empty (but valid) report.
func refAnalyze(f *trace.File, opt Options) (*Report, []Rank, error) {
	if f == nil {
		return nil, nil, errors.New("zan: nil trace file")
	}
	if f.P <= 0 {
		return nil, nil, fmt.Errorf("zan: invalid rank count %d", f.P)
	}
	if (opt.Model == vtime.CostModel{}) {
		opt.Model = vtime.Default()
	}
	a := &refAnalyzer{
		p:           f.P,
		model:       opt.Model,
		windows:     make([]Window, len(f.Nodes)),
		ranks:       make([]Rank, f.P),
		scratchComp: make([]int64, f.P),
		scratchEv:   make([]uint64, f.P),
		winChans:    map[refChKey]*refChCount{},
		winDelta:    stats.NewHistogram(),
		chans:       map[refChKey]*refChCount{},
		tags:        map[int]*refTagCount{},
	}
	for r := range a.ranks {
		a.ranks[r].Rank = r
	}
	for i, n := range f.Nodes {
		a.windows[i] = Window{
			Index:  i,
			Nodes:  trace.NodeCount([]*trace.Node{n}),
			Leaves: trace.LeafCount([]*trace.Node{n}),
		}
	}

	a.cur = -1
	if opt.Expand {
		for i, n := range f.Nodes {
			a.startWindow(i)
			a.expand(n)
		}
	} else {
		trace.Accept(f.Nodes, a)
	}
	a.startWindow(-1) // flush the last window

	return a.report(f), a.ranks, nil
}

// --- walk plumbing ---

func (a *refAnalyzer) EnterLoop(n *trace.Node, c trace.Cursor) bool {
	a.startWindow(c.Window)
	return true
}

func (a *refAnalyzer) LeaveLoop(*trace.Node, trace.Cursor) {}

func (a *refAnalyzer) Leaf(n *trace.Node, c trace.Cursor) {
	a.startWindow(c.Window)
	a.leaf(n, c.Mult)
}

// expand is the reference walk: loops run MeanIters times, leaves apply
// with weight 1 per occurrence.
func (a *refAnalyzer) expand(n *trace.Node) {
	if !n.IsLoop() {
		a.leaf(n, 1)
		return
	}
	iters := n.MeanIters()
	for i := uint64(0); i < iters; i++ {
		for _, b := range n.Body {
			a.expand(b)
		}
	}
}

// startWindow finalizes the previous window's derived metrics when the
// walk crosses into window w (or past the end, w == -1).
func (a *refAnalyzer) startWindow(w int) {
	if w == a.cur {
		return
	}
	if a.cur >= 0 {
		a.flushWindow()
	}
	a.cur = w
	if w >= 0 {
		clear(a.winChans)
		a.winDelta.Reset()
	}
}

func (a *refAnalyzer) flushWindow() {
	win := &a.windows[a.cur]

	// Load imbalance and comm ratio over the ranks that participated.
	var maxComp, sumComp int64
	participants := 0
	for _, r := range a.touched {
		if a.scratchEv[r] == 0 {
			continue
		}
		participants++
		if a.scratchComp[r] > maxComp {
			maxComp = a.scratchComp[r]
		}
		sumComp += a.scratchComp[r]
		a.scratchEv[r] = 0
		a.scratchComp[r] = 0
	}
	a.touched = a.touched[:0]
	win.LoadImbalance = imbalance(maxComp, sumComp, participants)
	win.CommRatio = Ratio(float64(win.CommNs), float64(win.ComputeNs))

	// Pair up the window's directed channels; only the leftovers roll
	// into the whole-trace channel map, so every pair formed there
	// later is by construction a cross-window match.
	for k, c := range a.winChans {
		paired := minU64(c.sends, c.recvs)
		a.match.ResolvedPairs += paired
		win.LocalUnmatched += (c.sends - paired) + (c.recvs - paired)
		g := a.chans[k]
		if g == nil {
			g = &refChCount{firstSendWin: -1, firstRecvWin: -1}
			a.chans[k] = g
		}
		g.sends += c.sends - paired
		g.recvs += c.recvs - paired
		if c.sends > 0 && g.firstSendWin < 0 {
			g.firstSendWin = a.cur
		}
		if c.recvs > 0 && g.firstRecvWin < 0 {
			g.firstRecvWin = a.cur
		}
	}

	if a.winDelta.Count() > 0 {
		win.DeltaCount = a.winDelta.Count()
		win.DeltaMinNs = a.winDelta.Min
		win.DeltaMaxNs = a.winDelta.Max
		win.DeltaMeanNs = a.winDelta.FMean()
		win.DeltaStdNs = a.winDelta.Std()
	}
}

// --- leaf contribution (shared by both walk modes) ---

// leaf applies one stored leaf with the given iteration weight. Every
// accumulator is an integer sum, so applying (n, mult) once or (n, 1)
// mult times yields bit-identical results — the property the expansion
// oracle verifies.
func (a *refAnalyzer) leaf(n *trace.Node, mult uint64) {
	if mult == 0 {
		// A zero-trip loop body represents no dynamic events; skipping
		// it keeps the closed-form walk identical to the expansion
		// oracle, which never reaches these leaves.
		return
	}
	win := &a.windows[a.cur]
	ev := n.Ev
	size := 0 // its ranks inside [0, P), by expansion
	n.Ranks.ForEach(func(r int) {
		if r >= 0 && r < a.p {
			size++
		}
	})
	occ := mult * uint64(size)

	compPer := int64(0)
	waitPer := int64(0)
	if n.Delta != nil && n.Delta.Count() > 0 {
		compPer = maxI64(n.Delta.Mean(), 0)
		if synchronizes(ev.Op) {
			waitPer = maxI64(n.Delta.Max-n.Delta.Mean(), 0)
		}
		a.winDelta.MergeScaled(n.Delta, occ)
	}
	commPer := int64(a.commCost(ev, size))

	win.Events += occ
	win.ComputeNs += int64(mult) * compPer * int64(size)
	win.CommNs += int64(mult) * commPer * int64(size)
	win.WaitNs += int64(mult) * waitPer * int64(size)

	if win.Ops == nil {
		win.Ops = map[string]OpStat{}
	}
	st := win.Ops[ev.Op.String()]
	st.Events += occ
	st.Bytes += occ * uint64(ev.Bytes)
	win.Ops[ev.Op.String()] = st

	if win.ByteBuckets == nil {
		win.ByteBuckets = map[int]uint64{}
	}
	win.ByteBuckets[stats.BucketOf(int64(ev.Bytes))] += occ

	sends, recvs := p2pSides(ev.Op)
	n.Ranks.ForEach(func(r int) {
		if r < 0 || r >= a.p {
			return
		}
		rk := &a.ranks[r]
		rk.Events += mult
		rk.ComputeNs += int64(mult) * compPer
		rk.CommNs += int64(mult) * commPer
		rk.WaitNs += int64(mult) * waitPer
		if sends {
			rk.SendBytes += mult * uint64(ev.Bytes)
		}
		if a.scratchEv[r] == 0 && a.scratchComp[r] == 0 {
			a.touched = append(a.touched, r)
		}
		a.scratchEv[r] += mult
		a.scratchComp[r] += int64(mult) * compPer

		if sends {
			a.match.Sends += mult
			a.addTag(ev.Tag).sends += mult
			if dst, ok := ev.Dest.ResolveMod(r, a.p); ok {
				a.winChan(refChKey{tag: ev.Tag, src: r, dst: dst}).sends += mult
			}
		}
		if recvs {
			a.match.Recvs += mult
			a.addTag(ev.Tag).recvs += mult
			if src, ok := ev.Src.ResolveMod(r, a.p); ok {
				a.winChan(refChKey{tag: ev.Tag, src: src, dst: r}).recvs += mult
			} else {
				a.match.Wildcards += mult
			}
		}
	})
}

func (a *refAnalyzer) addTag(tag int) *refTagCount {
	t := a.tags[tag]
	if t == nil {
		t = &refTagCount{}
		a.tags[tag] = t
	}
	return t
}

func (a *refAnalyzer) winChan(k refChKey) *refChCount {
	c := a.winChans[k]
	if c == nil {
		c = &refChCount{firstSendWin: -1, firstRecvWin: -1}
		a.winChans[k] = c
	}
	return c
}

// commCost prices one occurrence of the event for one participating
// rank, in virtual nanoseconds: alpha-beta for point-to-point traffic,
// a log2(group)-depth tree for collectives over the leaf's rank list.
func (a *refAnalyzer) commCost(ev trace.Event, group int) vtime.Duration {
	m := a.model
	switch {
	case ev.Op == mpi.OpSend || ev.Op == mpi.OpIsend:
		return m.PtoP(ev.Bytes)
	case ev.Op == mpi.OpRecv || ev.Op == mpi.OpIrecv:
		return m.Alpha
	case ev.Op == mpi.OpSendrecv:
		return m.PtoP(ev.Bytes) + m.Alpha
	case ev.Op.IsCollective():
		levels := vtime.Duration(vtime.Log2Ceil(group))
		return levels * (m.PtoP(ev.Bytes) + m.CollectivePerLevel)
	}
	return 0
}

// synchronizes reports whether the operation's delta skew counts as
// wait-state time: collectives and blocking receive-side operations

func (a *refAnalyzer) report(f *trace.File) *Report {
	rep := &Report{
		P:            f.P,
		Benchmark:    f.Benchmark,
		Tracer:       f.Tracer,
		StoredNodes:  trace.NodeCount(f.Nodes),
		StoredLeaves: trace.LeafCount(f.Nodes),
		Windows:      a.windows,
	}
	for i := range a.windows {
		w := &a.windows[i]
		rep.Events += w.Events
		rep.ComputeNs += w.ComputeNs
		rep.CommNs += w.CommNs
		rep.WaitNs += w.WaitNs
	}
	rep.CompressionRatio = Ratio(float64(rep.Events), float64(rep.StoredNodes))
	rep.CommRatio = Ratio(float64(rep.CommNs), float64(rep.ComputeNs))

	var maxComp, sumComp int64
	participants := 0
	for i := range a.ranks {
		if a.ranks[i].Events == 0 {
			continue
		}
		participants++
		if a.ranks[i].ComputeNs > maxComp {
			maxComp = a.ranks[i].ComputeNs
		}
		sumComp += a.ranks[i].ComputeNs
	}
	rep.LoadImbalance = imbalance(maxComp, sumComp, participants)

	// Cross-window matching over the per-channel leftovers, and the
	// windowed happens-before check.
	m := a.match
	for _, c := range a.chans {
		// The per-window pairing already subtracted its matches before
		// rolling leftovers into this map, so every pair formed here is
		// by construction a cross-window match.
		m.CrossWindow += minU64(c.sends, c.recvs)
		if c.firstSendWin >= 0 && c.firstRecvWin >= 0 &&
			c.firstRecvWin < c.firstSendWin {
			m.OrderViolations++
		}
	}
	// m.ResolvedPairs so far counted window-local pairs only; the
	// cross-window pairs complete the directed total.
	m.ResolvedPairs += m.CrossWindow

	for tag, t := range a.tags {
		if t.sends != t.recvs {
			if m.UnmatchedByTag == nil {
				m.UnmatchedByTag = map[int]int64{}
			}
			d := int64(t.sends) - int64(t.recvs)
			m.UnmatchedByTag[tag] = d
			if d < 0 {
				d = -d
			}
			m.Unmatched += uint64(d)
		}
	}
	m.Consistent = m.Unmatched == 0
	rep.Match = m
	return rep
}
