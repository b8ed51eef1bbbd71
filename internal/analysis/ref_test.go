package analysis

import (
	"slices"

	"chameleon/internal/mpi"
	"chameleon/internal/trace"
	"chameleon/internal/zan"
)

// The readers as they were before they shared one pass over the
// distinct rank lists: each walks the tree on its own and expands every
// leaf's list rank by rank. They are the reference the production
// readers are checked against (FuzzReadersMatchReference). refSummarize
// also fills the rank-weighted events and the per-window table the way
// chamdump -stats counted them, and refTally counts each trace's ranks
// inside its own [0, P).

// refLeaves adapts a plain function to trace.Visitor.
type refLeaves func(*trace.Node, trace.Cursor)

func (f refLeaves) EnterLoop(*trace.Node, trace.Cursor) bool { return true }
func (f refLeaves) LeaveLoop(*trace.Node, trace.Cursor)      {}
func (f refLeaves) Leaf(n *trace.Node, c trace.Cursor)       { f(n, c) }

func refVisitLeaves(seq []*trace.Node, fn func(n *trace.Node, c trace.Cursor)) {
	trace.Accept(seq, refLeaves(fn))
}

func refCollectStacks(seq []*trace.Node, into map[uint64]struct{}) {
	for _, n := range seq {
		if n.IsLoop() {
			refCollectStacks(n.Body, into)
		} else {
			into[uint64(n.Ev.Stack)] = struct{}{}
		}
	}
}

func refEachLive(seq []*trace.Node, fn func(n *trace.Node, mult uint64)) {
	refVisitLeaves(seq, func(n *trace.Node, c trace.Cursor) {
		if c.Mult > 0 {
			fn(n, c.Mult)
		}
	})
}

func refSummarize(f *trace.File) Summary {
	s := Summary{
		P:             f.P,
		Nodes:         trace.NodeCount(f.Nodes),
		Leaves:        trace.LeafCount(f.Nodes),
		DynamicEvents: trace.DynamicEvents(f.Nodes),
		SizeBytes:     trace.SizeBytes(f.Nodes),
		OpCounts:      map[string]uint64{},
	}
	sites := map[uint64]struct{}{}
	refCollectStacks(f.Nodes, sites)
	s.DistinctSites = len(sites)
	refVisitLeaves(f.Nodes, func(n *trace.Node, c trace.Cursor) {
		s.MaxLoopDepth = max(s.MaxLoopDepth, c.Depth)
		if c.Mult > 0 {
			s.OpCounts[n.Ev.Op.String()] += c.Mult
		}
	})
	s.CompressionRatio = zan.Ratio(float64(s.DynamicEvents), float64(s.Leaves))

	// chamdump -stats' table.
	s.Windows = make([]Window, len(f.Nodes))
	refVisitLeaves(f.Nodes, func(n *trace.Node, c trace.Cursor) {
		occ := c.Mult * uint64(n.Ranks.SizeIn(f.P))
		s.Windows[c.Window].Events += occ
		s.Events += occ
		s.Windows[c.Window].Depth = max(s.Windows[c.Window].Depth, c.Depth)
	})
	for i := range f.Nodes {
		win := f.Nodes[i : i+1]
		s.Windows[i].Nodes, s.Windows[i].Leaves = trace.NodeCount(win), trace.LeafCount(win)
	}
	return s
}

func refVolumes(f *trace.File) []Volume {
	out := make([]Volume, f.P)
	for r := range out {
		out[r].Rank = r
	}
	refEachLive(f.Nodes, func(n *trace.Node, mult uint64) {
		for _, r := range n.Ranks.Ranks() {
			if r < 0 || r >= f.P {
				continue
			}
			v := &out[r]
			switch {
			case n.Ev.Op == mpi.OpSend || n.Ev.Op == mpi.OpIsend:
				v.SendEvents += mult
				v.SendBytes += mult * uint64(n.Ev.Bytes)
			case n.Ev.Op == mpi.OpRecv || n.Ev.Op == mpi.OpIrecv:
				v.RecvEvents += mult
			case n.Ev.Op == mpi.OpSendrecv:
				v.SendEvents += mult
				v.SendBytes += mult * uint64(n.Ev.Bytes)
				v.RecvEvents += mult
			case n.Ev.Op.IsCollective():
				v.CollEvents += mult
			}
		}
	})
	return out
}

func refMatrix(f *trace.File) *CommMatrix {
	m := &CommMatrix{P: f.P, Counts: map[int]map[int]uint64{}, Bytes: map[int]map[int]uint64{}}
	refEachLive(f.Nodes, func(n *trace.Node, mult uint64) {
		op := n.Ev.Op
		if op != mpi.OpSend && op != mpi.OpIsend && op != mpi.OpSendrecv {
			return
		}
		for _, src := range n.Ranks.Ranks() {
			if src < 0 || src >= f.P {
				continue
			}
			dst, ok := n.Ev.Dest.ResolveMod(src, f.P)
			if !ok {
				m.Unresolved += mult
				continue
			}
			m.add(src, dst, mult, mult*uint64(n.Ev.Bytes))
		}
	})
	return m
}

func refCompareWith(a, b *trace.File, opts CompareOpts) *Diff {
	tol := make(map[int]bool, len(opts.TolerateRanks))
	for _, r := range opts.TolerateRanks {
		tol[r] = true
	}
	d := &Diff{EventDeltas: map[int]int64{}, SiteCountDeltas: map[uint64]int64{}}
	ra, ca := refTally(a.Nodes, a.P, tol)
	rb, cb := refTally(b.Nodes, b.P, tol)
	for s, na := range ca {
		nb, ok := cb[s]
		if !ok {
			d.MissingInB = append(d.MissingInB, s)
		}
		if na != nb {
			d.SiteCountDeltas[s] = int64(na) - int64(nb)
		}
	}
	for s, nb := range cb {
		if _, ok := ca[s]; !ok {
			d.MissingInA = append(d.MissingInA, s)
			d.SiteCountDeltas[s] = -int64(nb)
		}
	}
	at := func(ranks []uint64, r int) uint64 {
		if r < len(ranks) {
			return ranks[r]
		}
		return 0
	}
	for r := 0; r < max(a.P, b.P); r++ {
		if !tol[r] && at(ra, r) != at(rb, r) {
			d.EventDeltas[r] = int64(at(ra, r)) - int64(at(rb, r))
		}
	}
	slices.Sort(d.MissingInA)
	slices.Sort(d.MissingInB)
	return d
}

// refTally returns the dynamic event count of every rank in [0, p) and,
// per call site, the events of those ranks that are not tolerated.
func refTally(seq []*trace.Node, p int, tol map[int]bool) (ranks []uint64, sites map[uint64]uint64) {
	ranks, sites = make([]uint64, p), map[uint64]uint64{}
	refEachLive(seq, func(n *trace.Node, mult uint64) {
		surviving := uint64(0)
		n.Ranks.ForEach(func(r int) {
			if r < 0 || r >= p {
				return
			}
			ranks[r] += mult
			if !tol[r] {
				surviving++
			}
		})
		if surviving > 0 {
			sites[uint64(n.Ev.Stack)] += mult * surviving
		}
	})
	return ranks, sites
}

func refCriticalPath(f *trace.File, alphaNs int64) int64 {
	totals := make([]int64, f.P)
	refEachLive(f.Nodes, func(n *trace.Node, mult uint64) {
		cost := alphaNs
		if n.Delta != nil {
			cost += n.Delta.Mean()
		}
		n.Ranks.ForEach(func(r int) {
			if r >= 0 && r < f.P {
				totals[r] += int64(mult) * cost
			}
		})
	})
	var worst int64
	for _, t := range totals {
		worst = max(worst, t)
	}
	return worst
}
