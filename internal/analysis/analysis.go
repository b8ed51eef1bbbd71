// Package analysis inspects and compares compressed trace files: summary
// statistics, per-rank communication volumes, a reconstructed
// point-to-point communication matrix, and structural comparison of two
// traces (the checks behind "Chameleon does not miss any MPI event").
package analysis

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"chameleon/internal/mpi"
	"chameleon/internal/trace"
	"chameleon/internal/zan"
)

// Summary is the headline statistics of one trace file.
type Summary struct {
	P             int
	Nodes         int
	Leaves        int
	DynamicEvents uint64
	DistinctSites int
	SizeBytes     int
	// MaxLoopDepth is the deepest PRSD nesting.
	MaxLoopDepth int
	// CompressionRatio is dynamic events per stored leaf (higher =
	// better loop compression).
	CompressionRatio float64
	// OpCounts tallies dynamic events per MPI operation.
	OpCounts map[string]uint64
}

// Summarize computes the Summary of a trace file.
func Summarize(f *trace.File) Summary {
	s := Summary{
		P:             f.P,
		Nodes:         trace.NodeCount(f.Nodes),
		Leaves:        trace.LeafCount(f.Nodes),
		DynamicEvents: trace.DynamicEvents(f.Nodes),
		SizeBytes:     trace.SizeBytes(f.Nodes),
		OpCounts:      map[string]uint64{},
	}
	sites := map[uint64]struct{}{}
	trace.CollectStacks(f.Nodes, sites)
	s.DistinctSites = len(sites)
	trace.VisitLeaves(f.Nodes, func(n *trace.Node, c trace.Cursor) {
		s.MaxLoopDepth = max(s.MaxLoopDepth, c.Depth)
		if c.Mult > 0 { // zero-trip loop: structure only, no dynamic events
			s.OpCounts[n.Ev.Op.String()] += c.Mult
		}
	})
	s.CompressionRatio = zan.Ratio(float64(s.DynamicEvents), float64(s.Leaves))
	return s
}

// eachLive calls fn once per stored leaf that occurs at all, with its
// dynamic occurrence count per covered rank (the product of the
// enclosing trip counts). Leaves under a zero-trip loop are skipped, so
// they contribute nothing — not even zero-valued map entries.
func eachLive(seq []*trace.Node, fn func(n *trace.Node, mult uint64)) {
	trace.VisitLeaves(seq, func(n *trace.Node, c trace.Cursor) {
		if c.Mult > 0 {
			fn(n, c.Mult)
		}
	})
}

// SortedKeys returns a map's keys in ascending order, the iteration
// order of every report here and in the tools.
func SortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// String renders the summary.
func (s Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "P=%d nodes=%d leaves=%d events=%d sites=%d size=%dB depth=%d ratio=%.1fx\n",
		s.P, s.Nodes, s.Leaves, s.DynamicEvents, s.DistinctSites, s.SizeBytes,
		s.MaxLoopDepth, s.CompressionRatio)
	for _, op := range SortedKeys(s.OpCounts) {
		fmt.Fprintf(&b, "  %-10s %d\n", op, s.OpCounts[op])
	}
	return b.String()
}

// Volume is one rank's communication totals.
type Volume struct {
	Rank       int
	SendEvents uint64
	SendBytes  uint64
	RecvEvents uint64
	CollEvents uint64
}

// Volumes reconstructs per-rank communication volumes from a trace.
func Volumes(f *trace.File) []Volume {
	out := make([]Volume, f.P)
	for r := range out {
		out[r].Rank = r
	}
	eachLive(f.Nodes, func(n *trace.Node, mult uint64) {
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

// CommMatrix reconstructs the point-to-point communication matrix
// (message counts keyed by [src][dst]) by resolving each send leaf's
// end-point for every covered rank in [0, P). Wildcard/reply encodings
// cannot be attributed to a single peer and are tallied under
// Unresolved.
type CommMatrix struct {
	P          int
	Counts     map[int]map[int]uint64
	Bytes      map[int]map[int]uint64
	Unresolved uint64
}

// Matrix reconstructs the communication matrix of a trace.
func Matrix(f *trace.File) *CommMatrix {
	m := &CommMatrix{P: f.P, Counts: map[int]map[int]uint64{}, Bytes: map[int]map[int]uint64{}}
	eachLive(f.Nodes, func(n *trace.Node, mult uint64) {
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

func (m *CommMatrix) add(src, dst int, count, bytes uint64) {
	if m.Counts[src] == nil {
		m.Counts[src] = map[int]uint64{}
		m.Bytes[src] = map[int]uint64{}
	}
	m.Counts[src][dst] += count
	m.Bytes[src][dst] += bytes
}

// TotalMessages sums the matrix.
func (m *CommMatrix) TotalMessages() uint64 {
	var total uint64
	for _, row := range m.Counts {
		for _, c := range row {
			total += c
		}
	}
	return total
}

// Diff compares two traces of the same run: call-site coverage and
// per-rank dynamic event counts. Empty results mean the traces are
// equivalent by these measures — the Chameleon-vs-ScalaTrace check.
type Diff struct {
	// MissingSites lists call sites present in A but not B (and vice
	// versa).
	MissingInB []uint64
	MissingInA []uint64
	// EventDeltas maps rank -> (eventsA - eventsB) for ranks that
	// disagree.
	EventDeltas map[int]int64
	// SiteCountDeltas maps call site -> (dynamic events in A - in B),
	// summed over all ranks, for sites whose counts disagree. This
	// catches traces that shift events between call sites while keeping
	// the site sets and per-rank totals identical.
	SiteCountDeltas map[uint64]int64
}

// Equivalent reports whether the diff is empty.
func (d *Diff) Equivalent() bool {
	return len(d.MissingInA) == 0 && len(d.MissingInB) == 0 &&
		len(d.EventDeltas) == 0 && len(d.SiteCountDeltas) == 0
}

// Reason summarizes the first divergence in one line ("" when
// equivalent), for tools that need a non-zero exit with a cause.
func (d *Diff) Reason() string {
	switch {
	case len(d.MissingInB) > 0:
		return fmt.Sprintf("%d call sites present only in the first trace", len(d.MissingInB))
	case len(d.MissingInA) > 0:
		return fmt.Sprintf("%d call sites present only in the second trace", len(d.MissingInA))
	case len(d.EventDeltas) > 0:
		r := SortedKeys(d.EventDeltas)[0]
		return fmt.Sprintf("%d ranks differ in dynamic event count (first: rank %d, %+d events)",
			len(d.EventDeltas), r, d.EventDeltas[r])
	case len(d.SiteCountDeltas) > 0:
		site := SortedKeys(d.SiteCountDeltas)[0]
		return fmt.Sprintf("%d call sites differ in dynamic event count (first: site %#x, %+d events)",
			len(d.SiteCountDeltas), site, d.SiteCountDeltas[site])
	}
	return ""
}

// CompareOpts tunes a trace comparison.
type CompareOpts struct {
	// TolerateRanks lists ranks whose contribution is excluded from both
	// sides of the diff — the retired (crashed) ranks, so a trace from a
	// faulted run can diff clean against a full fault-free baseline.
	TolerateRanks []int
}

// Compare diffs two trace files.
func Compare(a, b *trace.File) *Diff {
	return CompareWith(a, b, CompareOpts{})
}

// CompareWith diffs two trace files under explicit options.
func CompareWith(a, b *trace.File, opts CompareOpts) *Diff {
	tol := make(map[int]bool, len(opts.TolerateRanks))
	for _, r := range opts.TolerateRanks {
		tol[r] = true
	}
	d := &Diff{EventDeltas: map[int]int64{}, SiteCountDeltas: map[uint64]int64{}}
	p := max(a.P, b.P)
	ra, ca := tally(a.Nodes, p, tol)
	rb, cb := tally(b.Nodes, p, tol)
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
	for r := range ra {
		if !tol[r] && ra[r] != rb[r] {
			d.EventDeltas[r] = int64(ra[r]) - int64(rb[r])
		}
	}
	slices.Sort(d.MissingInA)
	slices.Sort(d.MissingInB)
	return d
}

// tally walks a trace once and returns the dynamic event count of every
// rank in [0, p) and, per call site, the events of those ranks that are
// not tolerated. A site is present only with a non-zero count: zero-trip
// loops and leaves covered solely by tolerated ranks leave no entry, so
// the map's key set doubles as the site-coverage set.
func tally(seq []*trace.Node, p int, tol map[int]bool) (ranks []uint64, sites map[uint64]uint64) {
	ranks, sites = make([]uint64, p), map[uint64]uint64{}
	eachLive(seq, func(n *trace.Node, mult uint64) {
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

// CriticalPath estimates the trace's serial lower bound: the maximum
// over ranks of (compute deltas + per-event message latency), a cheap
// replay-free makespan estimate.
func CriticalPath(f *trace.File, alphaNs int64) int64 {
	totals := make([]int64, f.P)
	eachLive(f.Nodes, func(n *trace.Node, mult uint64) {
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
