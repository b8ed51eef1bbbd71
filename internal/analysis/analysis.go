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
	"chameleon/internal/ranklist"
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
	// Events is the rank-weighted dynamic event count: each live leaf's
	// occurrences (loops at MeanIters) times its ranks in [0, P), the
	// total zan and the replayer count.
	Events uint64
	// Windows breaks the stored nodes down per marker window (top-level
	// node).
	Windows []Window
}

// Window is one marker window's share of a Summary: its stored nodes
// and leaves, its events (rank-weighted, as Summary.Events), and the
// deepest loop nesting of its leaves.
type Window struct {
	Nodes, Leaves int
	Events        uint64
	Depth         int
}

// Summarize computes the Summary of a trace file.
func Summarize(f *trace.File) Summary {
	return walk(f).sum
}

// pass is the one walk over a trace every reader here starts from. It
// adds each live leaf (one not under a zero-trip loop) once to the row
// of its rank list, to its (list, site) count and, for a send, to its
// (list, destination) count, and counts the Summary on the way. A
// leaf's ranks are its list's ranks in [0, P), each counted once
// (ranklist.Table), so the pass costs the stored nodes and the distinct
// lists, never the ranks the lists name; the readers then cut [0, P)
// into the classes of ranks the same lists cover (ranklist.Classes).
type pass struct {
	lists  ranklist.Table
	rows   []listRow             // by list id
	sites  map[listKey]uint64    // by (list, site)
	dests  map[listKey][2]uint64 // messages and bytes, by (list, dest)
	stacks map[uint64]struct{}
	iters  []uint64 // per depth: the product of the enclosing loops' Iters
	sum    Summary
}

// listRow is what the live leaves of one list add to each of its ranks.
type listRow struct {
	events, sends, sendBytes, recvs, colls uint64
	compute                                int64 // delta means
}

// listKey is a list with a call site or a send end-point of its leaves.
type listKey struct {
	list int32
	site uint64
	dest trace.Endpoint
}

// walk runs the pass over f's decoded tree.
func walk(f *trace.File) *pass {
	w := &pass{sites: map[listKey]uint64{}, dests: map[listKey][2]uint64{},
		stacks: map[uint64]struct{}{}, iters: []uint64{1}}
	w.sum = Summary{P: f.P, OpCounts: map[string]uint64{}, Windows: make([]Window, len(f.Nodes))}
	trace.Accept(f.Nodes, w)
	w.sum.DistinctSites = len(w.stacks)
	w.sum.CompressionRatio = zan.Ratio(float64(w.sum.DynamicEvents), float64(w.sum.Leaves))
	return w
}

func (w *pass) EnterLoop(n *trace.Node, c trace.Cursor) bool {
	w.sum.Windows[c.Window].Nodes++
	w.sum.Nodes++
	w.sum.SizeBytes += n.HeadBytes()
	w.iters = append(w.iters[:c.Depth+1], w.iters[c.Depth]*n.Iters)
	return true
}

func (w *pass) LeaveLoop(*trace.Node, trace.Cursor) {}

func (w *pass) Leaf(n *trace.Node, c trace.Cursor) {
	s, win := &w.sum, &w.sum.Windows[c.Window]
	win.Nodes++
	win.Leaves++
	win.Depth = max(win.Depth, c.Depth)
	s.Nodes++
	s.Leaves++
	s.MaxLoopDepth = max(s.MaxLoopDepth, c.Depth)
	s.SizeBytes += n.HeadBytes()
	s.DynamicEvents += w.iters[c.Depth]
	w.stacks[uint64(n.Ev.Stack)] = struct{}{}
	if c.Mult == 0 { // zero-trip loop: structure only, no dynamic events
		return
	}
	s.OpCounts[n.Ev.Op.String()] += c.Mult
	id := w.lists.ID(n.Ranks, s.P)
	if id < 0 {
		return
	}
	occ := c.Mult * uint64(w.lists.Width[id])
	win.Events += occ
	s.Events += occ
	if int(id) == len(w.rows) { // the table numbers lists in order of first sight
		w.rows = append(w.rows, listRow{})
	}
	row, op, bytes := &w.rows[id], n.Ev.Op, c.Mult*uint64(n.Ev.Bytes)
	row.events += c.Mult
	if n.Delta != nil {
		row.compute += int64(c.Mult) * n.Delta.Mean()
	}
	if op == mpi.OpSend || op == mpi.OpIsend || op == mpi.OpSendrecv {
		row.sends += c.Mult
		row.sendBytes += bytes
		k := listKey{list: id, dest: n.Ev.Dest}
		w.dests[k] = [2]uint64{w.dests[k][0] + c.Mult, w.dests[k][1] + bytes}
	}
	if op == mpi.OpRecv || op == mpi.OpIrecv || op == mpi.OpSendrecv {
		row.recvs += c.Mult
	}
	if op.IsCollective() {
		row.colls += c.Mult
	}
	w.sites[listKey{list: id, site: uint64(n.Ev.Stack)}] += c.Mult
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
	w := walk(f)
	for _, c := range ranklist.Classes(w.lists.Lists, f.P) {
		var v Volume
		for _, j := range c.Of {
			row := &w.rows[j]
			v.SendEvents += row.sends
			v.SendBytes += row.sendBytes
			v.RecvEvents += row.recvs
			v.CollEvents += row.colls
		}
		c.Ranks.ForEach(func(r int) { v.Rank = r; out[r] = v })
	}
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

// Matrix reconstructs the communication matrix of a trace. It answers
// per rank pair, so it visits every rank of each distinct (list,
// destination) its sends take.
func Matrix(f *trace.File) *CommMatrix {
	m := &CommMatrix{P: f.P, Counts: map[int]map[int]uint64{}, Bytes: map[int]map[int]uint64{}}
	w := walk(f)
	for k, n := range w.dests {
		w.lists.Lists[k.list].ForEach(func(src int) {
			if src < 0 || src >= f.P {
				return
			}
			dst, ok := k.dest.ResolveMod(src, f.P)
			if !ok {
				m.Unresolved += n[0]
				return
			}
			m.add(src, dst, n[0], n[1])
		})
	}
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

// CompareWith diffs two trace files under explicit options. Each
// trace counts its ranks in its own [0, P). It cuts [0, max P) once
// into the classes of ranks the same lists of both traces, the
// tolerated ranks and each trace's [0, P) cover, so a per-rank count is
// one number per class, and only the ranks of a class that differs are
// visited.
func CompareWith(a, b *trace.File, opts CompareOpts) *Diff {
	wa, wb := walk(a), walk(b)
	na, nb := len(wa.lists.Lists), len(wb.lists.Lists)
	tolerated := na + nb // then a's world, then b's
	lists := slices.Concat(wa.lists.Lists, wb.lists.Lists,
		[]ranklist.List{ranklist.FromRanks(opts.TolerateRanks), world(a.P), world(b.P)})
	tolIn := make([]int, na+nb) // per list: its tolerated ranks in its trace's world
	d := &Diff{EventDeltas: map[int]int64{}, SiteCountDeltas: map[uint64]int64{}}
	for _, c := range ranklist.Classes(lists, max(a.P, b.P)) {
		tol := slices.Contains(c.Of, tolerated)
		inA, inB := slices.Contains(c.Of, tolerated+1), slices.Contains(c.Of, tolerated+2)
		var ea, eb uint64
		for _, j := range c.Of {
			switch {
			case j < na && inA:
				ea += wa.rows[j].events
			case j >= na && j < tolerated && inB:
				eb += wb.rows[j-na].events
			default:
				continue
			}
			if tol {
				tolIn[j] += c.Size
			}
		}
		if !tol && ea != eb {
			delta := int64(ea) - int64(eb)
			c.Ranks.ForEach(func(r int) { d.EventDeltas[r] = delta })
		}
	}
	// Per site, the live events of a and of b on the ranks that are not
	// tolerated: per list, its ranks in [0, P) less those of its
	// tolerated classes. Zero-trip loops and leaves covered solely by
	// tolerated ranks count nothing, so a zero count is a missing site.
	sites := map[uint64][2]uint64{}
	for side, w := range []*pass{wa, wb} {
		for k, mult := range w.sites {
			if n := w.lists.Width[k.list] - tolIn[side*na+int(k.list)]; n > 0 {
				c := sites[k.site]
				c[side] += mult * uint64(n)
				sites[k.site] = c
			}
		}
	}
	for s, n := range sites {
		switch {
		case n[1] == 0:
			d.MissingInB = append(d.MissingInB, s)
		case n[0] == 0:
			d.MissingInA = append(d.MissingInA, s)
		}
		if n[0] != n[1] {
			d.SiteCountDeltas[s] = int64(n[0]) - int64(n[1])
		}
	}
	slices.Sort(d.MissingInA)
	slices.Sort(d.MissingInB)
	return d
}

// world is the list of the ranks [0, p), in normal form.
func world(p int) ranklist.List {
	if p < 1 {
		return ranklist.List{}
	}
	l, _ := ranklist.Normalize([]ranklist.RL{ranklist.Range(0, p, 1)}, nil)
	return l
}

// CriticalPath estimates the trace's serial lower bound: the maximum
// over ranks of (compute deltas + per-event message latency), a cheap
// replay-free makespan estimate.
func CriticalPath(f *trace.File, alphaNs int64) int64 {
	w := walk(f)
	var worst int64
	for _, c := range ranklist.Classes(w.lists.Lists, f.P) {
		var t int64
		for _, j := range c.Of {
			t += int64(w.rows[j].events)*alphaNs + w.rows[j].compute
		}
		worst = max(worst, t)
	}
	return worst
}
