// Package zan is the compressed-domain analysis engine: it computes
// per-window and per-rank performance metrics on a compressed RSD trace
// by walking the stored nodes exactly once, multiplying each leaf's
// per-iteration contribution by the product of its enclosing loop trip
// counts and aggregating across rank lists in closed form — it never
// expands a loop and never replays an event.
//
// Nor does it expand a rank list: each distinct list a leaf carries
// adds its per-rank values once, and the report holds one row per rank
// class — the ranks the same lists cover (ranklist.Classes) — never one
// per rank. Cost is therefore proportional to stored nodes, descriptors
// and windows times classes, independent of both the dynamic event
// count the loops represent and the rank count P, but for an absolute
// end-point, a channel per rank of its list, and overlapping lists of
// coprime strides, whose classes need a descriptor per residue
// (ranklist.Classes). The replay-based path
// in internal/replay, linear in dynamic events, serves as the
// cross-check oracle (see internal/analysis and docs/ANALYSIS.md).
//
// Metrics follow Haldar's time-resolved standard metrics, resolved to
// marker windows (the top-level segments of the global trace):
// compute/communication/wait time, load imbalance, communication-to-
// compute ratios, per-op event and byte tallies, log2 message-size
// histograms, and send/recv match-order (happens-before) consistency
// checks in the spirit of analyses on compressed traces (Kini, Mathur,
// Viswanathan).
package zan

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"chameleon/internal/mpi"
	"chameleon/internal/ranklist"
	"chameleon/internal/stats"
	"chameleon/internal/trace"
	"chameleon/internal/vtime"
)

// Options configures an analysis.
type Options struct {
	// Model prices communication (vtime.Default() when zero).
	Model vtime.CostModel
	// Expand switches the engine into its reference mode: loops are
	// expanded iteration by iteration and every leaf contribution is
	// applied with weight 1. The result is bit-identical to the
	// closed-form walk (the sums are the same integers added in the
	// same per-window order), at a cost linear in dynamic events — this
	// is the expansion oracle the equivalence tests diff against.
	Expand bool
}

// OpStat tallies one MPI operation inside a window.
type OpStat struct {
	// Events is the dynamic occurrence count across all covered ranks.
	Events uint64 `json:"events"`
	// Bytes is the total payload: occurrences x per-event byte count.
	Bytes uint64 `json:"bytes"`
}

// Window is the metric set of one marker window (top-level trace node).
type Window struct {
	Index int `json:"index"`
	// Nodes and Leaves count the stored (compressed) representation.
	Nodes  int `json:"nodes"`
	Leaves int `json:"leaves"`
	// Events is the dynamic event count the window represents, summed
	// across ranks.
	Events uint64 `json:"events"`
	// ComputeNs is the modeled computation time (delta-histogram means),
	// summed across ranks and iterations.
	ComputeNs int64 `json:"compute_ns"`
	// CommNs is the modeled communication cost under the cost model.
	CommNs int64 `json:"comm_ns"`
	// WaitNs is the modeled wait-state time: for synchronizing events
	// (collectives, receives) the skew between the slowest and the mean
	// arrival, max(0, delta.Max - delta.Mean), per occurrence.
	WaitNs int64 `json:"wait_ns"`
	// LoadImbalance is max/mean of per-rank compute time over the ranks
	// participating in the window (1.0 = perfectly balanced, 0 = no
	// compute recorded), taken over the report's rank classes.
	LoadImbalance float64 `json:"load_imbalance"`
	// CommRatio is CommNs/ComputeNs (0 when no compute was recorded).
	CommRatio float64 `json:"comm_ratio"`
	// Ops tallies events and bytes per operation.
	Ops map[string]OpStat `json:"ops,omitempty"`
	// ByteBuckets is a log2 histogram of per-event payload sizes,
	// weighted by dynamic occurrences (bucket index as in
	// stats.BucketOf; zero-payload events land in bucket 0).
	ByteBuckets map[int]uint64 `json:"byte_buckets,omitempty"`
	// LocalUnmatched counts send/recv occurrences on resolved channels
	// that found no partner inside this window (they may still match
	// across windows; see MatchReport.CrossWindow).
	LocalUnmatched uint64 `json:"local_unmatched,omitempty"`
	// Delta* summarize the distribution of per-event computation deltas
	// in the window, aggregated from the stored leaf histograms in O(1)
	// per leaf via stats.MergeScaled (count/min/max are exact; mean and
	// std are closed-form pooled moments).
	DeltaCount  uint64  `json:"delta_count,omitempty"`
	DeltaMinNs  int64   `json:"delta_min_ns,omitempty"`
	DeltaMaxNs  int64   `json:"delta_max_ns,omitempty"`
	DeltaMeanNs float64 `json:"delta_mean_ns,omitempty"`
	DeltaStdNs  float64 `json:"delta_std_ns,omitempty"`
}

// Rank is one rank's whole-trace totals (Report.Rank).
type Rank struct {
	Rank      int    `json:"rank"`
	Events    uint64 `json:"events"`
	ComputeNs int64  `json:"compute_ns"`
	CommNs    int64  `json:"comm_ns"`
	WaitNs    int64  `json:"wait_ns"`
	SendBytes uint64 `json:"send_bytes"`
}

// RankClass is one class of ranks: the ranks in [0, P) that the same
// distinct rank lists of the trace cover, and so carry the same
// whole-trace totals. Every field but Ranks and Size is one rank's
// value, not the class's sum.
type RankClass struct {
	// Ranks are the class's ranks, as descriptors in order of their
	// first rank (ranklist.Classes).
	Ranks     ranklist.List `json:"ranks"`
	Size      int           `json:"size"`
	Events    uint64        `json:"events"`
	ComputeNs int64         `json:"compute_ns"`
	CommNs    int64         `json:"comm_ns"`
	WaitNs    int64         `json:"wait_ns"`
	SendBytes uint64        `json:"send_bytes"`
}

// MatchReport is the send/recv match-order consistency verdict.
//
// Conservation: every tag's dynamic send count must equal its dynamic
// recv count (Sendrecv contributes to both sides); MPI_ANY_TAG receives
// belong to no tag and absorb the tags' send surpluses. Channels whose
// end-points resolve to concrete (src, dst) pairs are matched directed;
// wildcard (any-source or any-tag) and reply-encoded end-points are
// checked at tag granularity only. Matches that only close across
// window boundaries are counted in CrossWindow; under marker-aligned
// windows (Chameleon online traces flush at markers, which are global
// barriers) a directed channel whose first receive window precedes its
// first send window is a happens-before violation and is counted in
// OrderViolations.
type MatchReport struct {
	// Sends and Recvs are dynamic point-to-point occurrence totals.
	Sends uint64 `json:"sends"`
	Recvs uint64 `json:"recvs"`
	// Wildcards counts recv occurrences with any-source/reply encodings
	// or MPI_ANY_TAG (matched at tag granularity).
	Wildcards uint64 `json:"wildcards,omitempty"`
	// ResolvedPairs counts directed-channel matches.
	ResolvedPairs uint64 `json:"resolved_pairs"`
	// CrossWindow counts directed matches that close only across window
	// boundaries.
	CrossWindow uint64 `json:"cross_window,omitempty"`
	// OrderViolations counts directed channels whose first receive
	// window precedes their first send window.
	OrderViolations uint64 `json:"order_violations,omitempty"`
	// UnmatchedByTag maps tag -> (sends - recvs) for tags that do not
	// conserve, after MPI_ANY_TAG receives absorbed what they could; any
	// left over read under mpi.AnyTag.
	UnmatchedByTag map[int]int64 `json:"unmatched_by_tag,omitempty"`
	// Unmatched is the total absolute conservation defect.
	Unmatched uint64 `json:"unmatched"`
	// Consistent reports Unmatched == 0.
	Consistent bool `json:"consistent"`
}

// Report is the full compressed-domain analysis of one trace.
type Report struct {
	P         int    `json:"p"`
	Benchmark string `json:"benchmark,omitempty"`
	Tracer    string `json:"tracer,omitempty"`
	// StoredNodes/StoredLeaves describe the compressed representation
	// the walk actually touched.
	StoredNodes  int `json:"stored_nodes"`
	StoredLeaves int `json:"stored_leaves"`
	// Events is the dynamic event total across ranks; it equals the
	// event count a full replay re-issues.
	Events uint64 `json:"events"`
	// CompressionRatio is dynamic events represented per stored node.
	CompressionRatio float64 `json:"compression_ratio"`
	// Whole-trace totals (sums of the window columns).
	ComputeNs int64 `json:"compute_ns"`
	CommNs    int64 `json:"comm_ns"`
	WaitNs    int64 `json:"wait_ns"`
	// LoadImbalance is max/mean per-rank compute over participating
	// ranks; CommRatio is CommNs/ComputeNs. Both 0 when undefined.
	LoadImbalance float64 `json:"load_imbalance"`
	CommRatio     float64 `json:"comm_ratio"`

	Windows []Window `json:"windows"`
	// RankClasses partition [0, P), in order of their first rank: the
	// per-rank totals, one row per class (Rank reads one rank's). The
	// ranks no rank list covers form one all-zero class.
	RankClasses []RankClass `json:"rank_classes"`
	Match       MatchReport `json:"match"`
}

// Rank returns rank r's whole-trace totals, read from its class (zero
// for a rank outside [0, P)).
func (r *Report) Rank(rank int) Rank {
	for i := range r.RankClasses {
		if c := &r.RankClasses[i]; rank >= 0 && rank < r.P && c.Ranks.Contains(rank) {
			return Rank{Rank: rank, Events: c.Events, ComputeNs: c.ComputeNs, CommNs: c.CommNs,
				WaitNs: c.WaitNs, SendBytes: c.SendBytes}
		}
	}
	return Rank{Rank: rank}
}

// Directed channels (tag, src -> dst) are kept by key (tag, offset),
// the offset being dst - src mod P: a relative end-point names one key
// for every rank of its list. Each key holds the lists of source ranks
// that reached it (a relative send its own list, a relative receive its
// list shifted by the source offset, an absolute end-point one rank per
// channel) and every window's per-rank send and receive counts for each
// list. report cuts a key's sources into classes (ranklist.Classes):
// the ranks of a class saw the same counts in every window, so one row
// pairs for all of them.

type chanKey struct {
	tag, off int
}

// chanAdd is the per-rank count of sends (or receives) one source list
// of a key added in one window. A key's adds are linked in walk order.
type chanAdd struct {
	win, src, next int32 // src is a list id; next is the key's next add (-1: none)
	recv           bool
	n              uint64
}

// addChunk is the number of adds one chunk of analyzer.adds holds: the
// table grows a chunk at a time, so no add is ever copied.
const addChunk = 64

// chanClass is the state of one class of a key's source ranks: the
// counts of window win, and what failed to pair before it.
type chanClass struct {
	win                        int32
	firstSendWin, firstRecvWin int32 // -1 = never
	sends, recvs               uint64
	leftS, leftR               uint64
}

type tagCount struct {
	sends, recvs uint64
}

// listRow is the per-rank whole-trace totals the leaves of list id add
// (Rank.Rank unused), and the window it last added to.
type listRow struct {
	Rank
	id        int32
	win, slot int32 // the window of its last winRow, and that row's index
}

// winRow is one rank's events and compute in one window, from the leaves
// of one list (an analyzer.rows index).
type winRow struct {
	win, row int32
	events   uint64
	comp     int64
}

// analyzer accumulates one walk. It implements trace.HeaderVisitor for
// the closed-form mode, over a decoded tree (Accept) or straight over
// its encoding (Walk); the expansion oracle drives the same leaf method
// with weight 1 per dynamic occurrence.
type analyzer struct {
	p                 int
	benchmark, tracer string
	model             vtime.CostModel

	windows []Window

	// cur is the window leaves arrive in (both walk modes emit leaves in
	// window order); winDelta is reset for each window.
	cur      int
	winDelta *stats.Histogram

	// lists are the distinct rank lists seen; rows holds the per-rank
	// totals of those a leaf carried, in order of first sight, and
	// winRows their per-window rows, in window order.
	lists   ranklist.Table
	rows    []listRow
	winRows []winRow

	// Match state: the channel keys, each with its first and latest add
	// (-1: none), and the adds; and the per-tag tallies.
	keys  map[chanKey]int32
	ends  [][2]int32
	adds  []*[addChunk]chanAdd
	nadds int32
	tags  map[int]*tagCount
	// anyTagRecvs counts MPI_ANY_TAG receives, which match at no tag.
	anyTagRecvs uint64
	match       MatchReport
}

// Analyze walks the trace once and returns its compressed-domain
// report. An empty trace yields an empty (but valid) report.
func Analyze(f *trace.File, opt Options) (*Report, error) {
	if f == nil {
		return nil, errors.New("zan: nil trace file")
	}
	if f.P <= 0 {
		return nil, fmt.Errorf("zan: invalid rank count %d", f.P)
	}
	a := newAnalyzer(opt)
	a.Header(trace.Header{P: f.P, Benchmark: f.Benchmark, Tracer: f.Tracer, Windows: len(f.Nodes)})
	if opt.Expand {
		for i, n := range f.Nodes {
			a.windows[i].Nodes = trace.NodeCount([]*trace.Node{n})
			a.windows[i].Leaves = trace.LeafCount([]*trace.Node{n})
			a.startWindow(i)
			a.expand(n)
		}
	} else {
		trace.Accept(f.Nodes, a)
	}
	return a.report(), nil
}

// AnalyzeBytes is Analyze of the trace DecodeBinary(b) would return,
// computed in one walk over b (trace.Walk) without building the tree:
// the report is the same, field for field. The expansion mode needs the
// tree, so with opt.Expand set b is decoded first.
func AnalyzeBytes(b []byte, opt Options) (*Report, error) {
	if opt.Expand {
		f, err := trace.DecodeBinary(b)
		if err != nil {
			return nil, err
		}
		return Analyze(f, opt)
	}
	a := newAnalyzer(opt)
	if err := trace.Walk(b, a); err != nil {
		return nil, err
	}
	return a.report(), nil
}

func newAnalyzer(opt Options) *analyzer {
	if (opt.Model == vtime.CostModel{}) {
		opt.Model = vtime.Default()
	}
	return &analyzer{model: opt.Model, cur: -1, winDelta: stats.NewHistogram(),
		keys: map[chanKey]int32{}, tags: map[int]*tagCount{}}
}

// --- walk plumbing ---

// Header sizes the windows: the walk hands it the rank count and
// top-level node count before the first node.
func (a *analyzer) Header(h trace.Header) {
	a.p, a.benchmark, a.tracer = h.P, h.Benchmark, h.Tracer
	a.windows = make([]Window, h.Windows)
	for i := range a.windows {
		a.windows[i].Index = i
	}
}

func (a *analyzer) EnterLoop(n *trace.Node, c trace.Cursor) bool {
	a.startWindow(c.Window)
	a.windows[c.Window].Nodes++
	return true
}

func (a *analyzer) LeaveLoop(*trace.Node, trace.Cursor) {}

func (a *analyzer) Leaf(n *trace.Node, c trace.Cursor) {
	a.startWindow(c.Window)
	a.windows[c.Window].Nodes++
	a.windows[c.Window].Leaves++
	a.leaf(n, c.Mult)
}

// expand is the reference walk: loops run MeanIters times, leaves apply
// with weight 1 per occurrence.
func (a *analyzer) expand(n *trace.Node) {
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
func (a *analyzer) startWindow(w int) {
	if w == a.cur {
		return
	}
	if a.cur >= 0 {
		a.flushWindow()
	}
	a.cur = w
	if w >= 0 {
		a.winDelta.Reset()
	}
}

func (a *analyzer) flushWindow() {
	win := &a.windows[a.cur]
	// LoadImbalance and LocalUnmatched need the rank classes, which
	// report cuts once the walk is over.
	win.CommRatio = Ratio(float64(win.CommNs), float64(win.ComputeNs))
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
// oracle verifies. A leaf's width is the count of its ranks in [0, P),
// and its per-rank values are added once, to its list's row.
func (a *analyzer) leaf(n *trace.Node, mult uint64) {
	if mult == 0 {
		// A zero-trip loop body represents no dynamic events; skipping
		// it keeps the closed-form walk identical to the expansion
		// oracle, which never reaches these leaves.
		return
	}
	win := &a.windows[a.cur]
	ev := n.Ev
	id := a.lists.ID(n.Ranks, a.p)
	width := 0
	if id >= 0 {
		width = a.lists.Width[id]
	}
	occ := mult * uint64(width)

	compPer := int64(0)
	waitPer := int64(0)
	if n.Delta != nil && n.Delta.Count() > 0 {
		compPer = maxI64(n.Delta.Mean(), 0)
		if synchronizes(ev.Op) {
			waitPer = maxI64(n.Delta.Max-n.Delta.Mean(), 0)
		}
		a.winDelta.MergeScaled(n.Delta, occ)
	}
	commPer := int64(a.commCost(ev, width))

	win.Events += occ
	win.ComputeNs += int64(mult) * compPer * int64(width)
	win.CommNs += int64(mult) * commPer * int64(width)
	win.WaitNs += int64(mult) * waitPer * int64(width)

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
	_, dstOK := ev.Dest.ResolveMod(0, a.p)
	_, srcOK := ev.Src.ResolveMod(0, a.p)
	directedRecv := recvs && srcOK && ev.Tag != mpi.AnyTag
	if sends {
		a.match.Sends += occ
		a.addTag(ev.Tag).sends += occ
	}
	if recvs {
		a.match.Recvs += occ
		if ev.Tag == mpi.AnyTag {
			a.anyTagRecvs += occ
		} else {
			a.addTag(ev.Tag).recvs += occ
		}
		if !directedRecv {
			a.match.Wildcards += occ
		}
	}
	if width == 0 {
		return
	}

	row := a.listRow(id)
	row.Events += mult
	row.ComputeNs += int64(mult) * compPer
	row.CommNs += int64(mult) * commPer
	row.WaitNs += int64(mult) * waitPer
	if sends {
		row.SendBytes += mult * uint64(ev.Bytes)
	}
	if row.win != int32(a.cur) {
		row.win, row.slot = int32(a.cur), int32(len(a.winRows))
		a.winRows = append(a.winRows, winRow{win: int32(a.cur), row: a.lists.Row[id]})
	}
	wr := &a.winRows[row.slot]
	wr.events += mult
	wr.comp += int64(mult) * compPer

	if sends && dstOK {
		a.endpoint(ev.Tag, ev.Dest, id, mult, true)
	}
	if directedRecv {
		a.endpoint(ev.Tag, ev.Src, id, mult, false)
	}
}

// listRow returns list id's row, made on first sight.
func (a *analyzer) listRow(id int32) *listRow {
	i := a.lists.Row[id]
	if i < 0 {
		i = int32(len(a.rows))
		a.lists.Row[id] = i
		a.rows = append(a.rows, listRow{id: id, win: -1})
	}
	return &a.rows[i]
}

// endpoint adds mult sends (send) or receives per rank of list id on
// the channels its end-point e names.
func (a *analyzer) endpoint(tag int, e trace.Endpoint, id int32, mult uint64, send bool) {
	if e.Kind == trace.EPRelative {
		off := mod(e.Off, a.p)
		if send {
			a.addChan(chanKey{tag, off}, id, mult, false)
			return
		}
		// The sources are the receivers moved by the offset, and the
		// channel's offset is the way back.
		a.addChan(chanKey{tag, mod(-off, a.p)}, a.lists.Shift(id, off, a.p), mult, true)
		return
	}
	// An absolute end-point names a channel of its own for each rank of
	// the list.
	peer, _ := e.ResolveMod(0, a.p)
	a.lists.Lists[id].ForEach(func(r int) {
		if r < 0 || r >= a.p {
			return
		}
		if send {
			a.addChan(chanKey{tag, mod(peer-r, a.p)}, a.lists.Single(r, a.p), mult, false)
		} else {
			a.addChan(chanKey{tag, mod(r-peer, a.p)}, a.lists.Single(peer, a.p), mult, true)
		}
	})
}

// addChan adds n sends (or receives) per rank of source list src to key
// k in the current window.
func (a *analyzer) addChan(k chanKey, src int32, n uint64, recv bool) {
	key, ok := a.keys[k]
	if !ok {
		key = int32(len(a.ends))
		a.keys[k] = key
		a.ends = append(a.ends, [2]int32{-1, -1})
	}
	e := &a.ends[key]
	if e[1] >= 0 {
		if last := a.add(e[1]); last.win == int32(a.cur) && last.src == src && last.recv == recv {
			last.n += n
			return
		}
	}
	i := a.nadds
	if i%addChunk == 0 {
		a.adds = append(a.adds, new([addChunk]chanAdd))
	}
	a.nadds++
	*a.add(i) = chanAdd{win: int32(a.cur), src: src, next: -1, recv: recv, n: n}
	if e[1] >= 0 {
		a.add(e[1]).next = i
	} else {
		e[0] = i
	}
	e[1] = i
}

// add returns entry i of the add table.
func (a *analyzer) add(i int32) *chanAdd {
	return &a.adds[i/addChunk][i%addChunk]
}

func (a *analyzer) addTag(tag int) *tagCount {
	t := a.tags[tag]
	if t == nil {
		t = &tagCount{}
		a.tags[tag] = t
	}
	return t
}

func mod(x, p int) int { return ((x % p) + p) % p }

// commCost prices one occurrence of the event for one participating
// rank, in virtual nanoseconds: alpha-beta for point-to-point traffic,
// a log2(group)-depth tree for collectives over the leaf's rank list.
func (a *analyzer) commCost(ev trace.Event, group int) vtime.Duration {
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
// wait for remote progress, sends and local ops do not.
func synchronizes(op mpi.OpCode) bool {
	switch op {
	case mpi.OpRecv, mpi.OpIrecv, mpi.OpWait, mpi.OpSendrecv:
		return true
	}
	return op.IsCollective()
}

// p2pSides reports which point-to-point sides the op contributes to.
func p2pSides(op mpi.OpCode) (sends, recvs bool) {
	switch op {
	case mpi.OpSend, mpi.OpIsend:
		return true, false
	case mpi.OpRecv, mpi.OpIrecv:
		return false, true
	case mpi.OpSendrecv:
		return true, true
	}
	return false, false
}

// --- finalization ---

func (a *analyzer) report() *Report {
	a.startWindow(-1) // flush the last window
	rep := &Report{
		P:         a.p,
		Benchmark: a.benchmark,
		Tracer:    a.tracer,
		Windows:   a.windows,
	}
	for i := range a.windows {
		w := &a.windows[i]
		rep.StoredNodes += w.Nodes
		rep.StoredLeaves += w.Leaves
		rep.Events += w.Events
		rep.ComputeNs += w.ComputeNs
		rep.CommNs += w.CommNs
		rep.WaitNs += w.WaitNs
	}
	rep.CompressionRatio = Ratio(float64(rep.Events), float64(rep.StoredNodes))
	rep.CommRatio = Ratio(float64(rep.CommNs), float64(rep.ComputeNs))

	a.rankClasses(rep)
	m := a.match
	a.pairChannels(&m)

	// Tag conservation. MPI_ANY_TAG receives belong to no tag: they
	// absorb the tags' positive send surpluses, in ascending tag order,
	// and what they cannot absorb is reported under AnyTag.
	tags := make([]int, 0, len(a.tags))
	for tag := range a.tags {
		tags = append(tags, tag)
	}
	slices.Sort(tags)
	free := a.anyTagRecvs
	for _, tag := range tags {
		t := a.tags[tag]
		d := int64(t.sends) - int64(t.recvs)
		if d > 0 && free > 0 {
			take := min(uint64(d), free)
			d -= int64(take)
			free -= take
		}
		m.addUnmatched(tag, d)
	}
	m.addUnmatched(mpi.AnyTag, -int64(free))
	m.Consistent = m.Unmatched == 0
	rep.Match = m
	return rep
}

// rankClasses cuts [0, P) into the classes of the leaves' lists, fills
// each class's row, and takes the load imbalance of the trace and of
// each window over the classes.
func (a *analyzer) rankClasses(rep *Report) {
	lists := make([]ranklist.List, len(a.rows))
	for i := range a.rows {
		lists[i] = a.lists.Lists[a.rows[i].id]
	}
	classes := ranklist.Classes(lists, a.p)
	rep.RankClasses = make([]RankClass, len(classes))
	var in classIndex
	var maxComp, sumComp int64
	participants := 0
	for c, cl := range classes {
		rc := &rep.RankClasses[c]
		rc.Ranks, rc.Size = cl.Ranks, cl.Size
		for _, j := range cl.Of {
			row := &a.rows[j]
			rc.Events += row.Events
			rc.ComputeNs += row.ComputeNs
			rc.CommNs += row.CommNs
			rc.WaitNs += row.WaitNs
			rc.SendBytes += row.SendBytes
		}
		if rc.Events > 0 {
			participants += rc.Size
			maxComp = max(maxComp, rc.ComputeNs)
			sumComp += int64(rc.Size) * rc.ComputeNs
		}
	}
	rep.LoadImbalance = imbalance(maxComp, sumComp, participants)

	// Each window's imbalance over the classes its lists reach: every
	// rank of a list with a row in the window took part in it.
	in.build(classes, len(lists))
	ev := make([]uint64, len(classes))
	comp := make([]int64, len(classes))
	var touched []int32
	for i := 0; i < len(a.winRows); {
		w := a.winRows[i].win
		for ; i < len(a.winRows) && a.winRows[i].win == w; i++ {
			wr := &a.winRows[i]
			for _, c := range in.of(int(wr.row)) {
				if ev[c] == 0 {
					touched = append(touched, c)
				}
				ev[c] += wr.events
				comp[c] += wr.comp
			}
		}
		var maxComp, sumComp int64
		participants := 0
		for _, c := range touched {
			participants += classes[c].Size
			maxComp = max(maxComp, comp[c])
			sumComp += int64(classes[c].Size) * comp[c]
			ev[c], comp[c] = 0, 0
		}
		touched = touched[:0]
		a.windows[w].LoadImbalance = imbalance(maxComp, sumComp, participants)
	}
}

// classIndex lists, for each input list of a cut, the classes it covers.
type classIndex struct {
	from []int32 // list j's classes are at[from[j]:from[j+1]]
	at   []int32
}

func (x *classIndex) build(classes []ranklist.Class, lists int) {
	x.from = slices.Grow(x.from[:0], lists+1)[:lists+1]
	clear(x.from)
	for _, cl := range classes {
		for _, j := range cl.Of {
			x.from[j]++
		}
	}
	for j := 1; j <= lists; j++ {
		x.from[j] += x.from[j-1] // the end of list j's classes
	}
	x.at = slices.Grow(x.at[:0], int(x.from[lists]))[:x.from[lists]]
	// Filled from the back, each list's classes come out ascending and
	// from[j] ends at their start.
	for c := len(classes) - 1; c >= 0; c-- {
		for _, j := range classes[c].Of {
			x.from[j]--
			x.at[x.from[j]] = int32(c)
		}
	}
}

func (x *classIndex) of(j int) []int32 { return x.at[x.from[j]:x.from[j+1]] }

// pairChannels pairs each key's sends and receives, class by class of
// its source ranks: within each window first, then what is left over
// across windows, and checks each channel's first send against its
// first receive.
func (a *analyzer) pairChannels(m *MatchReport) {
	var (
		cut     ranklist.Cutter
		in      classIndex
		srcs    []int32
		lists   []ranklist.List
		state   []chanClass
		touched []int32
	)
	for _, e := range a.ends {
		// The key's distinct sources; each add's src becomes its index
		// among them.
		srcs = srcs[:0]
		for i := e[0]; i >= 0; {
			ad := a.add(i)
			j := slices.Index(srcs, ad.src)
			if j < 0 {
				j = len(srcs)
				srcs = append(srcs, ad.src)
			}
			ad.src, i = int32(j), ad.next
		}
		lists = lists[:0]
		for _, id := range srcs {
			lists = append(lists, a.lists.Lists[id])
		}
		classes := cut.Cut(lists, a.p)
		in.build(classes, len(srcs))
		state = state[:0]
		for range classes {
			state = append(state, chanClass{win: -1, firstSendWin: -1, firstRecvWin: -1})
		}
		flush := func(win int32) {
			for _, c := range touched {
				st, size := &state[c], uint64(classes[c].Size)
				paired := minU64(st.sends, st.recvs)
				m.ResolvedPairs += size * paired
				a.windows[win].LocalUnmatched += size * ((st.sends - paired) + (st.recvs - paired))
				st.leftS += st.sends - paired
				st.leftR += st.recvs - paired
				if st.sends > 0 && st.firstSendWin < 0 {
					st.firstSendWin = win
				}
				if st.recvs > 0 && st.firstRecvWin < 0 {
					st.firstRecvWin = win
				}
				st.sends, st.recvs = 0, 0
			}
			touched = touched[:0]
		}
		win := int32(-1)
		for i := e[0]; i >= 0; i = a.add(i).next {
			ad := a.add(i)
			if ad.win != win && win >= 0 {
				flush(win)
			}
			win = ad.win
			for _, c := range in.of(int(ad.src)) {
				st := &state[c]
				if st.win != ad.win {
					st.win = ad.win
					touched = append(touched, c)
				}
				if ad.recv {
					st.recvs += ad.n
				} else {
					st.sends += ad.n
				}
			}
		}
		flush(win)
		for c := range state {
			st, size := &state[c], uint64(classes[c].Size)
			// The per-window pairing already subtracted its matches, so
			// every pair formed here is by construction a cross-window
			// match.
			m.CrossWindow += size * minU64(st.leftS, st.leftR)
			if st.firstSendWin >= 0 && st.firstRecvWin >= 0 && st.firstRecvWin < st.firstSendWin {
				m.OrderViolations += size
			}
		}
	}
	// m.ResolvedPairs so far counted window-local pairs only; the
	// cross-window pairs complete the directed total.
	m.ResolvedPairs += m.CrossWindow
}

// addUnmatched records tag's conservation defect d (sends - recvs).
func (m *MatchReport) addUnmatched(tag int, d int64) {
	if d == 0 {
		return
	}
	if m.UnmatchedByTag == nil {
		m.UnmatchedByTag = map[int]int64{}
	}
	m.UnmatchedByTag[tag] = d
	if d < 0 {
		d = -d
	}
	m.Unmatched += uint64(d)
}

func imbalance(maxComp, sumComp int64, participants int) float64 {
	if participants == 0 || sumComp <= 0 {
		return 0
	}
	mean := float64(sumComp) / float64(participants)
	return Ratio(float64(maxComp), mean)
}

// Ratio returns num/den with a guarded denominator: 0 when den is zero
// or not finite, so empty traces, empty windows, and zero-iteration
// loops never produce NaN or Inf in derived metrics.
func Ratio(num, den float64) float64 {
	if den == 0 || math.IsNaN(den) || math.IsInf(den, 0) {
		return 0
	}
	return num / den
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// --- comparison ---

// Diff compares two reports field by field: integer-valued metrics must
// be identical, float-valued ratios must agree within relative
// tolerance tol. It returns human-readable mismatch descriptions
// (empty = equal). The equivalence tests use it to prove the
// closed-form walk against the expansion oracle; chamstat/chamtop
// -check uses it against a fresh oracle run.
func Diff(a, b *Report, tol float64) []string {
	var out []string
	mism := func(format string, args ...any) {
		out = append(out, fmt.Sprintf(format, args...))
	}
	eqI := func(name string, x, y int64) {
		if x != y {
			mism("%s: %d != %d", name, x, y)
		}
	}
	eqU := func(name string, x, y uint64) {
		if x != y {
			mism("%s: %d != %d", name, x, y)
		}
	}
	eqF := func(name string, x, y float64) {
		if !closeEnough(x, y, tol) {
			mism("%s: %g != %g (tol %g)", name, x, y, tol)
		}
	}
	eqI("p", int64(a.P), int64(b.P))
	eqI("stored_nodes", int64(a.StoredNodes), int64(b.StoredNodes))
	eqI("stored_leaves", int64(a.StoredLeaves), int64(b.StoredLeaves))
	eqU("events", a.Events, b.Events)
	eqI("compute_ns", a.ComputeNs, b.ComputeNs)
	eqI("comm_ns", a.CommNs, b.CommNs)
	eqI("wait_ns", a.WaitNs, b.WaitNs)
	eqF("compression_ratio", a.CompressionRatio, b.CompressionRatio)
	eqF("load_imbalance", a.LoadImbalance, b.LoadImbalance)
	eqF("comm_ratio", a.CommRatio, b.CommRatio)

	if len(a.Windows) != len(b.Windows) {
		mism("windows: %d != %d", len(a.Windows), len(b.Windows))
		return out
	}
	for i := range a.Windows {
		wa, wb := &a.Windows[i], &b.Windows[i]
		pre := fmt.Sprintf("window[%d].", i)
		eqI(pre+"nodes", int64(wa.Nodes), int64(wb.Nodes))
		eqI(pre+"leaves", int64(wa.Leaves), int64(wb.Leaves))
		eqU(pre+"events", wa.Events, wb.Events)
		eqI(pre+"compute_ns", wa.ComputeNs, wb.ComputeNs)
		eqI(pre+"comm_ns", wa.CommNs, wb.CommNs)
		eqI(pre+"wait_ns", wa.WaitNs, wb.WaitNs)
		eqU(pre+"local_unmatched", wa.LocalUnmatched, wb.LocalUnmatched)
		eqF(pre+"load_imbalance", wa.LoadImbalance, wb.LoadImbalance)
		eqF(pre+"comm_ratio", wa.CommRatio, wb.CommRatio)
		eqU(pre+"delta_count", wa.DeltaCount, wb.DeltaCount)
		eqI(pre+"delta_min_ns", wa.DeltaMinNs, wb.DeltaMinNs)
		eqI(pre+"delta_max_ns", wa.DeltaMaxNs, wb.DeltaMaxNs)
		eqF(pre+"delta_mean_ns", wa.DeltaMeanNs, wb.DeltaMeanNs)
		eqF(pre+"delta_std_ns", wa.DeltaStdNs, wb.DeltaStdNs)
		diffOps(pre, wa.Ops, wb.Ops, &out)
		diffBuckets(pre, wa.ByteBuckets, wb.ByteBuckets, &out)
	}
	if len(a.RankClasses) != len(b.RankClasses) {
		mism("rank_classes: %d != %d", len(a.RankClasses), len(b.RankClasses))
	} else {
		for i := range a.RankClasses {
			ca, cb := &a.RankClasses[i], &b.RankClasses[i]
			if ca.Size != cb.Size || !ca.Ranks.Equal(cb.Ranks) {
				mism("rank_classes[%d]: %v (%d ranks) != %v (%d ranks)", i, ca.Ranks, ca.Size, cb.Ranks, cb.Size)
			}
		}
	}
	for r := 0; r < a.P && a.P == b.P; r++ {
		ra, rb := a.Rank(r), b.Rank(r)
		pre := fmt.Sprintf("rank[%d].", r)
		eqU(pre+"events", ra.Events, rb.Events)
		eqI(pre+"compute_ns", ra.ComputeNs, rb.ComputeNs)
		eqI(pre+"comm_ns", ra.CommNs, rb.CommNs)
		eqI(pre+"wait_ns", ra.WaitNs, rb.WaitNs)
		eqU(pre+"send_bytes", ra.SendBytes, rb.SendBytes)
	}
	eqU("match.sends", a.Match.Sends, b.Match.Sends)
	eqU("match.recvs", a.Match.Recvs, b.Match.Recvs)
	eqU("match.wildcards", a.Match.Wildcards, b.Match.Wildcards)
	eqU("match.resolved_pairs", a.Match.ResolvedPairs, b.Match.ResolvedPairs)
	eqU("match.cross_window", a.Match.CrossWindow, b.Match.CrossWindow)
	eqU("match.order_violations", a.Match.OrderViolations, b.Match.OrderViolations)
	eqU("match.unmatched", a.Match.Unmatched, b.Match.Unmatched)
	return out
}

func diffOps(pre string, a, b map[string]OpStat, out *[]string) {
	for op, sa := range a {
		sb, ok := b[op]
		if !ok || sa != sb {
			*out = append(*out, fmt.Sprintf("%sops[%s]: %+v != %+v", pre, op, sa, sb))
		}
	}
	for op := range b {
		if _, ok := a[op]; !ok {
			*out = append(*out, fmt.Sprintf("%sops[%s]: missing in first", pre, op))
		}
	}
}

func diffBuckets(pre string, a, b map[int]uint64, out *[]string) {
	for k, va := range a {
		if vb := b[k]; va != vb {
			*out = append(*out, fmt.Sprintf("%sbyte_buckets[%d]: %d != %d", pre, k, va, vb))
		}
	}
	for k, vb := range b {
		if _, ok := a[k]; !ok && vb != 0 {
			*out = append(*out, fmt.Sprintf("%sbyte_buckets[%d]: 0 != %d", pre, k, vb))
		}
	}
}

func closeEnough(a, b, tol float64) bool {
	if a == b {
		return true
	}
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	d := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale == 0 {
		return d <= tol
	}
	return d/scale <= tol
}

// String renders a compact human-readable report (chamstat -zstats).
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "P=%d stored=%d nodes (%d leaves) events=%d ratio=%.1fx\n",
		r.P, r.StoredNodes, r.StoredLeaves, r.Events, r.CompressionRatio)
	fmt.Fprintf(&b, "compute=%v comm=%v wait=%v imbalance=%.2f comm/compute=%.3f\n",
		vtime.Duration(r.ComputeNs), vtime.Duration(r.CommNs), vtime.Duration(r.WaitNs),
		r.LoadImbalance, r.CommRatio)
	m := r.Match
	verdict := "consistent"
	if !m.Consistent {
		verdict = fmt.Sprintf("INCONSISTENT (%d unmatched)", m.Unmatched)
	}
	fmt.Fprintf(&b, "match: sends=%d recvs=%d wildcard=%d paired=%d cross-window=%d order-violations=%d => %s\n",
		m.Sends, m.Recvs, m.Wildcards, m.ResolvedPairs, m.CrossWindow, m.OrderViolations, verdict)
	fmt.Fprintf(&b, "%-4s %6s %6s %10s %12s %12s %12s %6s %6s\n",
		"win", "nodes", "leaves", "events", "compute", "comm", "wait", "imbal", "c/c")
	for i := range r.Windows {
		w := &r.Windows[i]
		fmt.Fprintf(&b, "%-4d %6d %6d %10d %12v %12v %12v %6.2f %6.3f\n",
			w.Index, w.Nodes, w.Leaves, w.Events,
			vtime.Duration(w.ComputeNs), vtime.Duration(w.CommNs), vtime.Duration(w.WaitNs),
			w.LoadImbalance, w.CommRatio)
	}
	return b.String()
}

// TopWaitWindows returns the indices of the n windows with the most
// wait-state time, descending (chamtop -zan).
func (r *Report) TopWaitWindows(n int) []int {
	idx := make([]int, len(r.Windows))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool {
		wi, wj := r.Windows[idx[i]].WaitNs, r.Windows[idx[j]].WaitNs
		if wi != wj {
			return wi > wj
		}
		return idx[i] < idx[j]
	})
	if n > len(idx) {
		n = len(idx)
	}
	return idx[:n]
}
