// Package core implements Chameleon, the paper's primary contribution:
// online signature-based clustering of MPI program traces.
//
// Chameleon interposes on the application like ScalaTrace but treats a
// reserved-communicator barrier as a *marker* at interim execution
// points (timestep boundaries). At every Call_Frequency-th marker it
// runs the paper's Algorithm 1 (the transition graph): each rank
// compares the Call-Path signature of the window just ended against the
// previous window and all ranks vote with an O(log P) Reduce+Bcast. The
// vote rides the marker barrier itself (mpi.CallInfo.Vote: Pre sets
// this rank's mismatch bit, the barrier sums the bits, Post reads the
// sum), so an engaged marker runs one collective, not two.
// Repetitive behavior triggers one clustering step (Algorithm 3): ranks
// cluster by (Call-Path, SRC, DEST) signatures over a radix tree, K lead
// ranks are selected (Algorithm 2), lead traces — rank lists rewritten
// to cluster rank lists — merge over a radix tree of only the K leads,
// and rank 0 folds the result into the incrementally grown online trace.
// Non-lead ranks then stop tracing entirely until a phase change (a
// Call-Path mismatch) flushes the lead partials and returns everyone to
// the all-tracing state.
package core

import (
	"sync"

	"chameleon/internal/cluster"
	"chameleon/internal/mpi"
	"chameleon/internal/obs"
	"chameleon/internal/ranklist"
	"chameleon/internal/sig"
	"chameleon/internal/trace"
	"chameleon/internal/tracer"
	"chameleon/internal/vtime"
)

// State is a transition-graph state (Figure 2).
type State int

// Transition-graph states.
const (
	// StateAT: all ranks tracing; no stable repetitive behavior (yet).
	StateAT State = iota
	// StateC: repetitive behavior confirmed; clustering ran at this
	// marker and lead traces were flushed into the online trace.
	StateC
	// StateL: lead phase — only leads trace. Markers in this state are
	// either steady (vote only) or the flush on a phase change.
	StateL
	// StateF: final — MPI_Finalize flushed the remaining events.
	StateF
	// NumStates is the number of transition-graph states.
	NumStates
)

var stateNames = [...]string{"AT", "C", "L", "F"}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return "S?"
}

// Options configures Chameleon; an auto-marked run reads CallFrequency
// as its anchor period.
type Options = tracer.Options

// Collector aggregates the run's outputs across ranks. Its Result holds
// the online (global) trace and the lead set of the last clustering.
type Collector struct {
	*tracer.Result
	mu sync.Mutex
	// StateCalls counts marker/finalize calls per resulting state
	// (identical across ranks; written by rank 0).
	StateCalls [NumStates]int
	// Reclusterings counts how many times clustering ran (the paper's r).
	Reclusterings int
	// CallPathClusters is the number of distinct Call-Path groups at the
	// most recent clustering.
	CallPathClusters int
	// SpaceByState records per-rank trace bytes allocated while in each
	// state (Table IV). Indexed [rank][state].
	SpaceByState [][NumStates]int
	// OnlineBytes is rank 0's online-trace allocation (monotone).
	OnlineBytes int
	// EventsObserved sums dynamic events observed across ranks (Result's
	// Events sums those recorded).
	EventsObserved uint64
	// ObservedPerRank / RecordedPerRank hold the per-rank event counts
	// (inputs to the DVFS energy estimate: non-lead ranks observe events
	// they no longer record).
	ObservedPerRank []uint64
	RecordedPerRank []uint64
}

// NewCollector sizes a collector for p ranks.
func NewCollector(p int) *Collector {
	return &Collector{
		Result:          tracer.NewResult("chameleon", true, p),
		SpaceByState:    make([][NumStates]int, p),
		ObservedPerRank: make([]uint64, p),
		RecordedPerRank: make([]uint64, p),
	}
}

// coreMetrics holds the pre-fetched core_* metric handles, shared by
// every rank of one run (the handles are atomics). Run-global series
// (markers, votes, transitions, ...) are incremented by rank 0 only, so
// their values count collective steps, not rank-multiplied steps;
// per-rank series (window sizes, event totals) sum over ranks.
type coreMetrics struct {
	markers       *obs.Counter
	engaged       *obs.Counter
	votes         *obs.Counter
	voteMismatch  *obs.Counter
	transitions   [NumStates]*obs.Counter
	state         *obs.Gauge
	reclusterings *obs.Counter
	flushes       *obs.Counter
	windowEvents  *obs.Histogram
	windowSites   *obs.Histogram
	leadCount     *obs.Gauge
	callPaths     *obs.Gauge
	onlineBytes   *obs.Gauge
	departures    *obs.Counter
	failovers     *obs.Counter
}

// newCoreMetrics always returns a usable struct: with metrics disabled
// every handle is nil, and nil handles absorb updates, so call sites
// never guard on the struct.
func newCoreMetrics(o *obs.Observer) *coreMetrics {
	m := &coreMetrics{
		markers:       o.Counter("core_marker_calls_total"),
		engaged:       o.Counter("core_markers_engaged_total"),
		votes:         o.Counter("core_votes_total"),
		voteMismatch:  o.Counter("core_vote_mismatch_ranks_total"),
		state:         o.Gauge("core_state"),
		reclusterings: o.Counter("core_reclusterings_total"),
		flushes:       o.Counter("core_flushes_total"),
		windowEvents:  o.Histogram("core_window_events"),
		windowSites:   o.Histogram("core_window_distinct_sites"),
		leadCount:     o.Gauge("core_lead_count"),
		callPaths:     o.Gauge("core_callpath_clusters"),
		onlineBytes:   o.Gauge("core_online_trace_bytes"),
		departures:    o.Counter("core_departures_total"),
		failovers:     o.Counter("core_lead_failovers_total"),
	}
	for s := StateAT; s < NumStates; s++ {
		m.transitions[s] = o.Counter("core_transitions_" + stateNames[s] + "_total")
	}
	return m
}

// Chameleon is the per-rank interposer.
type Chameleon struct {
	p   *mpi.Proc
	rec *tracer.Recorder
	opt Options
	col *Collector
	o   *obs.Observer
	met *coreMetrics

	// Algorithm 1 state.
	oldCallPath  uint64
	haveOld      bool
	reclustering bool
	steadyLead   bool
	lastState    State
	haveState    bool
	curSig       sig.Triple

	// Cluster state (valid while inLeadPhase).
	inLeadPhase bool
	isLead      bool
	leads       []int
	myCluster   ranklist.List // this lead's cluster rank list
	myVariant   bool          // cluster has rank-dependent end-points
	// Failover state (fault injection only). clusters is the full table
	// from the last clustering, kept so survivors can re-elect leads. It
	// is the broadcast slice itself, shared with every rank that received
	// it: nothing writes into it, and handleDepartures replaces it with a
	// slice of its own. deadSeen marks departures already processed;
	// failoverFlush arms a FlushFailover at the next steady lead-phase
	// marker, after the affected cluster has re-traced for one window.
	clusters      []cluster.Item
	deadSeen      map[int]bool
	failoverFlush bool

	// Online trace (rank 0 only). onlinePool recycles nodes the online
	// compressor's folds discard.
	online      trace.Compressor
	onlinePool  trace.Pool
	onlineAlloc int

	markerCalls int
	engaged     int
	flushRound  int

	stateCalls [NumStates]int
	spaceState [NumStates]int
	allocSnap  int

	pre vtime.Time
}

// New returns a hook factory for mpi.Config.Hooks.
func New(col *Collector, opt Options) func(p *mpi.Proc) mpi.Interposer {
	opt = opt.Normalized()
	var met *coreMetrics
	return func(p *mpi.Proc) mpi.Interposer {
		if met == nil {
			// The factory runs once per rank before the rank goroutines
			// start (see mpi.Run), so lazy shared-handle setup is safe.
			met = newCoreMetrics(p.Obs())
		}
		c := &Chameleon{
			p:            p,
			rec:          tracer.NewRecorder(p, opt.SigMode, opt.Filter),
			opt:          opt,
			col:          col,
			o:            p.Obs(),
			met:          met,
			reclustering: true,
		}
		c.online.Filter = opt.Filter
		c.online.Pool = &c.onlinePool
		return c
	}
}

// Pre implements mpi.Interposer. At a marker barrier that
// CallFrequency engages, it closes the window and leaves this rank's
// Algorithm 1 vote in ci.Vote: the barrier sums the votes and hands the
// sum to Post, so the paper's Reduce+Bcast runs inside the marker
// barrier instead of after it. The window is complete here: the marker
// barrier itself is never recorded.
func (c *Chameleon) Pre(ci *mpi.CallInfo) {
	c.pre = c.p.Clock.Now()
	if ci.Marker() && (c.markerCalls+1)%c.opt.CallFrequency == 0 {
		ci.Vote = c.closeWindow()
	}
}

// Post implements mpi.Interposer.
func (c *Chameleon) Post(ci *mpi.CallInfo) {
	if ci.Marker() {
		c.onMarker(ci.Vote)
		return
	}
	if ci.Op == mpi.OpFinalize {
		return
	}
	c.rec.Record(ci, c.pre, 1)
}

// Recorder exposes the per-rank recorder (tests, space accounting).
func (c *Chameleon) Recorder() *tracer.Recorder { return c.rec }

// closeWindow takes the ended window's signature triple and returns
// this rank's vote: 1 if the window's Call-Path differs from the
// previous engaged window's, else 0 (also at the first engaged marker,
// which has nothing to compare against).
func (c *Chameleon) closeWindow() uint64 {
	c.curSig = c.rec.Win.Triple()
	if c.haveOld && c.curSig.CallPath != c.oldCallPath {
		return 1
	}
	return 0
}

// onMarker is the PMPI post-wrapper of the marker barrier: Algorithm 3's
// entry ("Increment Marker_Call_Counter; if counter % Call_Frequency !=
// 0 then return"). votes is the sum of the ranks' votes the marker
// carried (0 and unread at a marker CallFrequency does not engage).
func (c *Chameleon) onMarker(votes uint64) {
	// The marker barrier itself is tool-inserted: book its tree-traversal
	// cost (the per-rank share of the barrier's message hops, the vote
	// riding on them included) as marker overhead, once. The
	// synchronization stall stays on the application clock where it
	// belongs — it is load imbalance the barrier merely exposes.
	model := c.p.Model()
	hops := vtime.Duration(vtime.Log2Ceil(len(c.p.AliveRanks())))
	c.p.Ledger.Charge(vtime.CatMarker, hops*(model.Alpha+model.CollectivePerLevel))
	c.markerCalls++
	if c.p.Rank() == 0 {
		c.met.markers.Inc()
	}
	// Live progress: the window count is the marker call count, and the
	// barrier-entry clock (saved by Pre) carries cross-rank skew the
	// barrier itself erases.
	c.o.Window(c.p.Rank(), uint64(c.markerCalls), c.pre)
	// Marker and clustering processing time must not leak into the
	// recorded inter-event computation deltas: exclude the whole marker
	// span (barrier entry through processing end) from the next delta,
	// keeping the application compute that preceded the marker.
	defer c.rec.ExcludeSince(c.pre)
	if c.markerCalls%c.opt.CallFrequency != 0 {
		return
	}
	c.engaged++
	if c.p.Rank() == 0 {
		c.met.engaged.Inc()
	}
	state := c.transition(votes)
	c.stateCalls[state]++
	c.accountSpace(state)
	c.observeTransition(state)
	// Departures must be folded into the cluster table before any flush
	// at this marker: a merge tree spanning a dead lead would never
	// complete.
	c.handleDepartures()
	switch state {
	case StateC:
		c.runClustering()
		c.flushLeads(obs.FlushInitial)
		c.enterLeadPhase()
	case StateL:
		switch {
		case !c.steadyLead:
			// Phase change while leading: flush lead partials and
			// return everyone to all-tracing.
			c.flushLeads(obs.FlushPhaseChange)
			c.exitLeadPhase()
			c.failoverFlush = false
		case c.failoverFlush:
			// A lead died last window; its cluster re-traced for one
			// window and the promoted lead's partial flushes now.
			c.flushLeads(obs.FlushFailover)
			c.rec.Enabled = c.isLead
			c.failoverFlush = false
		}
	}
	c.steadyLead = false
}

// observeTransition records one transition-graph step into the
// observability layer. Run-global series are emitted by rank 0 only
// (every rank computes the same state, so once is enough).
func (c *Chameleon) observeTransition(state State) {
	if c.p.Rank() != 0 {
		c.lastState, c.haveState = state, true
		return
	}
	c.met.transitions[state].Inc()
	c.met.state.Set(int64(state))
	from := ""
	if c.haveState {
		from = c.lastState.String()
	}
	c.o.Emit(obs.Event{
		Kind: obs.KindTransition, Rank: 0, VT: int64(c.p.Clock.Now()),
		Marker: c.markerCalls, From: from, To: state.String(),
	})
	c.lastState, c.haveState = state, true
}

// transition implements Algorithm 1 over the window closeWindow took,
// given glob, the sum of the ranks' votes. All ranks return the same
// state because the sum came back to every rank from one collective.
func (c *Chameleon) transition(glob uint64) State {
	cur := c.curSig
	c.met.windowEvents.Observe(int64(c.rec.Win.Events()))
	c.met.windowSites.Observe(int64(c.rec.Win.DistinctSites()))
	c.rec.Win.Reset()

	if !c.haveOld {
		// First time hitting the marker.
		c.oldCallPath = cur.CallPath
		c.haveOld = true
		return StateAT
	}
	c.oldCallPath = cur.CallPath
	if c.p.Rank() == 0 {
		c.met.votes.Inc()
		c.met.voteMismatch.Add(glob)
		c.o.Emit(obs.Event{
			Kind: obs.KindVote, Rank: 0, VT: int64(c.p.Clock.Now()),
			Marker: c.markerCalls, Votes: obs.Vote(glob),
		})
	}

	if glob == 0 {
		if c.reclustering {
			c.reclustering = false
			return StateC
		}
		if c.inLeadPhase {
			// Lead phase without inter-compression: steady marker.
			c.steadyLead = true
			return StateL
		}
		return StateAT
	}
	if c.inLeadPhase {
		// Lead phase with inter-compression: flush.
		return StateL
	}
	c.reclustering = true
	return StateAT
}

// runClustering performs the distributed clustering of Algorithm 3's
// "Clustering" branch: gather signature items over the radix tree,
// cap each node's working set at K via Algorithm 2, and broadcast the
// final lead set.
func (c *Chameleon) runClustering() {
	p := c.p
	self := cluster.Item{
		Lead:  p.Rank(),
		Ranks: ranklist.SingleRank(p.Rank()),
		Sig:   c.curSig,
	}
	restore := p.CausalContext("cluster", c.markerCalls)
	top := cluster.DistributedSelect(p, self, p.AliveRanks(),
		c.opt.K, c.opt.Algo, clusterTag(c.flushRound), vtime.CatCluster)
	restore()

	c.clusters = top
	var mine int
	c.leads, mine = tracer.Leads(c.leads, top, p.Rank())
	c.isLead = mine >= 0
	if c.isLead {
		c.myCluster, c.myVariant = top[mine].Ranks, top[mine].Variant
	}

	if c.isLead {
		c.o.Emit(obs.Event{
			Kind: obs.KindLead, Rank: p.Rank(), VT: int64(p.Clock.Now()),
			Marker: c.markerCalls, Count: uint64(c.myCluster.Size()),
		})
	}
	if p.Rank() == 0 {
		paths := make(map[uint64]struct{}, len(top))
		for _, it := range top {
			paths[it.Sig.CallPath] = struct{}{}
		}
		c.col.mu.Lock()
		c.col.Reclusterings++
		c.col.CallPathClusters = len(paths)
		c.col.mu.Unlock()
		c.met.reclusterings.Inc()
		c.met.leadCount.Set(int64(len(c.leads)))
		c.met.callPaths.Set(int64(len(paths)))
		c.o.Emit(obs.Event{
			Kind: obs.KindCluster, Rank: 0, VT: int64(p.Clock.Now()),
			Marker: c.markerCalls, K: c.opt.K,
			Leads: append([]int(nil), c.leads...),
			Count: uint64(len(paths)),
		})
	}
}

// handleDepartures folds newly crashed ranks into the cluster table.
// Every survivor sees the same membership view at the same marker (the
// injector is a shared failure-detector oracle) and the cluster table
// was broadcast, so all survivors take identical decisions without
// additional communication. Non-lead deaths retire the rank from its
// cluster rank list; a lead death re-runs the Algorithm 2 selection over
// the remaining members to promote a replacement, forces that cluster
// back to tracing (the promoted lead re-traces, representing the
// cluster), and arms a failover flush for the next steady marker. A
// cluster that dies entirely is dropped — its unflushed windows are
// lost, which the journal records rather than hiding.
func (c *Chameleon) handleDepartures() {
	p := c.p
	if p.Epoch() == 0 {
		return
	}
	var newlyDead []int
	for r := 0; r < p.Size(); r++ {
		if p.Departed(r) && !c.deadSeen[r] {
			if c.deadSeen == nil {
				c.deadSeen = make(map[int]bool)
			}
			c.deadSeen[r] = true
			newlyDead = append(newlyDead, r)
		}
	}
	if len(newlyDead) == 0 {
		return
	}
	if p.Rank() == 0 {
		c.met.departures.Add(uint64(len(newlyDead)))
	}
	if len(c.clusters) == 0 {
		return
	}
	// c.clusters may be the broadcast table other ranks still read:
	// build this rank's view in a slice of its own.
	kept := make([]cluster.Item, 0, len(c.clusters))
	changed := false
	for _, it := range c.clusters {
		var survivors []int
		for _, r := range it.Ranks.Ranks() {
			if !p.Departed(r) {
				survivors = append(survivors, r)
			}
		}
		if len(survivors) == it.Ranks.Size() {
			kept = append(kept, it)
			continue
		}
		changed = true
		if !p.Departed(it.Lead) {
			// Non-lead death: retire the rank from the cluster list so
			// merged traces stay well-formed.
			it.Ranks = ranklist.FromRanks(survivors)
			if it.Lead == p.Rank() {
				c.myCluster = it.Ranks
			}
			kept = append(kept, it)
			continue
		}
		old := it.Lead
		if len(survivors) == 0 {
			// The lead died with its whole cluster; nothing to promote.
			if p.Rank() == 0 {
				c.met.failovers.Inc()
				c.o.Emit(obs.Event{
					Kind: obs.KindFailover, Rank: 0, VT: int64(p.Clock.Now()),
					Marker: c.markerCalls, Leads: []int{old}, Note: "cluster-lost",
				})
			}
			continue
		}
		// Re-run the Algorithm 2 selection over the remaining members to
		// pick the replacement lead (signatures are the cluster's, so
		// with identical items the selection is deterministic).
		cand := make([]cluster.Item, len(survivors))
		for i, r := range survivors {
			cand[i] = cluster.Item{Lead: r, Ranks: ranklist.SingleRank(r), Sig: it.Sig}
		}
		res := cluster.SelectLeads(cand, 1, c.opt.Algo)
		it.Lead = res.Top[0].Lead
		it.Ranks = ranklist.FromRanks(survivors)
		if it.Lead == p.Rank() {
			c.isLead = true
			c.myCluster = it.Ranks
			c.myVariant = it.Variant
			if c.inLeadPhase {
				// Force the cluster back to tracing for one window; the
				// failover flush next marker collects it.
				c.rec.Enabled = true
				c.rec.MarkEventBoundary()
			}
		}
		if c.inLeadPhase {
			c.failoverFlush = true
		}
		if p.Rank() == 0 {
			c.met.failovers.Inc()
			c.o.Emit(obs.Event{
				Kind: obs.KindFailover, Rank: 0, VT: int64(p.Clock.Now()),
				Marker: c.markerCalls, Leads: []int{old, it.Lead},
				Count: uint64(len(survivors)), Note: "promoted",
			})
		}
		kept = append(kept, it)
	}
	c.clusters = kept
	if !changed {
		return
	}
	c.leads, _ = tracer.Leads(c.leads, c.clusters, p.Rank())
	if p.Rank() == 0 {
		c.met.leadCount.Set(int64(len(c.leads)))
	}
}

// flushLeads runs the online inter-node compression: lead partial traces
// (rank lists rewritten to cluster rank lists) merge over a radix tree
// of the K leads; the result folds into rank 0's online trace. Every
// rank then deletes its partial trace. The cause (initial clustering,
// phase change, finalize) is recorded in the journal.
func (c *Chameleon) flushLeads(cause string) {
	p := c.p
	model := p.Model()
	round := c.flushRound
	c.flushRound++
	// Name the merge tree's edges after the flush cause so the straggler
	// report separates initial, phase-change, failover, and final merges.
	defer p.CausalContext("merge:"+cause, round)()

	var partial []*trace.Node
	if c.isLead || (len(c.leads) == 0 && p.Rank() == 0) {
		mine := c.rec.TakePartial()
		if c.isLead {
			tracer.AsCluster(mine, p, c.myCluster, c.myVariant)
		}
		partial = tracer.MergeOverTree(p, c.leads, mine,
			c.opt.Filter, tracer.MergeTag(round+1), vtime.CatInterComp)
	} else {
		// Non-lead partials go nowhere; recycle their nodes.
		c.rec.DiscardPartial()
	}

	// Route the partial global trace to rank 0 ("if root of Top K list
	// != 0: send partial global trace to rank 0").
	rootLead := -1
	if len(c.leads) > 0 {
		rootLead = c.leads[0]
	}
	tag := onlineTag(round)
	switch {
	case rootLead == p.Rank() && rootLead != 0:
		t0 := p.Clock.Now()
		p.World().RawSend(0, tag, trace.SizeBytes(partial), partial)
		p.Ledger.Charge(vtime.CatInterComp, vtime.Duration(p.Clock.Now()-t0))
		partial = nil
	case p.Rank() == 0 && rootLead > 0:
		t0 := p.Clock.Now()
		msg := p.World().RawRecv(rootLead, tag)
		p.Ledger.Charge(vtime.CatInterComp, vtime.Duration(p.Clock.Now()-t0))
		partial, _ = msg.Payload.([]*trace.Node)
	}

	if p.Rank() == 0 && partial != nil {
		before := c.online.SizeBytes()
		c0 := c.online.Compares
		// Size the partial before appending: the online compressor owns
		// (and may fold and recycle) the nodes once appended.
		partialBytes := trace.SizeBytes(partial)
		for _, n := range partial {
			c.online.AppendNode(n)
		}
		p.ChargeOverhead(vtime.CatInterComp,
			vtime.Duration(c.online.Compares-c0)*model.ComparePerOp+
				vtime.Duration(partialBytes)*model.MergePerByte)
		if after := c.online.SizeBytes(); after > before {
			c.onlineAlloc += after - before
		}
	}
	if p.Rank() == 0 {
		c.met.flushes.Inc()
		c.met.onlineBytes.Set(int64(c.online.SizeBytes()))
		c.o.Emit(obs.Event{
			Kind: obs.KindFlush, Rank: 0, VT: int64(p.Clock.Now()),
			Marker: c.markerCalls, Round: round, Note: cause,
			Bytes: int64(c.online.SizeBytes()),
		})
	}
	// "All nodes: delete your partial trace" — TakePartial above already
	// detached it; restart delta-time tracking at this point.
	c.rec.MarkEventBoundary()
}

func (c *Chameleon) enterLeadPhase() {
	c.inLeadPhase = true
	c.rec.Enabled = c.isLead
	c.rec.MarkEventBoundary()
}

func (c *Chameleon) exitLeadPhase() {
	c.inLeadPhase = false
	c.isLead = false
	c.reclustering = true
	c.rec.Enabled = true
	c.rec.MarkEventBoundary()
}

// accountSpace attributes trace bytes allocated since the previous
// engaged marker to the state this marker produced (Table IV).
func (c *Chameleon) accountSpace(s State) {
	alloc := c.rec.AllocBytes + c.onlineAlloc
	c.spaceState[s] += alloc - c.allocSnap
	c.allocSnap = alloc
}

// Finalize implements mpi.Interposer: "at the end of the application,
// Algorithm 3 is called with a small modification ... re-clustering must
// be triggered but the inter-compression part remains the same."
func (c *Chameleon) Finalize() {
	c.curSig = c.rec.Win.Triple()
	c.rec.Win.Reset()
	if !c.inLeadPhase {
		// Forced re-clustering over the trailing all-tracing window.
		c.runClustering()
	}
	c.stateCalls[StateF]++
	c.accountSpace(StateF)
	c.observeTransition(StateF)
	c.flushLeads(obs.FlushFinal)
	c.o.Emit(obs.Event{
		Kind: obs.KindFinalize, Rank: c.p.Rank(), VT: int64(c.p.Clock.Now()),
		Count: c.rec.Events, Bytes: int64(c.rec.AllocBytes),
	})

	c.col.Keep(c.p, c.rec, c.online.Seq, c.leads)
	c.col.mu.Lock()
	defer c.col.mu.Unlock()
	c.col.SpaceByState[c.p.Rank()] = c.spaceState
	c.col.EventsObserved += c.rec.Observed
	c.col.ObservedPerRank[c.p.Rank()] = c.rec.Observed
	c.col.RecordedPerRank[c.p.Rank()] = c.rec.Events
	if c.p.Rank() == 0 {
		c.col.StateCalls = c.stateCalls
		c.col.OnlineBytes = c.onlineAlloc
	}
}

func clusterTag(round int) int { return 1<<54 | round<<3 }
func onlineTag(round int) int  { return 1<<53 | round<<3 }
