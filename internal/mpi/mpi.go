// Package mpi is a deterministic, in-process simulation of the MPI
// runtime the paper's tracing stack interposes on.
//
// Each MPI rank is a goroutine driving a Proc handle. Point-to-point and
// collective operations have MPI matching semantics (communicators, tag
// and source wildcards, non-overtaking order) and advance per-rank
// virtual clocks according to a vtime.CostModel, so the maximum final
// clock is the virtual makespan of the run. An Interposer receives a
// Pre/Post callback around every public operation — the Go equivalent of
// the PMPI profiling layer ScalaTrace and Chameleon hook into. The Raw*
// variants perform the same communication without interposition and are
// what the tracing layer itself uses, mirroring how PMPI tools call
// PMPI_* internals.
package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"

	"chameleon/internal/fault"
	"chameleon/internal/obs"
	"chameleon/internal/vtime"
)

// Wildcards for Recv matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// NoPeer marks a call with no peer rank (collectives, Wait).
const NoPeer = -2

// CommID identifies a communicator. Matching requires equal CommIDs.
type CommID int32

// Reserved communicators.
const (
	// CommWorld is MPI_COMM_WORLD.
	CommWorld CommID = 0
	// CommMarker is the communicator Chameleon reserves for its marker
	// barrier ("a unique value [in] the communicator field").
	CommMarker CommID = 1
	// CommInternal carries the tracing layer's own (untraced) messages so
	// they can never match application receives.
	CommInternal CommID = 2
	// commUserBase is the first CommID handed to user Dup calls.
	commUserBase CommID = 16
)

// CallInfo describes one intercepted MPI call for the interposition
// layer.
type CallInfo struct {
	Op    OpCode
	Comm  CommID
	Dest  int // destination rank (sends, Sendrecv) or NoPeer
	Src   int // source rank (recvs, Sendrecv; may be AnySource) or NoPeer
	Root  int // root rank for rooted collectives, else NoPeer
	Tag   int
	Bytes int // payload size of this rank's contribution
	// MatchedSrc is filled in by Post for receives: the actual source the
	// message was matched from (resolves AnySource).
	MatchedSrc int
	// Vote is the word a barrier carries: whatever Pre leaves here is
	// summed over the ranks, and Post finds the sum in its place. It
	// costs the barrier no byte on the virtual clock. Every barrier packs
	// the ranks' membership epoch (0 until a crash) above bit 20, so the
	// sum must stay below 2^20.
	Vote uint64
}

// Marker reports whether the call is the marker barrier: Chameleon's
// tool traffic, which no tracer records as an application event.
func (ci *CallInfo) Marker() bool { return ci.Op == OpBarrier && ci.Comm == CommMarker }

// Interposer is the PMPI-style hook interface. Pre runs before the
// operation's communication; Post runs after it completes. Both run on
// the rank's own goroutine. The CallInfo is the same value in both and
// is valid until Post returns: the rank reuses it for its next
// operation, so a hook that keeps anything copies it out.
type Interposer interface {
	Pre(ci *CallInfo)
	Post(ci *CallInfo)
	// Finalize is invoked collectively (all ranks) after the application
	// body returns, mirroring the MPI_Finalize PMPI wrapper where
	// ScalaTrace performs inter-node compression.
	Finalize()
}

// NopInterposer ignores all hooks (running without a tracer).
type NopInterposer struct{}

// Pre implements Interposer.
func (NopInterposer) Pre(*CallInfo) {}

// Post implements Interposer.
func (NopInterposer) Post(*CallInfo) {}

// Finalize implements Interposer.
func (NopInterposer) Finalize() {}

// rankState tracks what a rank is doing, for conservative wildcard
// matching. It lives in the rank's mailbox, under the mailbox lock: the
// rank writes it (take and takeAny on blocking, setState past the body),
// a depositor handing a message to a parked rank turns it active, and
// influenceBound reads it.
type rankState int32

const (
	stateActive     rankState = iota // executing application code
	stateBlocked                     // blocked in a receive or at a rendezvous
	stateFinalizing                  // past the application body: only
	// tracing-layer (internal) traffic can follow
	stateDone // body and finalize complete
)

// Runtime is one simulated MPI job (or, under a network transport, this
// process's share of one).
type Runtime struct {
	p     int
	model vtime.CostModel
	// tr routes messages and scopes matcher visibility; local lists the
	// world ranks hosted in this process (all of them for the default
	// in-process transport). mailboxes and procs are indexed by world
	// rank and nil for remote ranks.
	tr        Transport
	local     []int
	mailboxes []*mailbox
	procs     []*Proc

	// gmu/gcond/generation implement the global change notification
	// conservative ANY_SOURCE matching waits on: every deposit and
	// every rank-state transition bumps the generation.
	gmu        sync.Mutex
	gcond      *sync.Cond
	generation uint64
	// anyWaiters gates the generation bumping: when no wildcard matcher
	// is waiting (the common case), deposits skip the global broadcast.
	anyWaiters atomic.Int32
	// aborted is set when any rank panics so blocked peers unwind.
	aborted atomic.Bool
	// obs/met are the run's observability sinks (nil when disabled).
	obs *obs.Observer
	met *opMetrics
	// causal caches obs.Causal so the per-message hot path tests one
	// pointer instead of chasing two.
	causal *obs.Causal
	// progress caches obs.Progress for the live-telemetry hooks (nil
	// when live tracking is off; every method is nil-safe).
	progress *obs.Progress
	// fault is the run's fault injector (nil = zero-fault mode).
	fault *fault.Injector
	// evaluates is set when Alltoall, Barrier and Allreduce are
	// evaluated, not enacted (Comm.alltoall, Comm.allreduce): every
	// rank is hosted here and causal capture is off. rdv is the table
	// their instances meet in.
	evaluates bool
	rdv       rendezvous
}

// errAborted is the sentinel blocked ranks panic with after a peer rank
// failed; Run recognizes and suppresses it in favor of the root cause.
type abortError struct{}

func (abortError) Error() string { return "mpi: run aborted by peer failure" }

var errAborted = abortError{}

// abort marks the run failed and wakes every blocked rank. Network
// transports relay the abort to peer processes.
func (rt *Runtime) abort() {
	rt.aborted.Store(true)
	rt.abortLocal()
	rt.tr.noteAbort()
}

// abortLocal wakes this process's blocked ranks (the local half of
// abort, also entered when a peer process reports failure).
func (rt *Runtime) abortLocal() {
	rt.aborted.Store(true)
	for _, mb := range rt.mailboxes {
		if mb != nil {
			mb.unpark()
		}
	}
	rt.bump()
}

// takeAny performs a conservative wildcard receive for rank self: it
// repeatedly picks the earliest-arrival candidate and matches it only
// once no rank, hosted here (lbtsSafe) or elsewhere (remoteSafe), can
// still make an earlier message appear. The rank reads as blocked on
// the wildcard pattern throughout, its candidates pending in the queue:
// no depositor hands it a message.
func (rt *Runtime) takeAny(self int, mb *mailbox, want pattern) message {
	mb.mu.Lock()
	mb.state, mb.want = stateBlocked, want
	mb.mu.Unlock()
	rt.announce(self)
	rt.anyWaiters.Add(1)
	defer rt.anyWaiters.Add(-1)
	for {
		g := rt.gen()
		mb.mu.Lock()
		best := mb.scanAny(want)
		var cand message
		if best >= 0 {
			cand = mb.msgs[best]
		}
		mb.mu.Unlock()
		// The safety scan is only trusted if no deposit or rank-state
		// transition interleaved with it (the generation is unchanged);
		// clock advances alone only strengthen the bound, so they need
		// no bump. On any interleaving, re-evaluate.
		local := best >= 0 && rt.lbtsSafe(self, cand.arrive)
		if local && rt.tr.remoteSafe(self, cand.arrive) && rt.gen() == g {
			// Re-take under the lock: only earlier candidates can have
			// appeared meanwhile, and safety is monotone downward. The
			// rank turns active before its message leaves the queue: a
			// bound scan never sees it blocked with nothing pending.
			mb.mu.Lock()
			mb.state = stateActive
			msg := mb.remove(mb.scanAny(want))
			mb.mu.Unlock()
			rt.announce(self)
			return msg
		}
		if rt.aborted.Load() {
			panic(errAborted)
		}
		// A local "no" waits for a local change. A remote one came a
		// repoll period late (cut.safe), and remote progress announces
		// nothing here: look again at once.
		if !local && rt.gen() == g {
			rt.waitChange(g)
		}
	}
}

// bump signals a global state change to wildcard matchers.
func (rt *Runtime) bump() {
	rt.gmu.Lock()
	rt.generation++
	rt.gcond.Broadcast()
	rt.gmu.Unlock()
}

// gen snapshots the change generation.
func (rt *Runtime) gen() uint64 {
	rt.gmu.Lock()
	g := rt.generation
	rt.gmu.Unlock()
	return g
}

// waitChange blocks until the generation moves past old (the caller
// re-evaluates from scratch).
func (rt *Runtime) waitChange(old uint64) {
	rt.gmu.Lock()
	if rt.generation == old {
		rt.gcond.Wait()
	}
	rt.gmu.Unlock()
}

// setState transitions a rank's state and announces it.
func (rt *Runtime) setState(rank int, s rankState) {
	mb := rt.mailboxes[rank]
	mb.mu.Lock()
	mb.state = s
	mb.mu.Unlock()
	rt.announce(rank)
}

// announce publishes a rank-state transition already recorded in the
// rank's mailbox: it wakes wildcard matchers, and network transports
// fold it into their stability generation so peer bound-sweeps observe
// it. A parked rank turning active needs none: the deposit that did it
// is announced by depositLocal.
func (rt *Runtime) announce(rank int) {
	if rt.anyWaiters.Load() > 0 {
		rt.bump()
	}
	rt.tr.noteState(rank)
}

// depositLocal enqueues a message for a rank hosted in this process and
// wakes wildcard matchers; both transport backends route local
// deliveries through it.
func (rt *Runtime) depositLocal(dest int, msg message) {
	rt.mailboxes[dest].deposit(msg)
	if rt.anyWaiters.Load() > 0 {
		rt.bump()
	}
}

// lbtsSafe reports whether a wildcard match at arrival time t on rank
// self is conservative with respect to the other ranks hosted here,
// which influenceBound bounds. Ranks hosted by other processes are the
// transport's to bound with remoteSafe (the in-process backend hosts
// everyone and answers true immediately; the TCP backend asks each peer
// for its own influenceBound, see cut.go).
func (rt *Runtime) lbtsSafe(self int, t vtime.Time) bool {
	bound, ok := rt.influenceBound(self)
	return !ok || bound >= t
}

// influenceBound is the conservative wildcard rule, stated once for
// every backend: the earliest virtual time at which any rank hosted
// here, other than exclude, can still make a message arrive anywhere
// (ok=false: none can). An active rank's future sends arrive no earlier
// than its clock plus the send latency. A blocked rank acts again only
// at max(its clock, the earliest pending arrival matching what it is
// blocked on) — both only grow — so that maximum plus the latency bounds
// its future influence (this includes ranks blocked inside collectives
// mid-run: a pending internal message can be the first link of a chain
// that returns them to application code); a blocked rank with no
// matching message pending waits on a future deposit from a rank
// already accounted for, or, at an evaluated collective's rendezvous
// (Alltoall, Barrier, Allreduce), on a member still to arrive, which
// is accounted for at no later than its entry clock and bounds every
// exit clock (Comm.evaluate).
// Finalizing and done ranks can never send application messages again
// and are exempt. This is the lower-bound-time-stamp rule of
// conservative parallel discrete-event simulation, specialized to the
// one-hop unblocking chain.
//
// A rank's state and pattern are read under its mailbox lock, and a
// blocked receiver turns active under that lock in the step that takes
// its matched message out of view (mailbox.deposit handing it over,
// takeAny removing it): the scan never sees a rank that was just
// unblocked as "blocked, nothing pending". A rank consuming a queued
// message never reads as blocked at all; it counts as active at its old
// clock, a lower bound than the pending arrival would give.
func (rt *Runtime) influenceBound(exclude int) (vtime.Time, bool) {
	alpha := vtime.Time(rt.model.Alpha)
	min, ok := vtime.Time(0), false
	for _, r := range rt.local {
		if r == exclude {
			continue
		}
		proc, mb := rt.procs[r], rt.mailboxes[r]
		mb.mu.Lock()
		state := mb.state
		var arrive vtime.Time
		pending := false
		if state == stateBlocked {
			arrive, pending = mb.minArriveMatching(mb.want)
		}
		mb.mu.Unlock()
		var bound vtime.Time
		switch {
		case state == stateActive:
			bound = proc.Clock.Now() + alpha
		case pending:
			bound = vtime.Max(proc.Clock.Now(), arrive) + alpha
		default:
			continue
		}
		if !ok || bound < min {
			min, ok = bound, true
		}
	}
	return min, ok
}

// Proc is the per-rank handle passed to the application body. All of its
// methods must be called from the rank's own goroutine. What other
// goroutines read of a rank is its Clock (atomic) and, in its mailbox,
// its state and what it is blocked on.
type Proc struct {
	rank   int
	rt     *Runtime
	Clock  *vtime.Clock
	Ledger *vtime.Ledger
	hooks  Interposer
	world  *Comm
	marker *Comm
	// collSeq disambiguates successive collectives per communicator.
	collSeq map[CommID]int
	// markerSeq counts marker barriers this rank has entered (1-based):
	// the clock the fault injector schedules crashes against, and the
	// sequence number of the marker's causal context.
	markerSeq int
	// sendSeq numbers this rank's causal-stamped sends (1-based).
	sendSeq uint64
	// ctxName/ctxSeq label the collective instance this rank is currently
	// executing, copied onto every edge it records (see CausalContext).
	ctxName string
	ctxSeq  int
	// opPrevName/opPrevSeq save the outer context across an op-derived
	// context installed by opBegin (restored in opEnd).
	opPrevName string
	opPrevSeq  int
	// calls[d] is the scratch CallInfo of the public op at nesting depth
	// d; opDepth counts the ops between their opBegin and opEnd.
	calls   []*CallInfo
	opDepth int
	// epoch and shrunk are this rank's membership view: shrunk is the
	// world while all ranks live (epoch 0), the communicator over the
	// survivors after a crash. Its group is the membership list.
	epoch  int
	shrunk *Comm
}

// Rank returns this process's rank in CommWorld.
func (p *Proc) Rank() int { return p.rank }

// Size returns the number of ranks in the job.
func (p *Proc) Size() int { return p.rt.p }

// Model returns the runtime's cost model.
func (p *Proc) Model() vtime.CostModel { return p.rt.model }

// World returns this rank's CommWorld handle.
func (p *Proc) World() *Comm { return p.world }

// MarkerComm returns the reserved marker communicator: a distinct
// CommID over the membership list (the world's group until a crash,
// the survivors after).
func (p *Proc) MarkerComm() *Comm { return p.marker }

// Interposer returns the installed hook chain.
func (p *Proc) Interposer() Interposer { return p.hooks }

// Obs returns the run's observer (nil when observability is disabled).
// The tracing layers pull it from here so no extra plumbing is needed.
func (p *Proc) Obs() *obs.Observer { return p.rt.obs }

// noRestore is the shared no-op restore closure handed out when causal
// capture is disabled, so context sites allocate nothing in that case.
var noRestore = func() {}

// CausalContext names the collective instance this rank is about to
// execute: every causal edge the rank records until the returned restore
// runs carries (name, seq) as its Ctx/CtxSeq. Callers defer the restore:
//
//	defer p.CausalContext("vote", markerIdx)()
//
// With causal capture disabled this is one pointer test and no
// allocation.
func (p *Proc) CausalContext(name string, seq int) func() {
	if p.rt.causal == nil {
		return noRestore
	}
	prevName, prevSeq := p.ctxName, p.ctxSeq
	p.ctxName, p.ctxSeq = name, seq
	return func() { p.ctxName, p.ctxSeq = prevName, prevSeq }
}

// CausalContextDefault is CausalContext except an already-named outer
// context wins: library helpers (cluster membership exchange, tracer
// merges) use it so a caller's more specific name is never clobbered.
func (p *Proc) CausalContextDefault(name string, seq int) func() {
	if p.rt.causal == nil || p.ctxName != "" {
		return noRestore
	}
	return p.CausalContext(name, seq)
}

// Compute advances this rank's virtual clock by d of application
// computation. The tracing layer observes it as inter-event delta time.
// Under fault injection the nominal duration may be stretched; the
// excess is booked to CatFault so overhead accounting stays clean.
func (p *Proc) Compute(d vtime.Duration) {
	p.Ledger.Charge(vtime.CatApp, d)
	if f := p.rt.fault; f != nil {
		if extra := f.PerturbCompute(p.rank, p.Clock.Now(), d) - d; extra > 0 {
			p.Ledger.Charge(vtime.CatFault, extra)
			p.rt.met.faultDelays.Inc()
			p.rt.met.faultDelayNs.Observe(int64(extra))
			d += extra
		}
	}
	// Post-perturbation, so a fault-slowed rank's stretch is visible on
	// the live progress board.
	p.rt.progress.AddCompute(p.rank, int64(d))
	if o := p.rt.obs; o != nil {
		start := p.Clock.Now()
		p.Clock.Advance(d)
		p.rt.met.computeCalls.Inc()
		p.rt.met.computeNs.Observe(int64(d))
		o.Span(p.rank, "compute", obs.CatCompute, start, p.Clock.Now())
		return
	}
	p.Clock.Advance(d)
}

// ChargeOverhead advances the clock by d and books it to category c;
// used by the tracing layer to account its own work on the virtual
// timeline.
func (p *Proc) ChargeOverhead(c vtime.Category, d vtime.Duration) {
	p.Ledger.Charge(c, d)
	if o := p.rt.obs; o != nil && d > 0 {
		start := p.Clock.Now()
		p.Clock.Advance(d)
		name, cat := overheadSpan(c)
		o.Span(p.rank, name, cat, start, p.Clock.Now())
		return
	}
	p.Clock.Advance(d)
}

// Comm is one rank's handle on a communicator.
type Comm struct {
	p     *Proc
	id    CommID
	group []int // world ranks in this communicator, position = comm rank
	self  int   // this rank's position in group
}

// ID returns the communicator identity.
func (c *Comm) ID() CommID { return c.id }

// Size returns the communicator group size.
func (c *Comm) Size() int { return len(c.group) }

// Rank returns this process's rank within the communicator.
func (c *Comm) Rank() int { return c.self }

// Proc returns the owning process handle.
func (c *Comm) Proc() *Proc { return c.p }

// worldRank translates a communicator rank to a world rank.
func (c *Comm) worldRank(r int) int { return c.group[r] }

// Dup creates a new communicator with the same group. It must be called
// by all members; the CommID is derived deterministically from a shared
// counter fetched at the same collective point.
func (c *Comm) Dup() *Comm {
	// Synchronize the group, then allocate one shared ID at the root and
	// broadcast it.
	c.rawBarrier(0)
	var id CommID
	if c.self == 0 {
		id = c.p.rt.tr.allocComm(1)
	}
	id = CommID(c.treeBcastU64(0, collTag(c.id, c.nextSeq(), 0), uint64(id)))
	return &Comm{p: c.p, id: id, group: c.group, self: c.self}
}

// Config parameterizes a simulated run.
type Config struct {
	// P is the number of ranks.
	P int
	// Model is the virtual cost model (vtime.Default() if zero).
	Model vtime.CostModel
	// Hooks builds the per-rank interposer; nil runs untraced.
	Hooks func(p *Proc) Interposer
	// Obs receives runtime metrics, journal events, and timeline spans
	// (nil runs unobserved, at zero cost on the hot paths).
	Obs *obs.Observer
	// Fault injects crashes and perturbations (nil = none). Under a
	// network transport every process must be built with the same plan
	// and seed: the shared schedule doubles as the failure detector.
	Fault *fault.Injector
	// Transport routes messages between ranks. Nil hosts all P ranks in
	// this process (the historical behavior); a TCP transport hosts a
	// slice of the world here and the rest across OS processes.
	Transport Transport
}

// Result summarizes a completed run.
type Result struct {
	P        int
	Clocks   []vtime.Time
	Ledgers  []*vtime.Ledger
	Makespan vtime.Duration
	// Departed lists ranks that crash-stopped mid-run (sorted; empty
	// without fault injection).
	Departed []int
}

// AggregateLedger sums all per-rank ledgers (the paper reports
// "aggregated wall-clock times across all nodes").
func (r *Result) AggregateLedger() *vtime.Ledger {
	var agg vtime.Ledger
	for _, l := range r.Ledgers {
		agg.Merge(l)
	}
	return &agg
}

// MaxClock returns the latest per-rank final time.
func (r *Result) MaxClock() vtime.Time {
	var m vtime.Time
	for _, c := range r.Clocks {
		m = vtime.Max(m, c)
	}
	return m
}

// Run executes body on cfg.P simulated ranks and blocks until all ranks
// (and their Finalize hooks) complete.
func Run(cfg Config, body func(p *Proc)) (*Result, error) {
	if cfg.P <= 0 {
		return nil, fmt.Errorf("mpi: invalid rank count %d", cfg.P)
	}
	if cfg.Fault != nil && cfg.Fault.Ranks() != cfg.P {
		return nil, fmt.Errorf("mpi: fault injector built for %d ranks, run has %d", cfg.Fault.Ranks(), cfg.P)
	}
	zero := vtime.CostModel{}
	if cfg.Model == zero {
		cfg.Model = vtime.Default()
	}
	tr := cfg.Transport
	if tr == nil {
		tr = &inProcTransport{}
	}
	rt := &Runtime{
		p:         cfg.P,
		model:     cfg.Model,
		tr:        tr,
		mailboxes: make([]*mailbox, cfg.P),
		procs:     make([]*Proc, cfg.P),
		obs:       cfg.Obs,
		met:       newOpMetrics(cfg.Obs),
		causal:    cfg.Obs.CausalStore(),
		progress:  cfg.Obs.ProgressBoard(),
		fault:     cfg.Fault,
	}
	_, inProc := tr.(*inProcTransport)
	rt.evaluates = inProc && rt.causal == nil
	rt.gcond = sync.NewCond(&rt.gmu)
	for r, hi := tr.hosted(cfg.P); r <= hi; r++ {
		rt.local = append(rt.local, r)
	}
	group := make([]int, cfg.P)
	for i := range group {
		group[i] = i
	}
	for _, r := range rt.local {
		rt.mailboxes[r] = newMailbox(rt, r)
		p := &Proc{
			rank:    r,
			rt:      rt,
			Clock:   &vtime.Clock{},
			Ledger:  &vtime.Ledger{},
			hooks:   NopInterposer{},
			collSeq: make(map[CommID]int),
		}
		p.world = &Comm{p: p, id: CommWorld, group: group, self: r}
		p.marker = &Comm{p: p, id: CommMarker, group: group, self: r}
		p.shrunk = p.world
		rt.procs[r] = p
	}
	if cfg.Hooks != nil {
		for _, r := range rt.local {
			p := rt.procs[r]
			if h := cfg.Hooks(p); h != nil {
				p.hooks = h
			}
		}
	}
	if err := tr.start(rt); err != nil {
		return nil, err
	}
	defer tr.close()

	var wg sync.WaitGroup
	panics := make([]any, cfg.P)
	departed := make([]bool, cfg.P)
	for _, r := range rt.local {
		wg.Add(1)
		go func(p *Proc) {
			defer wg.Done()
			defer func() {
				if e := recover(); e != nil {
					if _, crashed := e.(crashExit); crashed && rt.fault != nil {
						// Scheduled crash-stop: the rank leaves quietly;
						// survivors already exclude it from every
						// subsequent barrier and collective.
						departed[p.rank] = true
						rt.progress.Depart(p.rank)
						rt.setState(p.rank, stateDone)
						rt.tr.noteDeparted(p.rank)
						return
					}
					panics[p.rank] = e
					rt.setState(p.rank, stateDone)
					// Unblock peers waiting on this rank; they unwind
					// with errAborted.
					p.rt.abort()
				}
			}()
			body(p)
			// Past the body: only tracing-layer traffic follows, which
			// the conservative wildcard matcher may disregard.
			rt.setState(p.rank, stateFinalizing)
			// MPI_Finalize: collective point where tracers flush.
			// The survivors synchronize among themselves; the departed
			// never reach finalize.
			ci, start := p.opBegin(CallInfo{Op: OpFinalize, Comm: CommWorld, Dest: NoPeer, Src: NoPeer, Root: 0})
			p.ShrunkWorld().rawBarrier(0)
			p.opEnd(ci, start)
			p.hooks.Finalize()
			rt.setState(p.rank, stateDone)
		}(rt.procs[r])
	}
	wg.Wait()
	var firstErr error
	for r, e := range panics {
		if e == nil {
			continue
		}
		if _, cascade := e.(abortError); cascade {
			continue // victim of another rank's failure
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("mpi: rank %d panicked: %v", r, e)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if rt.aborted.Load() {
		return nil, fmt.Errorf("mpi: run aborted")
	}
	res := &Result{P: cfg.P, Clocks: make([]vtime.Time, cfg.P), Ledgers: make([]*vtime.Ledger, cfg.P)}
	for _, r := range rt.local {
		res.Clocks[r] = rt.procs[r].Clock.Now()
		res.Ledgers[r] = rt.procs[r].Ledger
	}
	var gone []int
	for r, d := range departed {
		if d {
			gone = append(gone, r)
		}
	}
	// The transport completes the picture: the in-process backend owns
	// every rank already; a network backend exchanges per-rank results
	// so all processes return the same world-wide Result.
	return tr.finish(res, gone)
}
