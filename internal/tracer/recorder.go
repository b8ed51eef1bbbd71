// Package tracer provides the per-rank recording engine shared by every
// tracing tool in this repository (ScalaTrace, Chameleon, ACURDION): it
// sits inside the PMPI-style interposition hooks, encodes each MPI call
// into a trace event (stack signature, relative end-points, delta time),
// feeds the intra-node loop compressor, and maintains the per-window
// signature accumulators clustering consumes. The rest of the tools'
// skeleton lives here too: one Options, one Result with its File, and
// the lead table (Leads, AsCluster).
package tracer

import (
	"slices"

	"chameleon/internal/mpi"
	"chameleon/internal/obs"
	"chameleon/internal/ranklist"
	"chameleon/internal/sig"
	"chameleon/internal/trace"
	"chameleon/internal/vtime"
)

// SigMode selects how window Call-Path signatures are built.
type SigMode int

// Signature modes.
const (
	// SigFull folds every dynamic event occurrence with the (seq%10)+1
	// ordering multiplier — the paper's default construction.
	SigFull SigMode = iota
	// SigFiltered folds each distinct stack signature once, ignoring
	// occurrence counts — ScalaTrace's automatic parameter filter, which
	// makes irregular codes (POP's data-dependent solver iterations,
	// master/worker task counts) cluster as regular.
	SigFiltered
)

// Window accumulates the signature state of the events recorded between
// two marker calls. Mirroring the paper's O(n) signature creation over
// the PRSD-compressed notation, the Call-Path folds one term per
// *distinct call site* (with its occurrence count), not one term per
// dynamic event — a per-event XOR would self-cancel over long repetitive
// windows because every signature recurs under every (seq%10)+1
// multiplier an even number of times.
//
// Sites are tracked by their interned SiteID: a dense slice indexed by
// site locates each site's occurrence counter, so the steady state of a
// repetitive window (every site already seen) allocates nothing and
// never touches a hash map.
type Window struct {
	mode   SigMode
	sites  []siteCount // distinct sites in first-seen order
	pos    []int32     // SiteID → 1-based index into sites; 0 = unseen
	src    sig.Endpoint
	dest   sig.Endpoint
	events uint64
}

// siteCount is one distinct call site of a window and its occurrences.
type siteCount struct {
	site  sig.SiteID
	count uint64
}

// NewWindow returns an empty accumulator in the given mode.
func NewWindow(mode SigMode) *Window {
	return &Window{mode: mode}
}

// Add folds one event into the window. Events without an interned site
// (hand-built tests, decoded traces) are interned by signature on the fly, so
// identical signatures still collapse onto one accumulator slot.
func (w *Window) Add(ev trace.Event) {
	w.events++
	site := ev.Site
	if site == sig.NoSite {
		site = sig.Sites.InternSig(ev.Stack)
	}
	if int(site) >= len(w.pos) {
		// Size for every site interned so far, which this rank is
		// likely to meet too, not just for this one: a window holds at
		// most that many distinct sites. IDs start at 1, so the last
		// one interned is Len().
		n := max(int(site), sig.Sites.Len()) + 1
		grown := make([]int32, n)
		copy(grown, w.pos)
		w.pos = grown
		w.sites = slices.Grow(w.sites, n-len(w.sites))
	}
	p := w.pos[site]
	if p == 0 {
		w.sites = append(w.sites, siteCount{site: site})
		p = int32(len(w.sites))
		w.pos[site] = p
	}
	w.sites[p-1].count++
	if v, ok := ev.Src.SigValue(); ok {
		w.src.Add(v)
	}
	if v, ok := ev.Dest.SigValue(); ok {
		w.dest.Add(v)
	}
}

// Triple snapshots the window's signature triple: each distinct call
// site contributes once, scaled by the paper's (position%10)+1 ordering
// multiplier so permuted call sequences cannot cancel. SigFull folds the
// occurrence count into the term (repetition-count sensitive); the
// filtered mode drops it, so loops with data-dependent trip counts (POP)
// still produce a stable signature. Signatures come from the intern
// table's cache — the per-frame fold happened once, at intern time.
func (w *Window) Triple() sig.Triple {
	var cp uint64
	for i, sc := range w.sites {
		term := uint64(sig.Sites.Signature(sc.site))
		if w.mode == SigFull {
			term ^= sig.Mix(sc.count)
		}
		mult := uint64(i%10) + 1
		cp ^= term * mult
	}
	return sig.Triple{CallPath: cp, Src: w.src.Value(), Dest: w.dest.Value()}
}

// Events returns the number of events folded into the window.
func (w *Window) Events() uint64 { return w.events }

// DistinctSites returns the number of distinct call sites in the window
// (the paper's n for signature-creation cost).
func (w *Window) DistinctSites() int { return len(w.sites) }

// Reset clears the accumulators for the next window, keeping the backing
// storage so steady-state windows allocate nothing.
func (w *Window) Reset() {
	for _, sc := range w.sites {
		w.pos[sc.site] = 0
	}
	w.sites = w.sites[:0]
	w.src.Reset()
	w.dest.Reset()
	w.events = 0
}

// Recorder is the per-rank recording engine.
type Recorder struct {
	Proc *mpi.Proc
	// Comp is the rank's intra-node compressor (the partial trace).
	Comp trace.Compressor
	// Enabled gates trace-node construction; signature accumulation
	// stays on so disabled (non-lead) ranks can still vote on phase
	// changes. This is Chameleon's "lead flag".
	Enabled bool
	// Win holds the current marker window's signatures.
	Win *Window

	// lastEventEnd is the clock after the previous recorded event; the
	// difference to the next event's pre-call clock is its delta time.
	lastEventEnd vtime.Time
	// excluded accumulates tool-inserted spans (marker barriers, votes,
	// clustering) between events, subtracted from the next delta so
	// replay reproduces the unmarked application's computation times.
	excluded vtime.Duration
	// pre is the clock at the current call's Pre.
	pre vtime.Time
	// lastAnySrc remembers the matched source of the most recent
	// wildcard receive for ReplyToLast destination encoding.
	lastAnySrc int

	// lastStack is the stack signature of the most recently observed
	// event (consumed by automatic marker detection).
	lastStack sig.Stack

	// pool recycles the trace nodes this rank's compressor discards;
	// selfRanks is the rank's singleton rank list, shared by every leaf
	// (rank lists are immutable once built).
	pool      trace.Pool
	selfRanks ranklist.List

	// AllocBytes tracks cumulative trace bytes allocated by this rank
	// (monotone; deletion does not decrease it), for the space ledger.
	AllocBytes int
	// Events counts dynamic events recorded (not just observed).
	Events uint64
	// Observed counts dynamic events observed (recorded or not).
	Observed uint64

	// obsObserved/obsRecorded/obsAlloc are the pre-fetched metric
	// handles (nil, and no-ops, when observability is off).
	obsObserved *obs.Counter
	obsRecorded *obs.Counter
	obsAlloc    *obs.Counter
}

// NewRecorder builds a recorder for the rank with the given signature
// mode and the parameter filter setting.
func NewRecorder(p *mpi.Proc, mode SigMode, filter bool) *Recorder {
	r := &Recorder{
		Proc:       p,
		Enabled:    true,
		Win:        NewWindow(mode),
		lastAnySrc: -1,
		selfRanks:  ranklist.SingleRank(p.Rank()),
	}
	if o := p.Obs(); o != nil {
		r.obsObserved = o.Counter("tracer_events_observed_total")
		r.obsRecorded = o.Counter("tracer_events_recorded_total")
		r.obsAlloc = o.Counter("tracer_alloc_bytes_total")
	}
	r.Comp.Filter = filter
	r.Comp.Pool = &r.pool
	return r
}

// Pre implements mpi.Interposer for a tool that records every call: it
// notes the clock the call begins at.
func (r *Recorder) Pre(*mpi.CallInfo) { r.pre = r.Proc.Clock.Now() }

// Post implements mpi.Interposer: it records the completed call, unless
// it is the marker barrier (Chameleon's tool traffic) or MPI_Finalize.
func (r *Recorder) Post(ci *mpi.CallInfo) {
	if ci.Marker() || ci.Op == mpi.OpFinalize {
		return
	}
	r.Record(ci, r.pre, 1)
}

// Encode translates an intercepted call into a trace event. It is
// exported so tests can exercise encoding rules directly.
func (r *Recorder) Encode(ci *mpi.CallInfo, stack sig.Stack) trace.Event {
	self := r.Proc.Rank()
	ev := trace.Event{
		Op:    ci.Op,
		Stack: stack,
		Comm:  ci.Comm,
		Tag:   ci.Tag,
		Bytes: ci.Bytes,
		Dest:  trace.NoEndpoint,
		Src:   trace.NoEndpoint,
	}
	switch {
	case ci.Op.IsPointToPoint():
		if ci.Dest != mpi.NoPeer {
			if r.lastAnySrc >= 0 && ci.Dest == r.lastAnySrc {
				ev.Dest = trace.Endpoint{Kind: trace.EPReplyToLast}
			} else {
				ev.Dest = trace.Relative(normalizeOffset(ci.Dest-self, r.Proc.Size()))
			}
		}
		if ci.Src != mpi.NoPeer {
			if ci.Src == mpi.AnySource {
				ev.Src = trace.Endpoint{Kind: trace.EPAnySource}
			} else {
				ev.Src = trace.Relative(normalizeOffset(ci.Src-self, r.Proc.Size()))
			}
		}
	case ci.Op.IsCollective():
		if ci.Root != mpi.NoPeer {
			ev.Dest = trace.Absolute(ci.Root)
		}
	}
	return ev
}

// normalizeOffset reduces a relative end-point offset modulo the rank
// count into the signed range (-p/2, p/2]. Torus codes address wrapped
// neighbors as rank±c mod P, so normalizing makes the wrap ranks'
// encodings identical to the interior's — the location independence
// ScalaTrace's relative encodings exist to provide.
func normalizeOffset(off, p int) int {
	off = ((off % p) + p) % p
	if off > p/2 {
		off -= p
	}
	return off
}

// Record processes one completed call: encodes it, folds it into the
// window signatures, and (when enabled) appends it to the partial trace.
// preClock is the rank's clock when the call began; stackSkip tells the
// signature capture how many frames to drop above Record.
func (r *Recorder) Record(ci *mpi.CallInfo, preClock vtime.Time, stackSkip int) {
	model := r.Proc.Model()
	// Intern the call site: the backtrace walk and per-frame signature
	// fold run once per distinct site; loop iterations pay a frame-pointer
	// chain walk and a lock-free cache hit. CaptureSite's skip arithmetic
	// matches Capture's, so the observed frames are the ones Capture used
	// to fold.
	site := sig.CaptureSite(stackSkip + 1)
	ev := r.Encode(ci, sig.Sites.Signature(site))
	ev.Site = site
	r.Observed++
	r.obsObserved.Inc()

	// Track wildcard matches for ReplyToLast encoding. The update
	// happens after Encode so a send following the wildcard recv sees
	// the recv's source.
	if (ci.Op == mpi.OpRecv || ci.Op == mpi.OpWait || ci.Op == mpi.OpSendrecv) &&
		ci.Src == mpi.AnySource {
		r.lastAnySrc = ci.MatchedSrc
	}

	r.lastStack = ev.Stack
	// Window signatures are always maintained (voting needs them even on
	// non-lead ranks); charge the hashing cost to the intra category.
	r.Win.Add(ev)
	r.Proc.ChargeOverhead(vtime.CatIntra, model.SigPerEvent)

	if !r.Enabled {
		return
	}
	delta := int64(preClock-r.lastEventEnd) - int64(r.excluded)
	if delta < 0 {
		delta = 0
	}
	r.excluded = 0
	before := r.Comp.SizeBytes()
	leaf := r.pool.Leaf(ev, r.selfRanks, delta)
	r.Comp.AppendLeaf(leaf)
	r.Events++
	r.obsRecorded.Inc()
	if after := r.Comp.SizeBytes(); after > before {
		r.AllocBytes += after - before
		r.obsAlloc.Add(uint64(after - before))
	}
	r.Proc.ChargeOverhead(vtime.CatIntra, model.CompressPerEvent)
	r.lastEventEnd = r.Proc.Clock.Now()
}

// LastStack returns the stack signature of the most recently observed
// event (0 before the first event).
func (r *Recorder) LastStack() uint64 { return uint64(r.lastStack) }

// MarkEventBoundary resets the delta-time origin (used after flushes:
// "processes only need to keep the stack signature of the last event so
// that ScalaTrace considers the computation time between the last event
// and the new event").
func (r *Recorder) MarkEventBoundary() {
	r.lastEventEnd = r.Proc.Clock.Now()
	r.excluded = 0
}

// ExcludeSince subtracts the tool-inserted span from start to now
// (marker processing) from the next recorded event's delta, preserving
// the application computation that preceded it. If a MarkEventBoundary
// fell inside the span (a flush), the delta already starts there, so
// only the part after the boundary is subtracted.
func (r *Recorder) ExcludeSince(start vtime.Time) {
	if d := vtime.Duration(r.Proc.Clock.Now() - max(start, r.lastEventEnd)); d > 0 {
		r.excluded += d
	}
}

// TakePartial detaches and returns the current partial trace ("delete
// your partial trace" at the end of a flush). Ownership of the nodes
// moves to the caller.
func (r *Recorder) TakePartial() []*trace.Node {
	return r.Comp.Reset()
}

// DiscardPartial deletes the current partial trace, recycling its nodes
// into the recorder's pool — the path for ranks whose partial is flushed
// nowhere (non-leads at a lead flush, departed ranks).
func (r *Recorder) DiscardPartial() {
	r.pool.PutSeq(r.Comp.Reset())
}
