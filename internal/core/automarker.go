package core

import "chameleon/internal/mpi"

// AutoMarker addresses the paper's discussion item (2): "Finding of a
// good location for inserting marker and choosing an appropriate
// frequency call are open problems ... This could be automated in some
// cases. For iterative scientific applications (most scientific codes),
// the main loop gets executed by all processes (and marker insertion can
// be automated)."
//
// The automation anchors on a recurring *collective* call site over the
// live world (ShrunkWorld): MPI requires every rank to invoke
// collectives on a communicator in the same order, so the k-th
// occurrence of a given world collective call site is a consistent
// global point — exactly the "progress reporting point" the paper
// inserts its marker at, discovered instead of hand-placed. A
// collective on any other communicator (a Split or a Group, or the
// marker communicator itself) is not counted: its members' k-th
// occurrence is not every rank's, so a marker fired there would wait
// on ranks that never reach it. The anchor is elected after an
// observation window of observeFor world collective events: the most
// frequent site wins (ties break on the
// site seen first, never on the signature, which folds program
// counters and so moves with code layout), which skips one-off setup broadcasts in favor of
// the per-timestep residual reduction. Every Frequency-th subsequent
// anchor occurrence enters the marker barrier on the application's
// behalf, so Chameleon's Pre and Post process it like a hand-placed
// marker (Algorithm 1/3, crash directives included) with no
// application change.
type AutoMarker struct {
	*Chameleon
	// Frequency triggers marker processing every n-th anchor occurrence.
	Frequency int

	counts map[uint64]int
	// seen lists the observed sites in first-seen order: the election's
	// tie-break.
	seen     []uint64
	observed int
	anchor   uint64
	fired    int
}

// observeFor is the anchor-election observation window in collective
// events.
const observeFor = 50

// NewAuto returns a hook factory for an auto-marking Chameleon: the
// application needs no Marker calls at all. CallFrequency is the anchor
// period; Algorithm 1 engages at every marker the anchor fires.
func NewAuto(col *Collector, opt Options) func(p *mpi.Proc) mpi.Interposer {
	opt = opt.Normalized()
	period := opt.CallFrequency
	opt.CallFrequency = 1
	inner := New(col, opt)
	return func(p *mpi.Proc) mpi.Interposer {
		return &AutoMarker{
			Chameleon: inner(p).(*Chameleon),
			Frequency: period,
			counts:    make(map[uint64]int),
		}
	}
}

// Post implements mpi.Interposer: record the event as usual, then check
// whether it completes an anchor period. The marker barrier it enters
// comes back here nested, and is Chameleon's alone to process.
func (a *AutoMarker) Post(ci *mpi.CallInfo) {
	a.Chameleon.Post(ci)
	if !ci.Op.IsCollective() || ci.Op == mpi.OpFinalize || ci.Comm != a.p.ShrunkWorld().ID() {
		return
	}
	// The recorder has just encoded this event; its stack signature is
	// the site identity (one map update per collective).
	site := a.rec.LastStack()
	if site == 0 {
		return
	}
	if a.anchor == 0 {
		if a.counts[site] == 0 {
			a.seen = append(a.seen, site)
		}
		a.counts[site]++
		a.observed++
		if a.observed >= observeFor {
			a.electAnchor()
		}
		return
	}
	if site != a.anchor {
		return
	}
	a.fired++
	if a.fired%a.Frequency != 0 {
		return
	}
	a.p.MarkerComm().Barrier()
}

// electAnchor picks the most frequent observed collective site, the
// first seen among equals. Every rank sees the same collective order,
// so the election is identical everywhere.
func (a *AutoMarker) electAnchor() {
	var best uint64
	bestCount := 0
	for _, site := range a.seen {
		if count := a.counts[site]; count > bestCount {
			best, bestCount = site, count
		}
	}
	a.anchor = best
	a.counts, a.seen = nil, nil
}
