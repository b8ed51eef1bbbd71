package mpi

import (
	"slices"

	"chameleon/internal/obs"
)

// Fault-injection hooks. The runtime consults an optional fault.Injector
// at two seams: Compute (delay/slow perturbation of application work)
// and the marker barrier (crash-stop and membership changes). With no
// injector configured every branch below is skipped, so zero-fault runs
// take exactly the pre-fault code paths.

// crashExit is the panic value a crash-stop rank unwinds with; Run
// recognizes it as a scheduled departure, not a failure.
type crashExit struct {
	marker int
}

// shrunkCommBase is the CommID space for post-crash shrunken world
// views, indexed by membership epoch. It sits far above commUserBase so
// user Dup IDs can never collide.
const shrunkCommBase CommID = 1 << 20

// AliveRanks returns the sorted world ranks alive at this rank's
// current marker view: the run's shared [0,P) list until a crash fires,
// the survivors after. The slice is shared read-only state; callers
// must not mutate it.
func (p *Proc) AliveRanks() []int { return p.shrunk.group }

// Epoch returns this rank's current membership epoch (0 = full
// membership, +1 per crash that has fired): the one signal that the
// membership list has changed.
func (p *Proc) Epoch() int { return p.epoch }

// Departed reports whether rank has crashed as of this rank's view.
func (p *Proc) Departed(rank int) bool {
	if p.epoch == 0 {
		return false
	}
	_, alive := slices.BinarySearch(p.shrunk.group, rank)
	return !alive
}

// ShrunkWorld returns a world-like communicator over the surviving
// ranks. While membership is full it is CommWorld itself; after a crash
// it is a fresh communicator (distinct per epoch) whose group is the
// alive list. Failure-aware application bodies run their collectives on
// it so departed ranks are never waited on.
func (p *Proc) ShrunkWorld() *Comm { return p.shrunk }

// faultMarker runs the fault protocol at this rank's markerSeq-th marker
// barrier, before the barrier itself. Called only when an injector is
// configured. It has two jobs:
//
//  1. If this rank is scheduled to die at (or before) this marker, it
//     journals the crash and unwinds with crashExit — before the
//     interposer sees the barrier, so the tracer never records a marker
//     the rank did not complete.
//  2. Otherwise the rank refreshes its membership view from the
//     injector (the shared crash schedule doubles as a perfect failure
//     detector, so every survivor switches views at the same marker).
//     On a change, the marker communicator's group becomes the
//     survivors, and the barrier that follows runs over them.
func (p *Proc) faultMarker() {
	in := p.rt.fault
	m := p.markerSeq
	if cm := in.CrashMarker(p.rank); cm >= 0 && m >= cm {
		if o := p.rt.obs; o != nil {
			o.Emit(obs.Event{
				Kind: obs.KindFault, Rank: p.rank, VT: int64(p.Clock.Now()),
				Marker: m, Note: "crash-stop",
			})
			if mt := p.rt.met; mt != nil {
				mt.crashes.Inc()
			}
		}
		panic(crashExit{marker: m})
	}
	epoch := in.EpochAt(m)
	if epoch == p.epoch {
		return
	}
	alive := in.AliveAfter(m)
	self := TreePos(alive, p.rank)
	p.epoch = epoch
	p.marker.group, p.marker.self = alive, self
	p.shrunk = &Comm{p: p, id: shrunkCommBase + CommID(epoch), group: alive, self: self}
}

// voteEpochShift positions the membership epoch in the high bits of the
// word a barrier reduces. The words' sum stays below 2^20 (a vote is 0
// or 1 per rank, P < 2^20), and the epoch sum (epoch times members,
// below 2^40) stays below 2^60 after the shift, so the packed sum never
// overflows 64 bits.
const voteEpochShift = 20
