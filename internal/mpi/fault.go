package mpi

import (
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

// faultTag namespaces the survivors' marker-barrier traffic per marker
// so successive shrunken barriers can never cross-match. Bit 56 keeps it
// clear of every other internal tag family.
func faultTag(marker, phase int) int {
	return 1<<56 | marker<<4 | phase
}

// groupFinalizeTag is the tag block for the survivors' finalize barrier.
const groupFinalizeTag = 1<<56 | 1<<18

// AliveRanks returns the sorted world ranks still alive at this rank's
// current marker view, or nil while membership is full (which is also
// the answer whenever fault injection is off). The slice is shared
// read-only state; callers must not mutate it.
func (p *Proc) AliveRanks() []int { return p.aliveView }

// Epoch returns this rank's current membership epoch (0 = full
// membership, +1 per crash that has fired).
func (p *Proc) Epoch() int { return p.epoch }

// Departed reports whether rank has crashed as of this rank's view.
func (p *Proc) Departed(rank int) bool {
	return p.deadView != nil && p.deadView[rank]
}

// ShrunkWorld returns a world-like communicator over the surviving
// ranks. While membership is full it is CommWorld itself; after a crash
// it is a fresh communicator (distinct per epoch) whose group is the
// alive list. Failure-aware application bodies run their collectives on
// it so departed ranks are never waited on.
func (p *Proc) ShrunkWorld() *Comm {
	if p.aliveView == nil {
		return p.world
	}
	if p.shrunk == nil || p.shrunk.id != shrunkCommBase+CommID(p.epoch) {
		self := TreePos(p.aliveView, p.rank)
		p.shrunk = &Comm{
			p:     p,
			id:    shrunkCommBase + CommID(p.epoch),
			group: p.aliveView,
			self:  self,
		}
	}
	return p.shrunk
}

// faultMarker runs the fault protocol for one marker barrier and reports
// whether it fully handled the barrier. Called only when an injector is
// configured. Order of business:
//
//  1. If this rank is scheduled to die at (or before) this marker, it
//     journals the crash and unwinds with crashExit — before the
//     interposer sees the barrier, so the tracer never records a marker
//     the rank did not complete.
//  2. Otherwise the rank refreshes its membership view from the
//     injector (the shared crash schedule doubles as a perfect failure
//     detector, so every survivor switches views at the same marker).
//  3. With full membership it reports false and the caller runs the
//     ordinary barrier — bit-identical to the no-fault path. With
//     reduced membership it runs a group barrier over the survivors
//     under the same interposer callbacks the ordinary path would fire.
func (p *Proc) faultMarker() bool {
	in := p.rt.fault
	p.markerSeq++
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
	alive := in.AliveAfter(m)
	if len(alive) == p.rt.p {
		p.aliveView, p.epoch, p.deadView = nil, 0, nil
		return false
	}
	p.aliveView = alive
	p.epoch = in.EpochAt(m)
	dead := make(map[int]bool, p.rt.p-len(alive))
	next := 0
	for r := 0; r < p.rt.p; r++ {
		if next < len(alive) && alive[next] == r {
			next++
			continue
		}
		dead[r] = true
	}
	p.deadView = dead
	ci, start := p.opBegin(CallInfo{Op: OpBarrier, Comm: CommMarker, Dest: NoPeer, Src: NoPeer, Root: NoPeer})
	GroupBarrier(p, alive, faultTag(m, 0))
	p.opEnd(ci, start)
	return true
}
