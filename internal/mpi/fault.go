package mpi

import (
	"fmt"

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
//     reduced membership it runs the barrier over the survivors under
//     the same interposer callbacks the ordinary path would fire: a
//     group allreduce of the word Pre left in CallInfo.Vote, with the
//     membership epoch in the word's high bits (see markerVote).
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
	ci.Vote = p.markerVote(alive, faultTag(m, 0), ci.Vote)
	p.opEnd(ci, start)
	return true
}

// voteEpochShift positions the membership epoch in the high bits of the
// word a shrunken marker barrier reduces. The words' sum stays below
// 2^20 (a vote is 0 or 1 per rank, P < 2^20), and the epoch sum (epoch
// times survivors, below 2^40) stays below 2^60 after the shift, so the
// packed sum never overflows 64 bits.
const voteEpochShift = 20

// markerVote is the marker barrier over the survivors: a group
// allreduce (sum) of word, which has the hops and bytes of GroupBarrier,
// whose broadcast leg already carries an 8-byte scalar. The word
// carries this rank's membership epoch in its high bits, so a survivor
// that entered on a stale view is caught here instead of corrupting the
// sum. Uses tags tag and tag|1.
func (p *Proc) markerVote(alive []int, tag int, word uint64) uint64 {
	epoch := uint64(p.epoch)
	sum := GroupAllreduceU64(p, alive, tag, word|epoch<<voteEpochShift, OpSum)
	if got, want := sum>>voteEpochShift, epoch*uint64(len(alive)); got != want {
		panic(fmt.Sprintf("mpi: marker vote epoch sum %d, want %d (rank %d epoch %d)",
			got, want, p.rank, epoch))
	}
	return sum & (1<<voteEpochShift - 1)
}
