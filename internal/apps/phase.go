package apps

import (
	"chameleon/internal/mpi"
	"chameleon/internal/vtime"
)

// Phase is a multi-phase solver skeleton built for exercising the
// transition graph (it mirrors examples/phasechange): the program
// alternates between a ring halo-exchange phase and a transpose phase
// (all-to-all plus a reduction). Every phase boundary changes the
// Call-Path signature, so a Chameleon run walks AT -> C -> L, flushes
// and re-clusters at each boundary, and finishes with a final flush —
// the Figure 3 behavior, packaged as a registry benchmark so the CLIs
// and the observability tests can run it by name.
func Phase(class Class, p int) Spec {
	const (
		phases        = 4
		stepsPerPhase = 40
	)
	return Spec{
		Name:  "PHASE",
		P:     p,
		Iters: phases * stepsPerPhase,
		Freq:  1,
		K:     3,
		Make: func(o BodyOpts) func(p *mpi.Proc) {
			bytes := haloBytes(8192, class, p)
			comp := computeTime(1*vtime.Millisecond, class, p)
			return func(pr *mpi.Proc) {
				w := pr.World()
				rank := pr.Rank()
				it := 0
				for phase := 0; phase < phases; phase++ {
					for step := 0; step < stepsPerPhase; step++ {
						// Neighbors are recomputed each step over the
						// surviving ranks so the ring re-closes around a
						// crashed rank; without faults this yields the
						// classic (rank±1) mod P ring.
						next, prev := ringNeighbors(pr)
						pr.Compute(vtime.Duration(float64(comp) * jitter(rank, it, 0.05)))
						if phase%2 == 0 {
							w.Sendrecv(next, 11, bytes, nil, prev, 11)
							w.Sendrecv(prev, 12, bytes, nil, next, 12)
						} else {
							// Each collective asks for the survivors
							// afresh: an automatically placed marker
							// may fire, and a crash with it, inside the
							// one before.
							pr.ShrunkWorld().Alltoall(bytes / pr.Size())
							pr.ShrunkWorld().Allreduce(8, uint64(rank), mpi.OpSum)
						}
						if o.CheckpointEvery > 0 && (it+1)%o.CheckpointEvery == 0 {
							checkpoint(pr, bytes, comp)
						}
						if markerAt(o, it) {
							Marker(pr)
						}
						it++
					}
				}
			}
		},
	}
}
