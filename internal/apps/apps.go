// Package apps provides communication skeletons of the benchmarks the
// paper evaluates: NPB BT, LU, SP and CG, Sweep3D, POP and the EMF
// master/worker pipeline. A skeleton reproduces what the tracing layer
// observes — the per-rank MPI event stream (operations, call sites,
// end-points, sizes) and the inter-event computation times — without the
// numerics. Each skeleton also reproduces the structural features the
// evaluation depends on: BT/SP's fully symmetric torus exchanges (one
// Call-Path), LU's and Sweep3D's boundary-dependent wavefront branches
// (up to nine Call-Paths), POP's data-dependent solver iteration counts
// (requiring the parameter filter), EMF's master/worker asymmetry (two
// Call-Paths), and the one-off setup phases that produce the paper's
// All-Tracing marker counts (Table II).
package apps

import (
	"fmt"

	"chameleon/internal/mpi"
	"chameleon/internal/tracer"
	"chameleon/internal/vtime"
)

// Class is an NPB input class.
type Class struct {
	Name string
	// Scale is the problem-size multiplier relative to class A.
	Scale float64
}

// NPB input classes (Scale tracks the roughly 4x grid-volume growth per
// class).
var (
	ClassA = Class{Name: "A", Scale: 1}
	ClassB = Class{Name: "B", Scale: 4}
	ClassC = Class{Name: "C", Scale: 16}
	ClassD = Class{Name: "D", Scale: 64}
)

// ParseClass maps "A".."D" to a Class (D for unknown input).
func ParseClass(s string) Class {
	switch s {
	case "A", "a":
		return ClassA
	case "B", "b":
		return ClassB
	case "C", "c":
		return ClassC
	}
	return ClassD
}

// BodyOpts parameterizes how a benchmark body is instantiated.
type BodyOpts struct {
	// Freq is the marker insertion period in timesteps: the marker
	// barrier executes every Freq-th timestep, so the number of executed
	// marker calls is Iters/Freq (Table II's #Calls column).
	Freq int
	// Markers enables marker insertion at all. The paper's baseline
	// (ScalaTrace) binaries carry no markers; only Chameleon runs do.
	Markers bool
	// SyncEvery overrides the period of a skeleton's built-in global
	// synchronization (STENCIL's per-iteration residual Allreduce).
	// Zero keeps the skeleton's default; negative disables the sync
	// entirely. Idle-wave experiments disable it: a global sync
	// equalizes every rank's clock and kills traveling waves.
	SyncEvery int
	// CheckpointEvery, when positive, injects a Recorder-style
	// checkpoint/IO phase every that many timesteps into skeletons that
	// support it (STENCIL): ranks gather their block to rank 0, which
	// then burns an IO-write compute burst — a serial phase that both
	// diversifies the workload mix and acts as a noise source.
	CheckpointEvery int
}

// Spec is a runnable benchmark instance.
type Spec struct {
	// Name identifies the benchmark ("BT", "LU", ...).
	Name string
	// P is the rank count the spec was built for.
	P int
	// Iters is the number of timesteps.
	Iters int
	// Freq is the paper's marker frequency for this benchmark
	// (Table II): markers execute every Freq-th timestep.
	Freq int
	// K is the a-priori cluster count (Table I).
	K int
	// SigMode and Filter are the signature/merge settings the benchmark
	// needs (POP requires the parameter filter).
	SigMode tracer.SigMode
	Filter  bool
	// Make instantiates the per-rank program.
	Make func(o BodyOpts) func(p *mpi.Proc)
}

// Body instantiates the program with the spec's default marker settings.
func (s Spec) Body(markers bool) func(p *mpi.Proc) {
	return s.Make(BodyOpts{Freq: s.Freq, Markers: markers})
}

// markerAt reports whether a marker executes after timestep it (0-based)
// under the given options.
func markerAt(o BodyOpts, it int) bool {
	return o.Markers && o.Freq > 0 && (it+1)%o.Freq == 0
}

// checkpoint runs a Recorder-style checkpoint/IO phase: every rank
// contributes a state block (16 halo widths) to rank 0 over the
// survivor communicator, and the root then charges a serial IO-write
// burst sized to the gathered volume (~1 byte/ns, a 1 GB/s writer),
// floored at one compute step. Besides diversifying the workload mix,
// the root-side burst is a built-in noise source: it delays rank 0's
// next halo exchange and launches an idle wave from the array edge.
func checkpoint(pr *mpi.Proc, blockBytes int, comp vtime.Duration) {
	block := 16 * blockBytes
	pr.ShrunkWorld().Gather(0, block, nil)
	if pr.Rank() == 0 {
		io := vtime.Duration(len(pr.AliveRanks()) * block)
		if io < comp {
			io = comp
		}
		pr.Compute(io)
	}
}

// Marker invokes Chameleon's marker: an MPI_Barrier on the reserved
// marker communicator, inserted at the progress-reporting point of each
// timestep. Tracers that do not implement clustering ignore it.
func Marker(p *mpi.Proc) {
	p.MarkerComm().Barrier()
}

// grid2D factors p into the most square rows x cols decomposition
// (rows is the largest factor not exceeding sqrt(p)).
func grid2D(p int) (rows, cols int) {
	best := 1
	for f := 1; f*f <= p; f++ {
		if p%f == 0 {
			best = f
		}
	}
	return best, p / best
}

// ringNeighbors returns this rank's successor and predecessor (world
// ranks) on a ring over the surviving ranks: the classic (rank±1) mod P
// while all ranks live.
func ringNeighbors(pr *mpi.Proc) (next, prev int) {
	alive := pr.AliveRanks()
	pos := mpi.TreePos(alive, pr.Rank())
	n := len(alive)
	return alive[(pos+1)%n], alive[(pos+n-1)%n]
}

// jitter returns a deterministic multiplicative load perturbation in
// [1-amp, 1+amp] for (rank, step).
func jitter(rank, step int, amp float64) float64 {
	x := uint64(rank)*0x9e3779b97f4a7c15 + uint64(step)*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	u := float64(x%10000)/10000*2 - 1 // [-1, 1)
	return 1 + amp*u
}

// computeTime scales a per-rank, per-timestep computation duration with
// the input class and rank count (strong scaling divides the fixed
// problem across ranks).
func computeTime(base vtime.Duration, class Class, p int) vtime.Duration {
	d := vtime.Duration(float64(base) * class.Scale * 256.0 / float64(p))
	if d < 50*vtime.Microsecond {
		d = 50 * vtime.Microsecond
	}
	return d
}

// haloBytes scales a per-face halo message size with the class and rank
// count (face area shrinks with the square root of the per-rank share).
func haloBytes(base int, class Class, p int) int {
	b := int(float64(base) * sqrt(class.Scale*256.0/float64(p)))
	if b < 256 {
		b = 256
	}
	return b
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	g := x
	for i := 0; i < 32; i++ {
		g = (g + x/g) / 2
	}
	return g
}

// Registry returns the spec for a benchmark by name.
func Registry(name string, class Class, p int) (Spec, error) {
	switch name {
	case "BT", "bt":
		return BT(class, p), nil
	case "LU", "lu":
		return LU(class, p), nil
	case "SP", "sp":
		return SP(class, p), nil
	case "CG", "cg":
		return CG(class, p), nil
	case "POP", "pop":
		return POP(p), nil
	case "S3D", "s3d", "sweep3d", "Sweep3D":
		return Sweep3D(p), nil
	case "LUW", "luw":
		return LUWeak(class, p), nil
	case "EMF", "emf":
		return EMF(p), nil
	case "MG", "mg":
		return MG(class, p), nil
	case "FT", "ft":
		return FT(class, p), nil
	case "PHASE", "phase":
		return Phase(class, p), nil
	case "STENCIL", "stencil":
		return Stencil(class, p), nil
	}
	return Spec{}, fmt.Errorf("apps: unknown benchmark %q", name)
}

// Names lists the available benchmarks.
func Names() []string {
	return []string{"BT", "LU", "SP", "CG", "MG", "FT", "POP", "S3D", "LUW", "EMF", "PHASE", "STENCIL"}
}
