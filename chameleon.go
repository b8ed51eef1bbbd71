// Package chameleon is a reproduction of "Chameleon: Online Clustering
// of MPI Program Traces" (Bahmani & Mueller, IPDPS 2018) as a
// self-contained Go library.
//
// The package bundles everything the paper's system needs, built from
// scratch on the standard library:
//
//   - a deterministic in-process MPI runtime (goroutine ranks, MPI
//     matching semantics, log-P tree collectives, virtual-time cost
//     model) standing in for the paper's 108-node cluster;
//   - a ScalaTrace V2 reproduction: RSD/PRSD intra-node loop
//     compression, location-independent end-point encodings, rank
//     lists, and radix-tree inter-node compression;
//   - Chameleon itself: marker-driven phase recognition (the AT/C/L/F
//     transition graph voted on with O(log P) collectives), signature
//     clustering with K lead ranks, and the incrementally grown online
//     global trace;
//   - the ScalaTrace and ACURDION baselines, a ScalaReplay-style replay
//     engine with cluster-aware transposition, and communication
//     skeletons of the paper's benchmarks (NPB BT/LU/SP/CG, Sweep3D,
//     POP, EMF).
//
// Quick start: trace a benchmark under Chameleon and replay its trace.
//
//	out, err := chameleon.RunBenchmark("LU", "D", 64, chameleon.TracerChameleon, nil)
//	if err != nil { ... }
//	rep, err := chameleon.Replay(out.Trace, chameleon.DefaultModel())
//
// Custom applications use Run with a per-rank body; insert
// chameleon.Marker at timestep boundaries so clustering can engage:
//
//	out, err := chameleon.Run(chameleon.Config{P: 16, Tracer: chameleon.TracerChameleon, K: 4},
//	    func(p *chameleon.Proc) {
//	        w := p.World()
//	        for step := 0; step < 100; step++ {
//	            w.Sendrecv((p.Rank()+1)%p.Size(), 1, 1024, nil, (p.Rank()+p.Size()-1)%p.Size(), 1)
//	            chameleon.Marker(p)
//	        }
//	    })
package chameleon

import (
	"fmt"
	"io"

	"chameleon/internal/acurdion"
	"chameleon/internal/apps"
	"chameleon/internal/cluster"
	"chameleon/internal/core"
	"chameleon/internal/energy"
	"chameleon/internal/fault"
	"chameleon/internal/mpi"
	"chameleon/internal/obs"
	"chameleon/internal/replay"
	"chameleon/internal/scalatrace"
	"chameleon/internal/trace"
	"chameleon/internal/tracer"
	"chameleon/internal/vtime"
)

// Re-exported fundamental types so applications outside internal/ can
// program against the runtime.
type (
	// Proc is a rank's handle inside a simulated run.
	Proc = mpi.Proc
	// Comm is a communicator handle.
	Comm = mpi.Comm
	// Duration is a span of virtual nanoseconds.
	Duration = vtime.Duration
	// Time is a virtual timestamp.
	Time = vtime.Time
	// CostModel prices the simulated machine.
	CostModel = vtime.CostModel
	// TraceFile is a serialized global trace.
	TraceFile = trace.File
	// Spec is a runnable benchmark instance.
	Spec = apps.Spec
	// ReplayResult summarizes a replay run.
	ReplayResult = replay.Result
	// EnergyReport is the DVFS energy estimate of a traced run.
	EnergyReport = energy.Report
	// Observer is the observability hub (metrics registry, structured
	// event journal, virtual-time timeline); nil disables everything.
	Observer = obs.Observer
	// ObsOptions selects which Observer facilities to enable.
	ObsOptions = obs.Options
	// ObsEvent is one structured journal record.
	ObsEvent = obs.Event
	// ObsEdge is one matched send/recv causal edge pair.
	ObsEdge = obs.Edge
	// LiveShipper streams an Observer's state to a chamd live session.
	LiveShipper = obs.Shipper
	// LiveShipperOptions configures a live telemetry shipper.
	LiveShipperOptions = obs.ShipperOptions
	// FaultPlan is a parsed fault-injection plan (crash, delay, slow,
	// pulse and noise-generator directives).
	FaultPlan = fault.Plan
	// FaultInjector is a compiled, seeded fault plan ready to hook a run.
	FaultInjector = fault.Injector
)

// NewObserver assembles an Observer from the requested facilities; it
// returns nil (the disabled Observer) when none is enabled.
func NewObserver(o ObsOptions) *Observer { return obs.New(o) }

// NewLiveShipper builds a live telemetry shipper for the observer (see
// chamrun -live and docs/OBSERVABILITY.md).
func NewLiveShipper(o *Observer, opts LiveShipperOptions) (*LiveShipper, error) {
	return obs.NewShipper(o, opts)
}

// ReadJournal parses a JSONL observability journal back into events.
func ReadJournal(r io.Reader) ([]ObsEvent, error) { return obs.ReadJournal(r) }

// ReadEdges parses a JSONL causal edge stream back into edges.
func ReadEdges(r io.Reader) ([]ObsEdge, error) { return obs.ReadEdges(r) }

// ParseFaultPlan parses a fault-plan spec (the text directive grammar,
// or its JSON form when the input starts with '{'; see fault.Parse). An
// empty input yields an empty plan.
func ParseFaultPlan(spec string) (*FaultPlan, error) { return fault.Parse(spec) }

// LoadFaultPlan reads and parses a fault-plan file.
func LoadFaultPlan(path string) (*FaultPlan, error) { return fault.ParseFile(path) }

// NewFaultInjector validates the plan against the rank count and
// compiles it with the seed, which also draws the pulses of its random
// directives. An empty (or nil) plan returns a nil
// injector: the runtime fault hooks stay disabled and the run is
// bit-identical to an uninjected one.
func NewFaultInjector(p *FaultPlan, seed uint64, nranks int) (*FaultInjector, error) {
	return fault.NewInjector(p, seed, nranks)
}

// Wildcards for point-to-point matching.
const (
	AnySource = mpi.AnySource
	AnyTag    = mpi.AnyTag
)

// ReduceOp combines reduction operands.
type ReduceOp = mpi.ReduceOp

// Built-in reduction operators.
var (
	OpSum = mpi.OpSum
	OpMax = mpi.OpMax
	OpMin = mpi.OpMin
)

// Virtual-time units.
const (
	Nanosecond  = vtime.Nanosecond
	Microsecond = vtime.Microsecond
	Millisecond = vtime.Millisecond
	Second      = vtime.Second
)

// DefaultModel returns the calibrated virtual cost model.
func DefaultModel() CostModel { return vtime.Default() }

// Cart is a Cartesian topology view of a communicator.
type Cart = mpi.Cart

// NewCart attaches a Cartesian topology (dims, per-dimension
// periodicity) to a communicator, as MPI_Cart_create.
func NewCart(c *Comm, dims []int, periodic []bool) (*Cart, error) {
	return mpi.NewCart(c, dims, periodic)
}

// Marker invokes Chameleon's clustering marker (a barrier on the
// reserved marker communicator). Applications call it at timestep
// boundaries; under non-clustering tracers it is an inert barrier.
func Marker(p *Proc) { apps.Marker(p) }

// Tracer selects the tracing tool interposed on a run.
type Tracer string

// Available tracers.
const (
	// TracerNone runs the application uninstrumented.
	TracerNone Tracer = "none"
	// TracerScalaTrace is the baseline: full per-rank tracing with one
	// P-way radix-tree merge in Finalize.
	TracerScalaTrace Tracer = "scalatrace"
	// TracerChameleon is the paper's system: online clustering with K
	// lead ranks and an incrementally grown online trace.
	TracerChameleon Tracer = "chameleon"
	// TracerACURDION clusters once, in Finalize (Table III baseline).
	TracerACURDION Tracer = "acurdion"
	// TracerAutoChameleon is Chameleon with automatic marker insertion:
	// no application Marker calls needed — a recurring collective call
	// site is discovered and used as the timestep anchor (the paper's
	// discussion item on automating marker placement).
	TracerAutoChameleon Tracer = "chameleon-auto"
)

// Config parameterizes a traced run.
type Config struct {
	// P is the rank count.
	P int
	// Tracer selects the tool (TracerNone by default).
	Tracer Tracer
	// K is the cluster budget (Chameleon/ACURDION); 0 uses 9.
	K int
	// Freq is Chameleon's Call_Frequency; 0 uses 1.
	Freq int
	// Algo names the selector: "k-farthest" (default), "k-medoid",
	// "k-random".
	Algo string
	// SigFiltered selects the filtered Call-Path construction.
	SigFiltered bool
	// Filter enables the loop-parameter filter during merges.
	Filter bool
	// Model prices the simulated machine (DefaultModel if zero).
	Model CostModel
	// Benchmark labels the run in the trace file metadata.
	Benchmark string
	// Obs, when non-nil, receives metrics, journal events, and timeline
	// spans from the run (see NewObserver). Nil disables observability
	// at the cost of one pointer test per instrumented site.
	Obs *Observer
	// Fault, when non-nil, injects the compiled fault plan into the run
	// (crash-stop at markers, compute perturbation); see
	// NewFaultInjector. Nil leaves every fault hook disabled.
	Fault *FaultInjector
	// SyncEvery overrides the period of a skeleton's built-in global
	// synchronization (see apps.BodyOpts.SyncEvery): 0 keeps the
	// skeleton default, negative disables it. Idle-wave experiments
	// disable the sync — it equalizes clocks and kills traveling waves.
	// Only honored through RunSpec/RunBenchmark.
	SyncEvery int
	// CheckpointEvery, when positive, injects a Recorder-style
	// checkpoint/IO phase every that many timesteps into skeletons that
	// support it (see apps.BodyOpts.CheckpointEvery). Only honored
	// through RunSpec/RunBenchmark.
	CheckpointEvery int
	// Transport routes messages between ranks. Nil hosts all P ranks in
	// this process; a TCP transport (internal/fleet.Connect) hosts a
	// slice of the world here and the rest in peer OS processes. Under
	// a fleet, only the process hosting rank 0 produces the real merged
	// trace — collectors are per-process, and the tracers' merge trees
	// root at rank 0.
	Transport Transport
}

// Transport is the rank-message routing seam (see mpi.Transport).
type Transport = mpi.Transport

// Output captures everything a traced run produces.
type Output struct {
	// P is the rank count.
	P int
	// Time is the virtual makespan, including tracing overhead.
	Time Duration
	// Overhead is the aggregate tracing-layer time across ranks.
	Overhead Duration
	// OverheadBy splits Overhead by activity: "intra", "marker",
	// "cluster", "intercomp".
	OverheadBy map[string]Duration
	// Trace is the resulting global trace (nil under TracerNone).
	Trace *TraceFile
	// StateCalls counts marker calls per transition-graph state
	// (Chameleon only): "AT", "C", "L", "F".
	StateCalls map[string]int
	// Reclusterings is the paper's r (Chameleon only).
	Reclusterings int
	// Leads is the most recent lead-rank set (clustering tracers).
	Leads []int
	// CallPathClusters is the number of Call-Path groups at the last
	// clustering (Chameleon only).
	CallPathClusters int
	// SpaceByState is per-rank trace bytes allocated per state
	// (Chameleon only; indexed [rank][AT,C,L,F]).
	SpaceByState [][4]int
	// AllocBytes is per-rank cumulative trace allocation (ScalaTrace
	// and ACURDION).
	AllocBytes []int
	// OnlineBytes is rank 0's online-trace allocation (Chameleon only).
	OnlineBytes int
	// Energy estimates the run's energy and the DVFS saving available
	// from ranks whose tracing clustering disabled (the paper's future
	// work; zero saving for non-clustering tracers).
	Energy EnergyReport
	// Departed lists ranks that crash-stopped under fault injection
	// (ascending; empty without faults).
	Departed []int
}

func (c Config) sigMode() tracer.SigMode {
	if c.SigFiltered {
		return tracer.SigFiltered
	}
	return tracer.SigFull
}

// Run executes body on cfg.P simulated ranks under the configured
// tracer and returns the run's outputs.
func Run(cfg Config, body func(*Proc)) (*Output, error) {
	if cfg.P <= 0 {
		return nil, fmt.Errorf("chameleon: invalid rank count %d", cfg.P)
	}
	mcfg := mpi.Config{P: cfg.P, Model: cfg.Model, Obs: cfg.Obs, Fault: cfg.Fault, Transport: cfg.Transport}

	out := &Output{P: cfg.P}
	var finish func(res *mpi.Result)
	opt := tracer.Options{
		K:             cfg.K,
		Algo:          cluster.ParseAlgorithm(cfg.Algo),
		CallFrequency: cfg.Freq,
		SigMode:       cfg.sigMode(),
		Filter:        cfg.Filter,
	}

	switch cfg.Tracer {
	case "", TracerNone:
		finish = func(*mpi.Result) {}
	case TracerScalaTrace:
		col := scalatrace.NewCollector(cfg.P)
		mcfg.Hooks = scalatrace.New(col, opt)
		finish = func(*mpi.Result) {
			out.Trace = col.File(cfg.P, cfg.Benchmark, cfg.Filter)
			out.AllocBytes = col.AllocBytes
		}
	case TracerChameleon, TracerAutoChameleon:
		col := core.NewCollector(cfg.P)
		if cfg.Tracer == TracerChameleon {
			mcfg.Hooks = core.New(col, opt)
		} else {
			mcfg.Hooks = core.NewAuto(col, opt)
		}
		finish = func(res *mpi.Result) {
			model := cfg.Model
			if (model == CostModel{}) {
				model = DefaultModel()
			}
			saved := make([]vtime.Duration, cfg.P)
			for r := 0; r < cfg.P; r++ {
				saved[r] = energy.SavedTracingWork(model, col.ObservedPerRank[r], col.RecordedPerRank[r])
			}
			out.Energy = energy.Estimate(energy.Default(),
				energy.UsageFromLedgers(res.Clocks, res.Ledgers, saved))
			out.Trace = col.File(cfg.P, cfg.Benchmark, cfg.Filter)
			out.StateCalls = map[string]int{}
			for s := core.StateAT; s < core.NumStates; s++ {
				out.StateCalls[s.String()] = col.StateCalls[s]
			}
			out.Reclusterings = col.Reclusterings
			out.Leads = col.LeadRanks
			out.CallPathClusters = col.CallPathClusters
			out.SpaceByState = make([][4]int, cfg.P)
			raw := 0
			for r, row := range col.SpaceByState {
				out.SpaceByState[r] = [4]int(row)
				for _, b := range row {
					raw += b
				}
			}
			out.OnlineBytes = col.OnlineBytes
			if o := cfg.Obs; o != nil && o.Reg != nil && out.OnlineBytes > 0 {
				// Aggregate per-rank partial allocation vs. the online
				// global trace: the paper's inter-node compression ratio.
				o.Gauge("core_compression_ratio_x1000").Set(int64(raw) * 1000 / int64(out.OnlineBytes))
			}
		}
	case TracerACURDION:
		col := acurdion.NewCollector(cfg.P)
		mcfg.Hooks = acurdion.New(col, opt)
		finish = func(*mpi.Result) {
			out.Trace = col.File(cfg.P, cfg.Benchmark, cfg.Filter)
			out.AllocBytes = col.AllocBytes
			out.Leads = col.LeadRanks
		}
	default:
		return nil, fmt.Errorf("chameleon: unknown tracer %q", cfg.Tracer)
	}

	res, err := mpi.Run(mcfg, body)
	if err != nil {
		return nil, err
	}
	finish(res)
	if out.Energy == (EnergyReport{}) {
		out.Energy = energy.Estimate(energy.Default(),
			energy.UsageFromLedgers(res.Clocks, res.Ledgers, nil))
	}
	out.Time = res.Makespan
	agg := res.AggregateLedger()
	out.Overhead = agg.Overhead()
	out.OverheadBy = map[string]Duration{
		"intra":     agg.Spent(vtime.CatIntra),
		"marker":    agg.Spent(vtime.CatMarker),
		"cluster":   agg.Spent(vtime.CatCluster),
		"intercomp": agg.Spent(vtime.CatInterComp),
	}
	out.Departed = res.Departed
	if out.Trace != nil && len(res.Departed) > 0 {
		out.Trace.Retired = res.Departed
	}
	if o := cfg.Obs; o != nil && o.Reg != nil {
		o.Gauge("run_makespan_vtime_ns").Set(int64(out.Time))
		o.Gauge("run_overhead_vtime_ns").Set(int64(out.Overhead))
	}
	return out, nil
}

// NewBenchmark builds the spec for one of the paper's benchmarks
// ("BT", "LU", "SP", "CG", "POP", "S3D", "LUW", "EMF") at the given NPB
// class ("A".."D") and rank count.
func NewBenchmark(name, class string, p int) (Spec, error) {
	return apps.Registry(name, apps.ParseClass(class), p)
}

// RunBenchmark traces one of the paper's benchmarks with its Table I/II
// parameters (K, Call_Frequency, signature mode). Non-nil overrides are
// applied on top of the spec defaults.
func RunBenchmark(name, class string, p int, tr Tracer, override *Config) (*Output, error) {
	spec, err := NewBenchmark(name, class, p)
	if err != nil {
		return nil, err
	}
	return RunSpec(spec, tr, override)
}

// RunSpec traces a prepared benchmark spec. Markers are inserted only
// for the Chameleon tracer (the baselines run unmodified binaries, as in
// the paper); the marker period defaults to the spec's Table II
// frequency and can be overridden via override.Freq.
func RunSpec(spec Spec, tr Tracer, override *Config) (*Output, error) {
	cfg := Config{
		P:           spec.P,
		Tracer:      tr,
		K:           spec.K,
		Freq:        1, // engage every executed marker
		SigFiltered: spec.SigMode == tracer.SigFiltered,
		Filter:      spec.Filter,
		Benchmark:   spec.Name,
	}
	markerFreq := spec.Freq
	var syncEvery, checkpointEvery int
	if override != nil {
		if override.K > 0 {
			cfg.K = override.K
		}
		if override.Freq > 0 {
			markerFreq = override.Freq
		}
		if override.Algo != "" {
			cfg.Algo = override.Algo
		}
		zero := CostModel{}
		if override.Model != zero {
			cfg.Model = override.Model
		}
		cfg.Obs = override.Obs
		cfg.Fault = override.Fault
		cfg.Transport = override.Transport
		syncEvery = override.SyncEvery
		checkpointEvery = override.CheckpointEvery
	}
	if tr == TracerAutoChameleon {
		// Automatic marker insertion needs no in-application markers;
		// the frequency steers the anchor firing rate instead.
		cfg.Freq = markerFreq
	}
	body := spec.Make(apps.BodyOpts{
		Freq:            markerFreq,
		Markers:         tr == TracerChameleon,
		SyncEvery:       syncEvery,
		CheckpointEvery: checkpointEvery,
	})
	return Run(cfg, body)
}

// Replay interprets a global trace on f.P simulated ranks and returns
// the replay makespan (ScalaReplay; cluster-aware for clustered traces).
func Replay(f *TraceFile, model CostModel) (*ReplayResult, error) {
	return replay.Run(f, model)
}

// Accuracy is the paper's metric ACC = 1 − |t−t′|/t.
func Accuracy(t, tPrime Duration) float64 { return replay.Accuracy(t, tPrime) }

// Benchmarks lists the available benchmark names.
func Benchmarks() []string { return apps.Names() }
