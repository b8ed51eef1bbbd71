package main

import (
	"fmt"
	"time"

	"chameleon"
	"chameleon/internal/apps"
	"chameleon/internal/cluster"
	"chameleon/internal/core"
	"chameleon/internal/mpi"
	"chameleon/internal/obs"
	"chameleon/internal/scalatrace"
	"chameleon/internal/sig"
	"chameleon/internal/vtime"
)

// windowTimes is one marker window of one rank (or, after folding, of
// all ranks): the time spent on the record path inside the window and
// on the marker that closed it. The last window of a run is closed by
// Finalize and has no marker time.
type windowTimes struct {
	Events   int           `json:"events"`
	RecordNs time.Duration `json:"record_ns"`
	MarkerNs time.Duration `json:"marker_ns"`
}

// rankTimes is what one rank's timing interposer accumulates. Each rank
// goroutine writes only its own element, so no lock is needed; the pad
// keeps neighbours off one cache line.
type rankTimes struct {
	windows  []windowTimes
	cur      windowTimes
	finalize time.Duration
	triple   sig.Triple
	haveSig  bool
	_        [64]byte
}

// timedHooks wraps a tracer's interposer and attributes each Post to
// the record path (a traced MPI call) or the marker path (the barrier
// on the marker communicator), and Finalize to itself. It adds one
// frame to the stack the tracer captures, so signatures under it are
// consistently different from an unwrapped run's.
type timedHooks struct {
	inner mpi.Interposer
	rt    *rankTimes
}

func (h *timedHooks) Pre(ci *mpi.CallInfo) { h.inner.Pre(ci) }

func (h *timedHooks) Post(ci *mpi.CallInfo) {
	marker := ci.Op == mpi.OpBarrier && ci.Comm == mpi.CommMarker
	if marker && !h.rt.haveSig {
		// The first window's signature triple is the clustering probe's
		// input; the marker resets the window, so read it first.
		if c, ok := h.inner.(*core.Chameleon); ok {
			h.rt.triple, h.rt.haveSig = c.Recorder().Win.Triple(), true
		}
	}
	start := time.Now()
	h.inner.Post(ci)
	d := time.Since(start)
	if marker {
		h.rt.cur.MarkerNs = d
		h.rt.windows = append(h.rt.windows, h.rt.cur)
		h.rt.cur = windowTimes{}
		return
	}
	h.rt.cur.Events++
	h.rt.cur.RecordNs += d
}

func (h *timedHooks) Finalize() {
	start := time.Now()
	h.inner.Finalize()
	h.rt.finalize = time.Since(start)
	h.rt.windows = append(h.rt.windows, h.rt.cur)
}

// layerSample is one traced trace stage folded over its ranks.
type layerSample struct {
	// Record and Marker are sums over the ranks; Finalize is the longest
	// rank's, since the collective finalize ends when its root does.
	Record, Marker, Finalize time.Duration
	Ranks, Events            int
	// Windows[i] sums marker window i over the ranks: the time-resolved
	// form of Record and Marker.
	Windows  []windowTimes
	Counters map[string]uint64
	Gauges   map[string]int64
	Triples  []sig.Triple
}

// layerTimer times the tracing layers of traced runs from outside and
// collects their counters through a per-run observer registry.
type layerTimer struct {
	obs     *obs.Observer
	ranks   []rankTimes // of the run in flight
	samples []layerSample
}

// begin readies the timer for one run of p ranks: a fresh registry, so
// that its counters are that run's alone, and one accumulator per rank,
// shared by every fleet member of the run.
func (lt *layerTimer) begin(p int) {
	lt.obs = obs.New(obs.Options{Metrics: true})
	lt.ranks = make([]rankTimes, p)
}

// run is chameleon.RunSpec + chameleon.Run for the two tracers the
// workloads use, with the tracer's hook factory wrapped in timedHooks.
// The public entry points build the interposer themselves, so timing it
// from outside means repeating their wiring here. Every member of a
// fleet must run through it: the wrapper's stack frame shifts call-site
// signatures, and ranks whose signatures differ would not cluster.
func (lt *layerTimer) run(spec apps.Spec, tr chameleon.Tracer, k int, t mpi.Transport) (*chameleon.Output, error) {
	ranks := lt.ranks
	wrap := func(factory func(*mpi.Proc) mpi.Interposer) func(*mpi.Proc) mpi.Interposer {
		return func(p *mpi.Proc) mpi.Interposer {
			return &timedHooks{inner: factory(p), rt: &ranks[p.Rank()]}
		}
	}
	mcfg := mpi.Config{P: spec.P, Obs: lt.obs, Transport: t}
	out := &chameleon.Output{P: spec.P}
	var finish func()
	switch tr {
	case chameleon.TracerScalaTrace:
		col := scalatrace.NewCollector(spec.P)
		mcfg.Hooks = wrap(scalatrace.New(col, scalatrace.Options{SigMode: spec.SigMode, Filter: spec.Filter}))
		finish = func() {
			out.Trace = col.File(spec.P, spec.Name, spec.Filter)
			out.AllocBytes = col.AllocBytes
		}
	case chameleon.TracerChameleon:
		if k <= 0 {
			k = spec.K
		}
		col := core.NewCollector(spec.P)
		mcfg.Hooks = wrap(core.New(col, core.Options{
			K: k, Algo: cluster.ParseAlgorithm(""), CallFrequency: 1,
			SigMode: spec.SigMode, Filter: spec.Filter,
		}))
		finish = func() {
			out.Trace = col.File(spec.P, spec.Name, spec.Filter)
			out.StateCalls = map[string]int{}
			for s := core.StateAT; s < core.NumStates; s++ {
				out.StateCalls[s.String()] = col.StateCalls[s]
			}
			out.Reclusterings = col.Reclusterings
			out.Leads = col.LeadRanks
			out.OnlineBytes = col.OnlineBytes
		}
	default:
		return nil, fmt.Errorf("layer timer: tracer %q is not wired", tr)
	}
	res, err := mpi.Run(mcfg, spec.Make(apps.BodyOpts{Freq: spec.Freq, Markers: tr == chameleon.TracerChameleon}))
	if err != nil {
		return nil, err
	}
	out.Time = res.Makespan
	agg := res.AggregateLedger()
	out.Overhead = agg.Overhead()
	out.OverheadBy = map[string]chameleon.Duration{
		"intra":     agg.Spent(vtime.CatIntra),
		"marker":    agg.Spent(vtime.CatMarker),
		"cluster":   agg.Spent(vtime.CatCluster),
		"intercomp": agg.Spent(vtime.CatInterComp),
	}
	finish()
	return out, nil
}

// fold sums the per-rank accumulators of the finished run into a
// sample. The caller waits for every fleet member first, so that the
// registry holds the whole world's counts.
func (lt *layerTimer) fold() {
	snap := lt.obs.Reg.Snapshot()
	s := layerSample{Counters: snap.Counters, Gauges: snap.Gauges}
	for i := range lt.ranks {
		rt := &lt.ranks[i]
		s.Finalize = max(s.Finalize, rt.finalize)
		if len(rt.windows) > 0 {
			s.Ranks++
		}
		if rt.haveSig {
			s.Triples = append(s.Triples, rt.triple)
		}
		for w, wt := range rt.windows {
			if w == len(s.Windows) {
				s.Windows = append(s.Windows, windowTimes{})
			}
			s.Windows[w].Events += wt.Events
			s.Windows[w].RecordNs += wt.RecordNs
			s.Windows[w].MarkerNs += wt.MarkerNs
			s.Events += wt.Events
			s.Record += wt.RecordNs
			s.Marker += wt.MarkerNs
		}
	}
	lt.samples = append(lt.samples, s)
	lt.ranks = nil
}
