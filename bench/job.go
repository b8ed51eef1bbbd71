package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"chameleon"
	_ "chameleon/internal/fleet" // registers the wire codecs of the payloads tracers ship between fleet members
	"chameleon/internal/mpi"
	"chameleon/internal/store"
	"chameleon/internal/trace"
)

// jobSpec is one of the four pipeline workloads: a skeleton, a rank
// count, a tracer, and (for the fleet workload) how the world is split
// across TCP members hosted in this process.
type jobSpec struct {
	name    string
	bench   string
	p       int
	tracer  chameleon.Tracer
	k       int
	members [][2]int
}

// jobSpecs returns the pipeline workloads at full or toy scale. Toy
// scale keeps every code path (clustering, re-clustering, the P-way
// finalize merge, the socket hop) at P=16 so the smoke test runs in
// seconds.
func jobSpecs(toy bool) []jobSpec {
	specs := []jobSpec{
		{name: "stencil_ch_p1024", bench: "STENCIL", p: 1024, tracer: chameleon.TracerChameleon, k: 9},
		{name: "phase_ch_p256", bench: "PHASE", p: 256, tracer: chameleon.TracerChameleon, k: 3},
		{name: "lu_st_p256", bench: "LU", p: 256, tracer: chameleon.TracerScalaTrace},
		{name: "phase_fleet_p64x2", bench: "PHASE", p: 64, tracer: chameleon.TracerChameleon, k: 3,
			members: [][2]int{{0, 31}, {32, 63}}},
	}
	if toy {
		for i := range specs {
			specs[i].p = 16
			if specs[i].members != nil {
				specs[i].members = [][2]int{{0, 7}, {8, 15}}
			}
		}
	}
	return specs
}

// inProcess is the same world hosted by one process.
func (s jobSpec) inProcess() jobSpec {
	s.members = nil
	return s
}

// traced is the outcome of one trace stage.
type traced struct {
	out        *chameleon.Output
	tcp        mpi.TCPStats
	rendezvous time.Duration
}

// traceStage runs the skeleton on the spec's ranks until the merged
// global trace is in hand. With lt nil it goes through the public
// chameleon.RunSpec; with a layer timer it goes through the harness's
// own copy of that wiring, which wraps the tracer's interposer.
func (s jobSpec) traceStage(tr chameleon.Tracer, lt *layerTimer) (traced, error) {
	if lt != nil {
		lt.begin(s.p)
	}
	if s.members == nil {
		out, err := s.runMember(tr, nil, lt)
		if err == nil && lt != nil && tr != chameleon.TracerNone {
			lt.fold()
		}
		return traced{out: out}, err
	}
	join, err := freeAddr()
	if err != nil {
		return traced{}, err
	}
	outs := make([]*chameleon.Output, len(s.members))
	errs := make([]error, len(s.members))
	stats := make([]mpi.TCPStats, len(s.members))
	formed := make([]time.Duration, len(s.members))
	var wg sync.WaitGroup
	for i, m := range s.members {
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			start := time.Now()
			t, err := mpi.NewTCPTransport(mpi.TCPOptions{
				Join: join, RankLo: lo, RankHi: hi, P: s.p,
				Fingerprint: fmt.Sprintf("bench/%s/p%d", s.bench, s.p),
			})
			if err != nil {
				errs[i] = err
				return
			}
			formed[i] = time.Since(start)
			outs[i], errs[i] = s.runMember(tr, t, lt)
			stats[i] = t.Stats()
		}(i, m[0], m[1])
	}
	wg.Wait()
	res := traced{out: outs[0]}
	if err := errors.Join(errs...); err != nil {
		return traced{}, fmt.Errorf("fleet: %w", err)
	}
	for i := range s.members {
		res.tcp.FramesOut += stats[i].FramesOut
		res.tcp.BytesOut += stats[i].BytesOut
		res.tcp.BoundSweeps += stats[i].BoundSweeps
		if formed[i] > res.rendezvous {
			res.rendezvous = formed[i]
		}
	}
	if lt != nil && tr != chameleon.TracerNone {
		lt.fold()
	}
	return res, nil
}

func (s jobSpec) runMember(tr chameleon.Tracer, t mpi.Transport, lt *layerTimer) (*chameleon.Output, error) {
	spec, err := chameleon.NewBenchmark(s.bench, "A", s.p)
	if err != nil {
		return nil, err
	}
	if lt != nil && tr != chameleon.TracerNone {
		return lt.run(spec, tr, s.k, t)
	}
	cfg := &chameleon.Config{K: s.k, Transport: t}
	if lt != nil {
		cfg.Obs = lt.obs
	}
	return chameleon.RunSpec(spec, tr, cfg)
}

func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// jobTimes is what one job yields.
type jobTimes struct {
	wall, trace, encode, push, stats time.Duration
	mallocs, allocBytes              uint64
	tcp                              mpi.TCPStats
	rendezvous                       time.Duration
	out                              *chameleon.Output
	plain                            []byte // the trace encoded without its label
	events                           uint64 // dynamic events across ranks, as the stats query reports them
	run                              store.Run
}

// reference is the set-up job's result, which every measured job must
// reproduce: byte for byte when the job runs through the public entry
// point, in structure when the layer timer's extra stack frame has
// shifted every call-site signature.
type reference struct {
	payload []byte
	events  uint64
	shape   traceShape
}

// traceShape is what survives a consistent change of signatures.
type traceShape struct {
	dynamic, top, nodes, leads int
	states                     string
}

func shapeOf(out *chameleon.Output) traceShape {
	return traceShape{
		dynamic: int(trace.DynamicEvents(out.Trace.Nodes)),
		top:     len(out.Trace.Nodes),
		nodes:   trace.NodeCount(out.Trace.Nodes),
		leads:   len(out.Leads),
		states:  fmt.Sprint(out.StateCalls),
	}
}

func newReference(jt jobTimes) *reference {
	return &reference{payload: jt.plain, events: jt.events, shape: shapeOf(jt.out)}
}

// encodeUnlabelled encodes the trace with its run label cleared, the
// form in which two runs of one workload must be byte-identical.
func encodeUnlabelled(f *trace.File) ([]byte, error) {
	label := f.Benchmark
	f.Benchmark = ""
	payload, _, err := store.Encode(f)
	f.Benchmark = label
	return payload, err
}

// runJob does one closed-loop unit of work: trace, encode, push through
// one edge, query the stats through a different edge. A nil ref makes
// this job the reference; otherwise any departure from it is an error.
func (s jobSpec) runJob(fl *fleet, rng *rand.Rand, label string, ref *reference, lt *layerTimer, sp *spans) (jobTimes, error) {
	var jt jobTimes
	pushEdge := rng.Intn(len(fl.urls))
	statsEdge := (pushEdge + 1 + rng.Intn(len(fl.urls)-1)) % len(fl.urls)

	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	job := sp.begin("job", nil)
	t0 := time.Now()
	st := sp.begin("trace", job)
	tr, err := s.traceStage(s.tracer, lt)
	st.end()
	traceWall := time.Since(t0)
	if err != nil {
		return jt, fmt.Errorf("trace stage: %w", err)
	}
	runtime.ReadMemStats(&m1)

	tr.out.Trace.Benchmark = label
	t1 := time.Now()
	st = sp.begin("store.encode", job)
	payload, id, err := store.Encode(tr.out.Trace)
	st.end()
	if err != nil {
		return jt, fmt.Errorf("encode: %w", err)
	}
	t2 := time.Now()
	st = sp.begin("store.push", job)
	run, created, err := store.PushBytes(fl.urls[pushEdge], payload, false)
	st.end()
	if err != nil {
		return jt, fmt.Errorf("push: %w", err)
	}
	t3 := time.Now()
	st = sp.begin("store.fetch_stats", job)
	rep, err := store.FetchStats(fl.urls[statsEdge], run.ID)
	st.end()
	if err != nil {
		return jt, fmt.Errorf("fetch stats: %w", err)
	}
	t4 := time.Now()
	job.end()
	runtime.ReadMemStats(&m2)

	jt = jobTimes{
		wall:       traceWall + t4.Sub(t1),
		trace:      traceWall,
		encode:     t2.Sub(t1),
		push:       t3.Sub(t2),
		stats:      t4.Sub(t3),
		mallocs:    m1.Mallocs - m0.Mallocs,
		allocBytes: m2.TotalAlloc - m0.TotalAlloc,
		tcp:        tr.tcp,
		rendezvous: tr.rendezvous,
		out:        tr.out,
		events:     rep.Report.Events,
		run:        run,
	}

	// Correctness: a cold, distinct content address that the archive
	// agrees on; the query answers for the trace that was pushed; and
	// the trace is the reference trace.
	switch {
	case !created:
		return jt, fmt.Errorf("push of %q was not a cold write", label)
	case run.ID != id:
		return jt, fmt.Errorf("archive address %s != local address %s", run.ID, id)
	case run.Events != trace.DynamicEvents(tr.out.Trace.Nodes):
		return jt, fmt.Errorf("manifest events %d != trace.DynamicEvents %d", run.Events, trace.DynamicEvents(tr.out.Trace.Nodes))
	case rep.ID != id || rep.Report == nil || rep.Report.P != s.p:
		return jt, fmt.Errorf("stats answered for %s p=%d, want %s p=%d", rep.ID, rep.Report.P, id, s.p)
	}
	plain, err := encodeUnlabelled(tr.out.Trace)
	if err != nil {
		return jt, err
	}
	jt.plain = plain
	switch {
	case ref == nil:
	case jt.events != ref.events:
		return jt, fmt.Errorf("stats report %d events, reference %d", jt.events, ref.events)
	case lt != nil && shapeOf(tr.out) != ref.shape:
		return jt, fmt.Errorf("timed trace has shape %+v, reference %+v", shapeOf(tr.out), ref.shape)
	case lt == nil && !bytes.Equal(plain, ref.payload):
		return jt, fmt.Errorf("trace differs from the reference run's (%d vs %d bytes)", len(plain), len(ref.payload))
	}
	return jt, nil
}
