package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"chameleon"
	"chameleon/internal/sig"
	"chameleon/internal/trace"
)

// traceFile is what a traced run leaves in out/trace-<workload>.json:
// every span, and the tracing layers' time per marker window.
type traceFile struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Spans    []*span `json:"spans"`
	// Windows[j][i] is marker window i of timed job j, summed over the
	// ranks: AT/C windows carry record time on every rank, L windows on
	// the leads only, and the marker time of a C window holds the
	// clustering and the first flush.
	Windows [][]windowTimes `json:"windows,omitempty"`
}

func writeTraceFile(c runConfig, sp *spans, lt *layerTimer) error {
	tf := traceFile{Workload: c.workload, Seed: c.seed, Spans: sp.finish()}
	if lt != nil {
		for _, s := range lt.samples {
			tf.Windows = append(tf.Windows, s.Windows)
		}
	}
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(c.outDir, "trace-"+c.workload+".json"), data, 0o644)
}

// procMetrics reports the process-wide context of every wall metric.
func procMetrics(rep *report, before *runtime.MemStats) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	rep.set("proc.gc_cycles", float64(m.NumGC-before.NumGC))
	rep.set("proc.gc_pause_ms", float64(m.PauseTotalNs-before.PauseTotalNs)/1e6)
	rep.set("proc.peak_rss_mb", peakRSSMB())
}

// peakRSSMB reads VmHWM from /proc/self/status (0 where there is none).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb) //nolint:errcheck — 0 on a malformed line
			return kb / 1024
		}
	}
	return 0
}

// stageWall returns the median wall of n plain trace stages, in seconds.
func (s jobSpec) stageWall(tr chameleon.Tracer, n int) (float64, error) {
	xs := make([]float64, n)
	for i := range xs {
		start := time.Now()
		if _, err := s.traceStage(tr, nil); err != nil {
			return 0, err
		}
		xs[i] = time.Since(start).Seconds()
	}
	return median(xs), nil
}

// layerMetrics derives the per-layer metrics of a pipeline workload
// from its plain jobs, its timed jobs, and the probes.
func layerMetrics(c runConfig, rep *report, s jobSpec, su *jobSetup, plain, timed []jobTimes,
	lt *layerTimer, sp *spans, gcBefore *runtime.MemStats) error {
	plainWall := median(column(plain, func(j jobTimes) float64 { return j.wall.Seconds() }))
	timedWall := median(column(timed, func(j jobTimes) float64 { return j.wall.Seconds() }))
	rep.set("bench.trace_overhead_pct", (timedWall/plainWall-1)*100)
	rep.set("proc.cold_job_wall_s", su.cold.wall.Seconds())

	// Stage spans of the timed jobs.
	rep.setMedian("store.encode_ms", sp.durations("store.encode"), 1)
	rep.setMedian("store.push_ms", sp.durations("store.push"), 1)
	rep.setMedian("store.fetch_stats_ms", sp.durations("store.fetch_stats"), 1)

	// The tracing layers, timed through the wrapped interposer; medians
	// over the timed jobs. The record path never blocks, so its sum over
	// the ranks is processor time. A marker blocks in its vote until the
	// slowest rank arrives, so its mean over the ranks is the wall time
	// the run spends in the marker protocol.
	sample := func(f func(layerSample) float64) float64 {
		xs := make([]float64, len(lt.samples))
		for i, ls := range lt.samples {
			xs[i] = f(ls)
		}
		return median(xs)
	}
	last := lt.samples[len(lt.samples)-1]
	rep.set("tracer.events_per_s", float64(su.ref.events)/
		median(column(plain, func(j jobTimes) float64 { return j.trace.Seconds() })))
	record := sample(func(ls layerSample) float64 { return ls.Record.Seconds() })
	rep.set("tracer.record_span_s", record)
	rep.set("tracer.record_ns_per_event", record*1e9/float64(max(1, last.Events)))
	finalize := sample(func(ls layerSample) float64 { return ls.Finalize.Seconds() })
	if s.tracer == chameleon.TracerScalaTrace {
		rep.set("scalatrace.finalize_span_s", finalize)
		maxAlloc := 0
		for _, b := range timed[len(timed)-1].out.AllocBytes {
			maxAlloc = max(maxAlloc, b)
		}
		rep.set("scalatrace.alloc_bytes_max_rank", float64(maxAlloc))
	} else {
		rep.set("core.finalize_span_s", finalize)
		rep.set("core.marker_span_s", sample(func(ls layerSample) float64 { return ls.Marker.Seconds() / float64(max(1, ls.Ranks)) }))
	}

	// Counts, from the observer registry of the last timed job. They
	// repeat exactly from job to job.
	for metric, counter := range map[string]string{
		"tracer.events_observed": "tracer_events_observed_total",
		"tracer.events_recorded": "tracer_events_recorded_total",
		"tracer.alloc_bytes":     "tracer_alloc_bytes_total",
		"tracer.merge_steps":     "tracer_merge_steps_total",
		"tracer.merge_compares":  "tracer_merge_compares_total",
		"tracer.merge_bytes":     "tracer_merge_bytes_total",
		"core.markers":           "core_marker_calls_total",
		"core.votes":             "core_votes_total",
		"core.reclusterings":     "core_reclusterings_total",
		"core.flushes":           "core_flushes_total",
		"cluster.distance_ops":   "cluster_distance_ops_total",
		"cluster.items_gathered": "cluster_items_gathered_total",
		"cluster.selections":     "cluster_selections_total",
	} {
		rep.set(metric, float64(last.Counters[counter]))
	}
	rep.set("core.leads", float64(last.Gauges["core_lead_count"]))
	rep.set("core.online_trace_bytes", float64(last.Gauges["core_online_trace_bytes"]))
	out := su.cold.out
	rep.set("core.vt_marker_vms", float64(out.OverheadBy["marker"])/float64(chameleon.Millisecond))
	rep.set("cluster.vt_cluster_vms", float64(out.OverheadBy["cluster"])/float64(chameleon.Millisecond))
	if got, want := last.Counters["tracer_events_observed_total"], su.ref.events; got != want {
		rep.fail(fmt.Errorf("ranks issued %d traced calls, the stats query reports %d events", got, want))
	}

	// The runtime alone: the same skeleton with no tracer, then once
	// more with the registry on to count its calls.
	noneWall, err := s.stageWall(chameleon.TracerNone, c.minJobs())
	if err != nil {
		return fmt.Errorf("untraced run: %w", err)
	}
	counter := &layerTimer{}
	if _, err := s.traceStage(chameleon.TracerNone, counter); err != nil {
		return fmt.Errorf("untraced run: %w", err)
	}
	var calls uint64
	for name, v := range counter.obs.Reg.Snapshot().Counters {
		if strings.HasPrefix(name, "mpi_") && strings.HasSuffix(name, "_calls_total") {
			calls += v
		}
	}
	rep.set("mpi.none_wall_s", noneWall)
	rep.set("mpi.calls", float64(calls))
	rep.set("mpi.ns_per_call", noneWall*1e9/float64(max(1, calls)))

	// The socket hop: what the fleet's trace stage costs over the same
	// world hosted in one process, per frame that crossed.
	if s.members != nil {
		inprocWall, err := s.inProcess().stageWall(s.tracer, c.minJobs())
		if err != nil {
			return fmt.Errorf("in-process twin: %w", err)
		}
		fleetWall := median(column(plain, func(j jobTimes) float64 { return j.trace.Seconds() }))
		// Frames repeat exactly from job to job; bytes only among plain
		// jobs, since a timed job ships other signatures, whose varints
		// may differ in length.
		tcp := plain[0].tcp
		for _, j := range plain {
			if j.tcp != tcp {
				rep.fail(fmt.Errorf("socket traffic differs between plain jobs: %+v vs %+v", j.tcp, tcp))
				break
			}
		}
		for _, j := range timed {
			if j.tcp.FramesOut != tcp.FramesOut {
				rep.fail(fmt.Errorf("a timed job crossed %d frames, a plain one %d", j.tcp.FramesOut, tcp.FramesOut))
				break
			}
		}
		rep.set("mpi.tcp.frames_out", float64(tcp.FramesOut))
		rep.set("mpi.tcp.bytes_out", float64(tcp.BytesOut))
		rep.set("mpi.tcp.bound_sweeps", float64(tcp.BoundSweeps))
		rep.set("mpi.tcp.ns_per_frame", (fleetWall-inprocWall)*1e9/float64(max(1, tcp.FramesOut)))
		rep.setMedian("mpi.tcp.rendezvous_ms", column(plain, func(j jobTimes) float64 { return j.rendezvous.Seconds() }), 1e3)
	}

	ref, err := trace.ReadBinary(bytes.NewReader(su.ref.payload))
	if err != nil {
		return err
	}
	if err := traceProbes(c, rep, ref, last.Triples, s.k); err != nil {
		return err
	}
	ratio, _, err := probeReplication(c, su.fl, &labeller{files: []*trace.File{ref}}, 0)
	if err != nil {
		return err
	}
	rep.set("mesh.replication_overhead", ratio)
	if err := storeProbes(c, rep, su.fl, [][]byte{su.ref.payload}, su.cold.run.ID); err != nil {
		return err
	}
	procMetrics(rep, gcBefore)
	rep.fillIdle()
	return writeTraceFile(c, sp, lt)
}

// traceProbes runs the probes that take a merged trace as input.
func traceProbes(c runConfig, rep *report, f *trace.File, triples []sig.Triple, k int) error {
	rep.set("sig.intern_hit_ns", probeSigIntern())
	rep.set("sig.sites", float64(sig.Sites.Len()))
	events := rankEvents(f.Nodes, 0, 20_000, nil)
	rep.set("trace.compress_ns_per_event", probeCompress(events))
	rep.set("trace.merge_pair_us", probeMergePair(events, f.P))
	enc, dec, err := probeCodec(f)
	if err != nil {
		return err
	}
	rep.set("trace.encode_ms", enc)
	rep.set("trace.decode_ms", dec)
	rep.set("trace.nodes", float64(trace.NodeCount(f.Nodes)))
	rep.set("trace.dynamic_events", float64(trace.DynamicEvents(f.Nodes)))
	us, stored, err := probeAnalyze(f)
	if err != nil {
		return err
	}
	rep.set("zan.analyze_us", us)
	rep.set("zan.stored_nodes", float64(stored))
	rep.set("cluster.select_us", probeSelectLeads(triples, k))
	return nil
}

// storeProbes runs the probes on a local archive and on the ring, and
// reads the peers' counters.
func storeProbes(c runConfig, rep *report, fl *fleet, payloads [][]byte, someID string) error {
	n := 600
	if c.toy {
		n = 8
	}
	ls, err := probeLocalStore(filepath.Join(c.workDir, "local"), payloads, n)
	if err != nil {
		return err
	}
	rep.set("store.ingest_local_ms_n0", ls.ingestN0)
	rep.set("store.ingest_local_ms_n600", ls.ingestN)
	rep.set("store.dedup_ms", ls.dedup)
	rep.set("store.get_run_ms", ls.get)
	rep.set("mesh.owners_ns", probeOwners(fl, someID))
	counters, err := fl.counters()
	if err != nil {
		return err
	}
	rep.set("store.http_errors", float64(counters["chamd_errors"]))
	rep.set("store.throttled", float64(counters["chamd_throttled"]))
	rep.set("mesh.fanouts", float64(counters["chamd_mesh_fanouts"]))
	rep.set("mesh.proxied", float64(counters["chamd_mesh_proxied"]))
	disk, err := fl.diskBytes()
	if err != nil {
		return err
	}
	rep.set("store.manifest_bytes", float64(fl.manifestBytes()))
	// store_ingests counts one write per replica.
	rep.set("store.disk_bytes_per_put", float64(disk)/float64(max(1, counters["store_ingests"]))*meshReplicas)
	return nil
}

// archiveLayerMetrics derives the per-layer metrics of archive_mixed.
func archiveLayerMetrics(c runConfig, rep *report, ar *archiveRun, replication float64, sp *spans,
	wall time.Duration, gcBefore *runtime.MemStats) error {
	rep.set("mesh.replication_overhead", replication)
	rep.set("store.ops_per_s", float64(ar.done)/wall.Seconds())
	rep.setMedian("store.push_ms", ar.lat[opPutCold], 1)
	rep.setMedian("store.fetch_stats_ms", ar.lat[opStats], 1)
	rep.setTail("store.put_p95_ms", ar.lat[opPutCold], 95)
	rep.setTail("store.stats_p95_ms", ar.lat[opStats], 95)
	rep.setMedian("mesh.list_p50_ms", ar.lat[opList], 1)
	rep.set("tracer.events_per_s", float64(ar.corpus.events)/ar.corpus.wall.Seconds())

	f, err := trace.ReadBinary(bytes.NewReader(ar.corpus.payloads[0]))
	if err != nil {
		return err
	}
	if err := traceProbes(c, rep, f, nil, 0); err != nil {
		return err
	}
	if err := storeProbes(c, rep, ar.fl, ar.corpus.payloads, ar.acked[0].id); err != nil {
		return err
	}
	procMetrics(rep, gcBefore)
	rep.fillIdle()
	return writeTraceFile(c, sp, nil)
}
