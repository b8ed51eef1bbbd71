package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricDef names a metric and its unit. Direction and regression bound
// live in BENCHMARK.json only; the smoke test holds the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics of the untraced run. Every workload emits
// every one of them: the four pipeline workloads per job, archive_mixed
// per batch of ops, with its trace-stage metrics taken over the
// generation of its corpus.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"job_wall_s", "s"},
	{"allocs_per_event", "allocs"},
	{"alloc_mb_per_job", "MB"},
	{"vt_overhead_ratio", "ratio"},
	{"vt_intercomp_vms", "vms"},
	{"trace_bytes", "bytes"},
	{"disk_bytes_per_raw_byte", "ratio"},
}

// perLayer lists the metrics of the traced run, layer = package name.
// A workload that does not exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{"mpi.none_wall_s", "s"},
	{"mpi.calls", "count"},
	{"mpi.ns_per_call", "ns"},
	{"mpi.tcp.frames_out", "count"},
	{"mpi.tcp.bytes_out", "bytes"},
	{"mpi.tcp.bound_sweeps", "count"},
	{"mpi.tcp.ns_per_frame", "ns"},
	{"mpi.tcp.rendezvous_ms", "ms"},
	{"sig.intern_hit_ns", "ns"},
	{"sig.sites", "count"},
	{"tracer.events_per_s", "events/s"},
	{"tracer.record_span_s", "s"},
	{"tracer.record_ns_per_event", "ns"},
	{"tracer.events_observed", "count"},
	{"tracer.events_recorded", "count"},
	{"tracer.alloc_bytes", "bytes"},
	{"tracer.merge_steps", "count"},
	{"tracer.merge_compares", "count"},
	{"tracer.merge_bytes", "bytes"},
	{"trace.compress_ns_per_event", "ns"},
	{"trace.merge_pair_us", "us"},
	{"trace.encode_ms", "ms"},
	{"trace.decode_ms", "ms"},
	{"trace.nodes", "count"},
	{"trace.dynamic_events", "count"},
	{"core.marker_span_s", "s"},
	{"core.finalize_span_s", "s"},
	{"core.markers", "count"},
	{"core.votes", "count"},
	{"core.reclusterings", "count"},
	{"core.flushes", "count"},
	{"core.leads", "count"},
	{"core.online_trace_bytes", "bytes"},
	{"core.vt_marker_vms", "vms"},
	{"cluster.select_us", "us"},
	{"cluster.distance_ops", "count"},
	{"cluster.items_gathered", "count"},
	{"cluster.selections", "count"},
	{"cluster.vt_cluster_vms", "vms"},
	{"scalatrace.finalize_span_s", "s"},
	{"scalatrace.alloc_bytes_max_rank", "bytes"},
	{"store.encode_ms", "ms"},
	{"store.push_ms", "ms"},
	{"store.fetch_stats_ms", "ms"},
	{"store.ingest_local_ms_n0", "ms"},
	{"store.ingest_local_ms_n600", "ms"},
	{"store.dedup_ms", "ms"},
	{"store.get_run_ms", "ms"},
	{"store.put_p95_ms", "ms"},
	{"store.stats_p95_ms", "ms"},
	{"store.ops_per_s", "1/s"},
	{"store.manifest_bytes", "bytes"},
	{"store.disk_bytes_per_put", "bytes"},
	{"store.http_errors", "count"},
	{"store.throttled", "count"},
	{"mesh.replication_overhead", "ratio"},
	{"mesh.list_p50_ms", "ms"},
	{"mesh.fanouts", "count"},
	{"mesh.proxied", "count"},
	{"mesh.owners_ns", "ns"},
	{"zan.analyze_us", "us"},
	{"zan.stored_nodes", "count"},
	{"proc.peak_rss_mb", "MB"},
	{"proc.gc_cycles", "count"},
	{"proc.gc_pause_ms", "ms"},
	{"proc.cold_job_wall_s", "s"},
	{"bench.trace_overhead_pct", "%"},
}

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"stencil_ch_p1024", "phase_ch_p256", "lu_st_p256", "phase_fleet_p64x2", "archive_mixed"}

// metricValue is one measured metric. The spread fields are present
// for wall-clock metrics taken as the median of several samples.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// report is the outcome of one run of one workload.
type report struct {
	workload  string
	defs      []metricDef
	attempted int
	failed    int
	errs      []error
	values    map[string]metricValue
}

func newReport(workload string, traced bool) *report {
	r := &report{workload: workload, defs: endToEnd, values: map[string]metricValue{}}
	if traced {
		r.defs = perLayer
	}
	return r
}

func (r *report) unit(name string) string {
	for _, d := range r.defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("bench: metric " + name + " is not declared for this run")
}

// set records a single measured value.
func (r *report) set(name string, v float64) {
	r.values[name] = metricValue{Value: v, Unit: r.unit(name)}
}

// setMedian records the median of samples scaled by k, with quartiles.
func (r *report) setMedian(name string, samples []float64, k float64) {
	s := summarize(samples)
	r.values[name] = metricValue{Value: s.Median * k, Unit: r.unit(name), Q1: s.Q1 * k, Q3: s.Q3 * k, N: s.N}
}

// setTail records a percentile only when enough samples lie beyond it;
// a workload whose sample cannot support it reports 0.
func (r *report) setTail(name string, samples []float64, p float64) {
	v, _ := percentile(samples, p) // 0 when unsupported
	r.values[name] = metricValue{Value: v, Unit: r.unit(name), N: len(samples)}
}

// fail records failed operations.
func (r *report) fail(errs ...error) {
	r.failed += len(errs)
	r.errs = append(r.errs, errs...)
}

// fillIdle gives every declared but unset per-layer metric the value 0:
// the workload did no work in that layer.
func (r *report) fillIdle() {
	for _, d := range r.defs {
		if _, ok := r.values[d.name]; !ok {
			r.values[d.name] = metricValue{Unit: d.unit}
		}
	}
}

// missing lists declared metrics the run did not produce.
func (r *report) missing() []string {
	var out []string
	for _, d := range r.defs {
		if _, ok := r.values[d.name]; !ok {
			out = append(out, d.name)
		}
	}
	return out
}

func (r *report) correct() bool { return r.failed == 0 && r.attempted > 0 }

// print writes one line per metric, then the one-line JSON object the
// driver reads off the end of standard output.
func (r *report) print(w io.Writer) error {
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := r.values[n]
		line := fmt.Sprintf("%-20s %-32s %16.6g %s", r.workload, n, v.Value, v.Unit)
		if v.N > 1 && v.Q3 > 0 {
			line += fmt.Sprintf("  (q1 %.6g, q3 %.6g, n=%d)", v.Q1, v.Q3, v.N)
		}
		fmt.Fprintln(w, line)
	}
	for _, err := range r.errs {
		fmt.Fprintf(w, "%-20s FAILED: %v\n", r.workload, err)
	}
	type wire struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]wire, len(r.values))
	for n, v := range r.values {
		metrics[n] = wire{v.Value, v.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool            `json:"correct"`
		Attempted int             `json:"attempted"`
		Failed    int             `json:"failed"`
		Metrics   map[string]wire `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
