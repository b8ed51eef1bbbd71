package chameleon_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"chameleon"
	"chameleon/internal/obs"
)

// phaseObserved is the PHASE workload (the phasechange example as a
// registry benchmark) at P=16 with metrics, a timeline and a journal.
func phaseObserved(t *testing.T) e2e {
	return e2e{Spec: benchSpec(t, "PHASE", "A", 16), Obs: &chameleon.ObsOptions{Metrics: true, TimelineRanks: 16}}
}

// journalSequence compresses a journal into the run-length token form
// of the golden files ("AT C L*39 ... F"): token names an event, or
// skips it with "". Only rank-0 events are named: their relative order
// is rank 0's program order and therefore deterministic.
func journalSequence(events []obs.Event, token func(obs.Event) string) string {
	var parts []string
	last, n := "", 0
	flush := func() {
		if n == 1 {
			parts = append(parts, last)
		} else if n > 1 {
			parts = append(parts, fmt.Sprintf("%s*%d", last, n))
		}
	}
	for _, ev := range events {
		tok := token(ev)
		if tok == "" {
			continue
		}
		if tok == last {
			n++
			continue
		}
		flush()
		last, n = tok, 1
	}
	flush()
	return strings.Join(parts, " ")
}

// transitionToken names the state transitions of rank 0's journal.
func transitionToken(ev obs.Event) string {
	if ev.Kind == obs.KindTransition {
		return ev.To
	}
	return ""
}

// TestJournalGoldenPhaseChange locks the transition sequence the PHASE
// workload must produce — the Figure 3 walk: All-Tracing, one marker of
// Clustering, a Lead run per phase with a re-clustering at each phase
// change, and a final Finalize — against a golden file, and requires at
// least one phase-change flush in the journal.
func TestJournalGoldenPhaseChange(t *testing.T) {
	events, err := chameleon.ReadJournal(bytes.NewReader(runE2E(t, phaseObserved(t)).Journal))
	if err != nil {
		t.Fatalf("parse journal: %v", err)
	}

	got := journalSequence(events, transitionToken)
	const golden = "testdata/phase_states.golden"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read %s (regenerate by writing the FAIL output): %v", golden, err)
	}
	if got != strings.TrimSpace(string(want)) {
		t.Errorf("state sequence mismatch\n got: %s\nwant: %s", got, strings.TrimSpace(string(want)))
	}

	// The sequence must be the AT -> C -> L... walk ending in F, with a
	// re-clustering (another C) after the first Lead run.
	if !strings.HasPrefix(got, "AT C L") {
		t.Errorf("sequence does not start with AT C L: %s", got)
	}
	if !strings.HasSuffix(got, "F") {
		t.Errorf("sequence does not end in F: %s", got)
	}
	if strings.Count(got, "C") < 2 {
		t.Errorf("no re-clustering in sequence: %s", got)
	}

	flushes := map[string]int{}
	for _, ev := range events {
		if ev.Kind == obs.KindFlush {
			flushes[ev.Note]++
		}
	}
	if flushes[obs.FlushPhaseChange] < 1 {
		t.Errorf("no phase-change flush in journal: %v", flushes)
	}
	if flushes[obs.FlushFinal] != 1 {
		t.Errorf("want exactly one final flush: %v", flushes)
	}
}

// TestMetricsEndToEnd checks the acceptance criterion directly: a PHASE
// run emits nonzero mpi_*, core_*, cluster_*, and tracer_* series.
func TestMetricsEndToEnd(t *testing.T) {
	r := runE2E(t, phaseObserved(t))
	s, out := r.Obs.Reg.Snapshot(), r.Out

	nonzero := func(name string) uint64 {
		if v, ok := s.Counters[name]; ok {
			return v
		}
		if v, ok := s.Gauges[name]; ok {
			return uint64(v)
		}
		if h, ok := s.Histograms[name]; ok {
			return h.Count
		}
		t.Fatalf("metric %s not registered", name)
		return 0
	}
	for _, name := range []string{
		"mpi_sendrecv_calls_total",
		"mpi_alltoall_calls_total",
		"mpi_marker_barrier_total",
		"mpi_compute_vtime_ns",
		"core_marker_calls_total",
		"core_votes_total",
		"core_transitions_L_total",
		"core_flushes_total",
		"core_window_events",
		"cluster_distance_ops_total",
		"cluster_working_set_items",
		"tracer_events_observed_total",
		"tracer_merge_steps_total",
	} {
		if nonzero(name) == 0 {
			t.Errorf("metric %s is zero", name)
		}
	}

	// Rank-0-scoped counters count collective steps, not rank-multiplied
	// steps: every executed marker engages (Freq=1) and all but the first
	// trigger a vote.
	markers := s.Counters["core_marker_calls_total"]
	if int(markers) != out.StateCalls["AT"]+out.StateCalls["C"]+out.StateCalls["L"] {
		t.Errorf("marker calls %d != state calls %v", markers, out.StateCalls)
	}
	if votes := s.Counters["core_votes_total"]; votes != markers-1 {
		t.Errorf("votes = %d, want %d", votes, markers-1)
	}
	if got := s.Gauges["core_reclusterings_total"]; got != 0 {
		t.Errorf("reclusterings registered as gauge: %d", got)
	}
	if got := s.Counters["core_reclusterings_total"]; int(got) != out.Reclusterings {
		t.Errorf("reclusterings = %d, want %d", got, out.Reclusterings)
	}
	if got := s.Gauges["core_lead_count"]; int(got) != len(out.Leads) {
		t.Errorf("lead count = %d, want %d", got, len(out.Leads))
	}
	if got := s.Gauges["run_makespan_vtime_ns"]; got != int64(out.Time) {
		t.Errorf("makespan gauge = %d, want %d", got, int64(out.Time))
	}
}

// TestTimelineEndToEnd checks the Chrome trace export of a real run:
// valid JSON, complete events only, every category present.
func TestTimelineEndToEnd(t *testing.T) {
	o := runE2E(t, phaseObserved(t)).Obs
	var buf bytes.Buffer
	if err := o.Timeline.WriteChromeTraceFlows(&buf, nil); err != nil {
		t.Fatalf("write: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string  `json:"ph"`
			Cat string  `json:"cat"`
			Dur float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid chrome trace JSON: %v", err)
	}
	cats := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.Dur <= 0 {
			t.Fatalf("non-positive span duration: %+v", ev)
		}
		cats[ev.Cat]++
	}
	for _, cat := range []string{obs.CatCompute, obs.CatP2P, obs.CatColl, obs.CatMarker, obs.CatClustering, obs.CatTracer} {
		if cats[cat] == 0 {
			t.Errorf("no %q spans in timeline: %v", cat, cats)
		}
	}
}

// TestScalaTraceMallocsPerCall is the record path's allocation budget on
// a real code: LU class A at P=16 under ScalaTrace — every rank records
// every event and never sheds any — stays at or under one malloc per MPI
// call, whole job included (runtime, finalize merge). The first,
// observed run counts the calls and warms the process-wide site cache;
// the second, unobserved one is measured. At the parent of the PR that
// added this budget the figure was 5.2: a rank-list expansion in every
// leaf compare and a heap CallInfo per call.
func TestScalaTraceMallocsPerCall(t *testing.T) {
	o := runE2E(t, e2e{Spec: benchSpec(t, "LU", "A", 16), Tracer: chameleon.TracerScalaTrace,
		Obs: &chameleon.ObsOptions{Metrics: true}}).Obs
	calls := o.Reg.Snapshot().Counters["tracer_events_observed_total"]
	if calls == 0 {
		t.Fatal("observed run counted no MPI calls")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := chameleon.RunBenchmark("LU", "A", 16, chameleon.TracerScalaTrace, nil); err != nil {
		t.Fatalf("measured run: %v", err)
	}
	runtime.ReadMemStats(&after)
	perCall := float64(after.Mallocs-before.Mallocs) / float64(calls)
	t.Logf("%d mallocs over %d MPI calls: %.3f per call", after.Mallocs-before.Mallocs, calls, perCall)
	if perCall > 1.0 {
		t.Errorf("LU A P=16 under ScalaTrace: %.2f mallocs per MPI call, budget 1.0", perCall)
	}
}
