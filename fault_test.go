package chameleon_test

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"chameleon"
	"chameleon/internal/analysis"
	"chameleon/internal/apps"
	"chameleon/internal/obs"
)

// sortedJournal canonicalizes a journal: rank goroutines race to the
// shared writer, so line order varies run to run while the line *set*
// of a deterministic run does not.
func sortedJournal(raw []byte) string {
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// journalKinds counts journal events by kind.
func journalKinds(t testing.TB, raw []byte) map[string]int {
	t.Helper()
	events, err := chameleon.ReadJournal(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("parse journal: %v", err)
	}
	kinds := map[string]int{}
	for _, ev := range events {
		kinds[ev.Kind]++
	}
	return kinds
}

// assertSurvivorCoverage checks that the merged trace validates and
// contains events for every surviving rank (and none for the departed).
func assertSurvivorCoverage(t testing.TB, out *chameleon.Output) {
	t.Helper()
	if err := out.Trace.Validate(); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	dead := map[int]bool{}
	for _, r := range out.Departed {
		dead[r] = true
	}
	for _, v := range analysis.Volumes(out.Trace) {
		events := v.SendEvents + v.RecvEvents + v.CollEvents
		if !dead[v.Rank] && events == 0 {
			t.Errorf("surviving rank %d has no events in the trace", v.Rank)
		}
	}
}

// TestFaultDeterminism: the same plan and seed reproduce the run exactly
// (makespan, trace bytes, journal line set); a different seed perturbs
// differently.
func TestFaultDeterminism(t *testing.T) {
	const plan = "crash rank=1 at marker=10; delay ranks=2-7 p=0.3 jitter=2ms; slow rank=3 factor=2x"
	run := e2e{Spec: benchSpec(t, "PHASE", "A", 16), Plan: plan, Seed: 7, Obs: &chameleon.ObsOptions{}}
	a, b := runE2E(t, run), runE2E(t, run)
	if a.Out.Time != b.Out.Time {
		t.Errorf("makespan not deterministic: %v vs %v", a.Out.Time, b.Out.Time)
	}
	if !bytes.Equal(traceJSON(t, a.Out), traceJSON(t, b.Out)) {
		t.Errorf("trace bytes not deterministic")
	}
	if sortedJournal(a.Journal) != sortedJournal(b.Journal) {
		t.Errorf("journal event set not deterministic")
	}

	run.Seed = 9
	c := runE2E(t, run).Out
	if a.Out.Time == c.Time {
		t.Errorf("seed 7 and seed 9 produced the same makespan %v; jitter is not seeded", a.Out.Time)
	}
}

// TestPhaseLeadCrashFailover is the acceptance scenario: a PHASE run
// whose lead rank 1 crashes at a state-L marker completes, journals
// exactly one lead_failover, its trace validates and covers every
// surviving rank, and failover costs at most 5% of the clean run's
// virtual makespan.
func TestPhaseLeadCrashFailover(t *testing.T) {
	phase := benchSpec(t, "PHASE", "A", 16)
	r := runE2E(t, e2e{Spec: phase, Plan: "crash rank=1 at marker=10", Seed: 1, Obs: &chameleon.ObsOptions{}})
	out := r.Out
	if want := []int{1}; len(out.Departed) != 1 || out.Departed[0] != 1 {
		t.Fatalf("departed = %v, want %v", out.Departed, want)
	}
	if len(out.Trace.Retired) != 1 || out.Trace.Retired[0] != 1 {
		t.Fatalf("trace retired = %v, want [1]", out.Trace.Retired)
	}
	kinds := journalKinds(t, r.Journal)
	if kinds[obs.KindFailover] != 1 {
		t.Errorf("lead_failover events = %d, want 1", kinds[obs.KindFailover])
	}
	if kinds[obs.KindFault] != 1 {
		t.Errorf("fault events = %d, want 1", kinds[obs.KindFault])
	}
	assertSurvivorCoverage(t, out)
	for _, l := range out.Leads {
		if l == 1 {
			t.Errorf("dead rank 1 still in lead set %v", out.Leads)
		}
	}
	clean := runE2E(t, e2e{Spec: phase, Seed: 1, Obs: &chameleon.ObsOptions{}}).Out
	if out.Time > clean.Time+clean.Time/20 {
		t.Errorf("lead-crash makespan %v exceeds 1.05x the clean run's %v", out.Time, clean.Time)
	}
}

// TestReplayFaultedCollectiveTrace replays a crash trace end to end. A
// collective-only workload is used: the crash-lost windows then contain
// no point-to-point events whose surviving partners would wait forever
// (the documented replay limit for crash traces, see docs/FAULTS.md),
// and the partially-covered collective nodes exercise the replayer's
// group-collective path — the retired rank replays its pre-crash
// full-world events and finishes early.
func TestReplayFaultedCollectiveTrace(t *testing.T) {
	collectives := chameleon.Spec{P: 16, Make: func(apps.BodyOpts) func(*chameleon.Proc) {
		return func(p *chameleon.Proc) {
			for it := 0; it < 30; it++ {
				p.Compute(chameleon.Millisecond)
				p.ShrunkWorld().Allreduce(8, uint64(p.Rank()), chameleon.OpSum)
				chameleon.Marker(p)
			}
		}
	}}
	out := runE2E(t, e2e{Spec: collectives, Plan: "crash rank=3 at marker=10", Seed: 1, Config: chameleon.Config{K: 2}}).Out
	if len(out.Departed) != 1 || out.Departed[0] != 3 {
		t.Fatalf("departed = %v, want [3]", out.Departed)
	}
	if err := out.Trace.Validate(); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	rep, err := chameleon.Replay(out.Trace, chameleon.DefaultModel())
	if err != nil {
		t.Fatalf("replay of faulted collective trace: %v", err)
	}
	if rep.Time <= 0 {
		t.Errorf("replay makespan = %v", rep.Time)
	}
}

// TestStencilLeadPromotion exercises the promotion path proper: on the
// 4x4 STENCIL grid the interior cluster {5,6,9,10} is led by rank 5;
// crashing it must promote a surviving member (rank 6, the lowest
// survivor under the deterministic re-selection) rather than lose the
// cluster.
func TestStencilLeadPromotion(t *testing.T) {
	r := runE2E(t, e2e{Spec: benchSpec(t, "STENCIL", "A", 16), Plan: "crash rank=5 at marker=10", Seed: 1, Obs: &chameleon.ObsOptions{}})
	out := r.Out

	events, err := chameleon.ReadJournal(bytes.NewReader(r.Journal))
	if err != nil {
		t.Fatalf("parse journal: %v", err)
	}
	var failovers []obs.Event
	for _, ev := range events {
		if ev.Kind == obs.KindFailover {
			failovers = append(failovers, ev)
		}
	}
	if len(failovers) != 1 {
		t.Fatalf("lead_failover events = %d, want 1", len(failovers))
	}
	fo := failovers[0]
	if fo.Note != "promoted" {
		t.Fatalf("failover note = %q, want \"promoted\" (event: %+v)", fo.Note, fo)
	}
	if len(fo.Leads) != 2 || fo.Leads[0] != 5 || fo.Leads[1] != 6 {
		t.Errorf("failover leads = %v, want [5 6] (old, promoted)", fo.Leads)
	}
	promoted := false
	for _, l := range out.Leads {
		if l == 6 {
			promoted = true
		}
		if l == 5 {
			t.Errorf("dead rank 5 still in lead set %v", out.Leads)
		}
	}
	if !promoted {
		t.Errorf("promoted rank 6 not in final lead set %v", out.Leads)
	}
	assertSurvivorCoverage(t, out)
}

// TestConcurrentCrashDuringClustering crashes two ranks at the same
// early marker — inside the Clustering state, while signatures are
// being gathered — to exercise departure handling concurrent with the
// clustering collectives (run under -race by make test-race).
func TestConcurrentCrashDuringClustering(t *testing.T) {
	r := runE2E(t, e2e{Spec: benchSpec(t, "PHASE", "A", 16), Plan: "crash rank=4 at marker=2; crash rank=5 at marker=2", Seed: 1, Obs: &chameleon.ObsOptions{}})
	out := r.Out
	if len(out.Departed) != 2 {
		t.Fatalf("departed = %v, want [4 5]", out.Departed)
	}
	if kinds := journalKinds(t, r.Journal); kinds[obs.KindFault] != 2 {
		t.Errorf("fault events = %d, want 2", kinds[obs.KindFault])
	}
	assertSurvivorCoverage(t, out)
}

// TestCrashSweep crashes one rank at every marker of the PHASE and
// STENCIL examples: whatever state the run is in when the crash lands
// (All-Tracing, Clustering, Lead, a flush marker), the run must
// complete with a valid trace covering all survivors. Short mode
// strides the sweep.
func TestCrashSweep(t *testing.T) {
	stride := 1
	if testing.Short() {
		stride = 13
	}
	cases := []struct {
		bench   string
		rank    int
		markers int
	}{
		{"PHASE", 3, 160},
		{"STENCIL", 5, 60},
	}
	for _, tc := range cases {
		t.Run(tc.bench, func(t *testing.T) {
			spec := benchSpec(t, tc.bench, "A", 16)
			for m := 1; m <= tc.markers; m += stride {
				plan := fmt.Sprintf("crash rank=%d at marker=%d", tc.rank, m)
				out := runE2E(t, e2e{Spec: spec, Plan: plan, Seed: 1, Obs: &chameleon.ObsOptions{}}).Out
				if len(out.Departed) != 1 || out.Departed[0] != tc.rank {
					t.Fatalf("marker %d: departed = %v, want [%d]", m, out.Departed, tc.rank)
				}
				if err := out.Trace.Validate(); err != nil {
					t.Fatalf("marker %d: trace invalid: %v", m, err)
				}
				assertSurvivorCoverage(t, out)
			}
		})
	}
}

// failoverToken names the transitions, flushes and failovers of rank
// 0's journal.
func failoverToken(ev obs.Event) string {
	switch ev.Kind {
	case obs.KindTransition:
		return ev.To
	case obs.KindFlush:
		return "flush:" + ev.Note
	case obs.KindFailover:
		return "failover:" + ev.Note
	}
	return ""
}

// TestJournalGoldenLeadFailover locks the journal event sequences of
// one-lead-crash runs against golden files, one per failover flavor.
// PHASE loses a singleton cluster (its lead had no surviving members,
// so nothing re-traces); STENCIL promotes a survivor, whose sequence is
// the full vote -> failover -> one re-traced window -> failover flush.
func TestJournalGoldenLeadFailover(t *testing.T) {
	cases := []struct {
		bench, plan, golden, flavor string
	}{
		{"PHASE", "crash rank=1 at marker=10", "testdata/phase_failover.golden", "cluster-lost"},
		{"STENCIL", "crash rank=5 at marker=10", "testdata/stencil_failover.golden", "promoted"},
	}
	for _, tc := range cases {
		t.Run(tc.bench, func(t *testing.T) {
			journal := runE2E(t, e2e{Spec: benchSpec(t, tc.bench, "A", 16), Plan: tc.plan, Seed: 1, Obs: &chameleon.ObsOptions{}}).Journal
			events, err := chameleon.ReadJournal(bytes.NewReader(journal))
			if err != nil {
				t.Fatalf("parse journal: %v", err)
			}

			got := journalSequence(events, failoverToken)
			want, err := os.ReadFile(tc.golden)
			if err != nil {
				t.Fatalf("read %s (regenerate by writing the FAIL output): %v", tc.golden, err)
			}
			if got != strings.TrimSpace(string(want)) {
				t.Errorf("failover sequence mismatch\n got: %s\nwant: %s", got, strings.TrimSpace(string(want)))
			}

			if !strings.Contains(got, "failover:"+tc.flavor) {
				t.Errorf("no failover:%s token in sequence: %s", tc.flavor, got)
			}
			if tc.flavor != "promoted" {
				return
			}
			// The promotion shape: the failover flush exists and lands
			// after the failover itself (one re-traced window apart).
			fo := strings.Index(got, "failover:"+tc.flavor)
			fl := strings.Index(got, "flush:"+obs.FlushFailover)
			if fl < 0 {
				t.Fatalf("no failover flush in sequence: %s", got)
			}
			if fo > fl {
				t.Errorf("failover flush precedes the failover itself: %s", got)
			}
		})
	}
}
