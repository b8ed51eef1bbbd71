package chameleon_test

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"chameleon"
	"chameleon/internal/causal"
)

// slowRank5 is PHASE P=8 with rank 5 slowed 4x, traced with causal
// capture, a timeline and a journal.
func slowRank5(t *testing.T) e2e {
	return e2e{Spec: benchSpec(t, "PHASE", "A", 8), Plan: "slow rank=5 factor=4x", Seed: 1,
		Obs: &chameleon.ObsOptions{TimelineRanks: 8, CausalRanks: 8}}
}

// TestStragglerGoldenSlowRank is the acceptance criterion: on a PHASE
// run with rank 5 slowed 4x, chain-origin attribution must assign the
// plurality of collective wait to rank 5, and the full report text is
// locked against a golden file.
func TestStragglerGoldenSlowRank(t *testing.T) {
	r := runE2E(t, slowRank5(t))
	events, err := chameleon.ReadJournal(bytes.NewReader(r.Journal))
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	rep := causal.Analyze(r.Obs.Causal.Edges(), events)
	if rep.EdgeCount == 0 {
		t.Fatal("no causal edges captured")
	}

	if len(rep.Stragglers) == 0 || rep.Stragglers[0].Rank != 5 {
		t.Fatalf("top straggler = %+v, want rank 5", rep.Stragglers)
	}
	top := rep.Stragglers[0]
	var rest int64
	for _, s := range rep.Stragglers[1:] {
		if s.CausedWait > rest {
			rest = s.CausedWait
		}
	}
	if top.CausedWait <= rest {
		t.Fatalf("rank 5 caused %d ns, runner-up %d ns: no plurality", top.CausedWait, rest)
	}
	// Every phase with meaningful wait should point at the same culprit.
	for _, ph := range rep.Phases {
		if ph.Wait > rep.TotalWait/10 && ph.TopRank != 5 {
			t.Errorf("phase %s blames rank %d, want 5", ph.State, ph.TopRank)
		}
	}

	var got bytes.Buffer
	if err := rep.WriteText(&got, 5); err != nil {
		t.Fatal(err)
	}
	const golden = "testdata/phase_straggler.golden"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read %s (regenerate by writing the FAIL output): %v", golden, err)
	}
	if got.String() != string(want) {
		t.Errorf("straggler report mismatch\n=== got ===\n%s=== want ===\n%s", got.String(), want)
	}
}

// TestFlowEventsLinkSlowRank checks the Perfetto export side of the
// criterion: the Chrome trace contains flow events, and rank 5's track
// sources flow arrows (its sends delayed receivers).
func TestFlowEventsLinkSlowRank(t *testing.T) {
	o := runE2E(t, slowRank5(t)).Obs
	var buf bytes.Buffer
	if err := o.Timeline.WriteChromeTraceFlows(&buf, o.Causal); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Tid int    `json:"tid"`
			Bp  string `json:"bp"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	starts, finishes, fromSlow := 0, 0, 0
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "s":
			starts++
			if ev.Tid == 5 {
				fromSlow++
			}
		case "f":
			finishes++
			if ev.Bp != "e" {
				t.Fatal(`flow finish must bind to the enclosing slice (bp:"e")`)
			}
		}
	}
	if starts == 0 || starts != finishes {
		t.Fatalf("flow events s=%d f=%d, want matched nonzero pairs", starts, finishes)
	}
	if fromSlow == 0 {
		t.Fatal("no flow arrows originate on the slowed rank's track")
	}
	if !strings.Contains(buf.String(), `"name":"chameleon_edges_dropped"`) {
		t.Fatal("trace missing the edges-dropped metadata event")
	}
}

// TestCausalDeterminism locks the capture itself: two identical runs
// must produce identical edge streams (virtual time, not wall clock,
// orders everything).
func TestCausalDeterminism(t *testing.T) {
	o1, o2 := runE2E(t, slowRank5(t)).Obs, runE2E(t, slowRank5(t)).Obs
	var b1, b2 bytes.Buffer
	if err := o1.Causal.WriteEdges(&b1); err != nil {
		t.Fatal(err)
	}
	if err := o2.Causal.WriteEdges(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("edge capture is not deterministic across identical runs")
	}
}
