package chameleon_test

import (
	"chameleon/internal/trace"
	"testing"

	"chameleon"
)

// tableII is the paper's Table II: per-benchmark marker-call and state
// counts, which this reproduction matches exactly.
var tableII = map[string]struct {
	c, l, at int
}{
	"BT":  {1, 8, 1},
	"LU":  {1, 11, 3},
	"SP":  {1, 21, 3},
	"POP": {1, 16, 3},
	"S3D": {1, 7, 2},
	"LUW": {1, 8, 1},
	"EMF": {1, 6, 2},
}

func TestTableIIStateCounts(t *testing.T) {
	for name, want := range tableII {
		name, want := name, want
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p := 16
			if name == "EMF" {
				p = 126 // the paper's smallest EMF configuration
			}
			out, err := chameleon.RunBenchmark(name, "D", p, chameleon.TracerChameleon, nil)
			if err != nil {
				t.Fatal(err)
			}
			if out.StateCalls["C"] != want.c || out.StateCalls["L"] != want.l || out.StateCalls["AT"] != want.at {
				t.Fatalf("states C/L/AT = %d/%d/%d, want %d/%d/%d",
					out.StateCalls["C"], out.StateCalls["L"], out.StateCalls["AT"],
					want.c, want.l, want.at)
			}
			if out.StateCalls["F"] != 1 {
				t.Fatalf("finalize calls = %d", out.StateCalls["F"])
			}
			if out.Reclusterings != 1 {
				t.Fatalf("reclusterings = %d, want 1", out.Reclusterings)
			}
		})
	}
}

func TestCallPathClasses(t *testing.T) {
	// Table I's K values follow the benchmarks' Call-Path structure:
	// symmetric torus codes have one class, wavefront codes up to nine,
	// POP three (latitude rows), EMF two (master vs workers).
	cases := map[string]int{"BT": 1, "SP": 1, "LU": 9, "S3D": 9, "POP": 3}
	for name, want := range cases {
		out, err := chameleon.RunBenchmark(name, "D", 16, chameleon.TracerChameleon, nil)
		if err != nil {
			t.Fatal(err)
		}
		if out.CallPathClusters != want {
			t.Fatalf("%s call-path classes = %d, want %d", name, out.CallPathClusters, want)
		}
	}
	emf, err := chameleon.RunBenchmark("EMF", "", 26, chameleon.TracerChameleon, nil)
	if err != nil {
		t.Fatal(err)
	}
	if emf.CallPathClusters != 2 {
		t.Fatalf("EMF call paths = %d", emf.CallPathClusters)
	}
}

func TestChameleonBeatsScalaTrace(t *testing.T) {
	// Observation 2's direction at small scale: the clustering machinery
	// (marker+cluster+intercomp) costs far less than the baseline's
	// P-way merge, and the gap grows with P.
	ratios := map[int]float64{}
	for _, p := range []int{16, 64} {
		st, err := chameleon.RunBenchmark("BT", "D", p, chameleon.TracerScalaTrace, nil)
		if err != nil {
			t.Fatal(err)
		}
		ch, err := chameleon.RunBenchmark("BT", "D", p, chameleon.TracerChameleon, nil)
		if err != nil {
			t.Fatal(err)
		}
		stOv := st.OverheadBy["intercomp"]
		chOv := ch.OverheadBy["marker"] + ch.OverheadBy["cluster"] + ch.OverheadBy["intercomp"]
		if chOv >= stOv {
			t.Fatalf("P=%d: Chameleon %v not below ScalaTrace %v", p, chOv, stOv)
		}
		ratios[p] = float64(stOv) / float64(chOv)
	}
	if ratios[64] <= ratios[16] {
		t.Fatalf("gap does not grow with P: %v", ratios)
	}
}

func TestReplayAccuracy(t *testing.T) {
	// Observation 3/5: clustered replay within the paper's accuracy band
	// (87-98% in the paper; we assert >= 85% against the application).
	type tc struct {
		name  string
		p     int
		class string
	}
	for _, c := range []tc{{"BT", 16, "C"}, {"LU", 16, "C"}, {"POP", 16, ""}, {"S3D", 16, ""}, {"EMF", 26, ""}} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			app, err := chameleon.RunBenchmark(c.name, c.class, c.p, chameleon.TracerNone, nil)
			if err != nil {
				t.Fatal(err)
			}
			ch, err := chameleon.RunBenchmark(c.name, c.class, c.p, chameleon.TracerChameleon, nil)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := chameleon.Replay(ch.Trace, chameleon.DefaultModel())
			if err != nil {
				t.Fatal(err)
			}
			acc := chameleon.Accuracy(chameleon.Duration(app.Time), rep.Time)
			if acc < 0.85 {
				t.Fatalf("accuracy = %.2f%%", acc*100)
			}
		})
	}
}

func TestReplayEventCoverage(t *testing.T) {
	// Chameleon must not miss any MPI event: the clustered replay
	// re-issues exactly as many dynamic events as the unclustered one.
	for _, name := range []string{"BT", "LU", "S3D"} {
		st, err := chameleon.RunBenchmark(name, "B", 16, chameleon.TracerScalaTrace, nil)
		if err != nil {
			t.Fatal(err)
		}
		ch, err := chameleon.RunBenchmark(name, "B", 16, chameleon.TracerChameleon, nil)
		if err != nil {
			t.Fatal(err)
		}
		stRep, err := chameleon.Replay(st.Trace, chameleon.DefaultModel())
		if err != nil {
			t.Fatal(err)
		}
		chRep, err := chameleon.Replay(ch.Trace, chameleon.DefaultModel())
		if err != nil {
			t.Fatal(err)
		}
		if stRep.Events != chRep.Events {
			t.Fatalf("%s: %d vs %d replayed events", name, stRep.Events, chRep.Events)
		}
	}
}

func TestACURDIONComparison(t *testing.T) {
	// Table III's direction: ACURDION (one clustering at Finalize) costs
	// less than Chameleon at the maximum marker-call count, and both
	// stay below ScalaTrace.
	const p = 64
	st, err := chameleon.RunBenchmark("BT", "D", p, chameleon.TracerScalaTrace, nil)
	if err != nil {
		t.Fatal(err)
	}
	ac, err := chameleon.RunBenchmark("BT", "D", p, chameleon.TracerACURDION, nil)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := chameleon.RunBenchmark("BT", "D", p, chameleon.TracerChameleon, &chameleon.Config{Freq: 1})
	if err != nil {
		t.Fatal(err)
	}
	stOv := st.OverheadBy["intercomp"]
	acOv := ac.OverheadBy["cluster"] + ac.OverheadBy["intercomp"]
	chOv := ch.OverheadBy["marker"] + ch.OverheadBy["cluster"] + ch.OverheadBy["intercomp"]
	if acOv >= chOv {
		t.Fatalf("ACURDION %v not below Chameleon-max-markers %v", acOv, chOv)
	}
	if chOv >= stOv {
		t.Fatalf("Chameleon-max-markers %v not below ScalaTrace %v", chOv, stOv)
	}
	// ACURDION replays too.
	rep, err := chameleon.Replay(ac.Trace, chameleon.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Events == 0 {
		t.Fatalf("ACURDION trace empty")
	}
}

func TestSpaceSavings(t *testing.T) {
	// Observation 9 / Table IV: non-leads allocate nothing during the
	// lead phase; ScalaTrace allocates everywhere.
	st, err := chameleon.RunBenchmark("BT", "D", 16, chameleon.TracerScalaTrace, nil)
	if err != nil {
		t.Fatal(err)
	}
	for r, b := range st.AllocBytes {
		if b <= 0 {
			t.Fatalf("ScalaTrace rank %d allocated %d", r, b)
		}
	}
	ch, err := chameleon.RunBenchmark("BT", "D", 16, chameleon.TracerChameleon, &chameleon.Config{Freq: 1})
	if err != nil {
		t.Fatal(err)
	}
	isLead := map[int]bool{}
	for _, l := range ch.Leads {
		isLead[l] = true
	}
	const stateL = 2
	for r := 0; r < 16; r++ {
		if !isLead[r] && ch.SpaceByState[r][stateL] != 0 {
			t.Fatalf("non-lead %d allocated %d bytes in L", r, ch.SpaceByState[r][stateL])
		}
	}
	if ch.OnlineBytes <= 0 {
		t.Fatalf("online trace bytes = %d", ch.OnlineBytes)
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	ch, err := chameleon.RunBenchmark("CG", "A", 16, chameleon.TracerChameleon, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/cg.trace"
	if err := ch.Trace.Save(path); err != nil {
		t.Fatal(err)
	}
	direct, err := chameleon.Replay(ch.Trace, chameleon.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := trace.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	viaDisk, err := chameleon.Replay(loaded, chameleon.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	if direct.Events != viaDisk.Events {
		t.Fatalf("events changed across serialization: %d vs %d", direct.Events, viaDisk.Events)
	}
	if direct.Time != viaDisk.Time {
		t.Fatalf("replay time changed: %v vs %v", direct.Time, viaDisk.Time)
	}
}

func TestCustomApplication(t *testing.T) {
	out, err := chameleon.Run(chameleon.Config{P: 8, Tracer: chameleon.TracerChameleon, K: 2},
		func(p *chameleon.Proc) {
			w := p.World()
			for step := 0; step < 40; step++ {
				p.Compute(100 * chameleon.Microsecond)
				w.Sendrecv((p.Rank()+1)%8, 1, 512, nil, (p.Rank()+7)%8, 1)
				if (step+1)%4 == 0 {
					chameleon.Marker(p)
				}
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if out.StateCalls["C"] != 1 || len(out.Leads) != 2 {
		t.Fatalf("custom app clustering: %v leads=%v", out.StateCalls, out.Leads)
	}
}

func TestConfigErrors(t *testing.T) {
	if _, err := chameleon.Run(chameleon.Config{P: 0}, func(*chameleon.Proc) {}); err == nil {
		t.Fatalf("P=0 accepted")
	}
	if _, err := chameleon.Run(chameleon.Config{P: 2, Tracer: "bogus"}, func(*chameleon.Proc) {}); err == nil {
		t.Fatalf("unknown tracer accepted")
	}
	if _, err := chameleon.RunBenchmark("NOPE", "A", 4, chameleon.TracerNone, nil); err == nil {
		t.Fatalf("unknown benchmark accepted")
	}
}

func TestClusteringAlgorithms(t *testing.T) {
	for _, algo := range []string{"k-farthest", "k-medoid", "k-random"} {
		out, err := chameleon.RunBenchmark("BT", "B", 16, chameleon.TracerChameleon, &chameleon.Config{Algo: algo})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if len(out.Leads) == 0 {
			t.Fatalf("%s: no leads", algo)
		}
		rep, err := chameleon.Replay(out.Trace, chameleon.DefaultModel())
		if err != nil {
			t.Fatalf("%s replay: %v", algo, err)
		}
		if rep.Events == 0 {
			t.Fatalf("%s: empty replay", algo)
		}
	}
}

func TestBenchmarksList(t *testing.T) {
	names := chameleon.Benchmarks()
	if len(names) < 8 {
		t.Fatalf("benchmarks = %v", names)
	}
	for _, n := range names {
		if _, err := chameleon.NewBenchmark(n, "A", 16); err != nil && n != "EMF" {
			t.Fatalf("%s: %v", n, err)
		}
	}
}

func TestAutoChameleonTracer(t *testing.T) {
	// The automatic marker mode needs no markers in the application and
	// still produces a clustered, replayable online trace.
	out, err := chameleon.RunBenchmark("SP", "C", 16, chameleon.TracerAutoChameleon, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.StateCalls["C"] != 1 {
		t.Fatalf("auto mode states: %v", out.StateCalls)
	}
	rep, err := chameleon.Replay(out.Trace, chameleon.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	st, err := chameleon.RunBenchmark("SP", "C", 16, chameleon.TracerScalaTrace, nil)
	if err != nil {
		t.Fatal(err)
	}
	stRep, err := chameleon.Replay(st.Trace, chameleon.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Events != stRep.Events {
		t.Fatalf("auto mode lost events: %d vs %d", rep.Events, stRep.Events)
	}
}

// TestAutoChameleonOutput: the auto-marked tracer reports what the
// hand-marked one does, from the same collector: per-state space, the
// online trace's bytes and the DVFS saving of the ranks clustering
// disabled.
func TestAutoChameleonOutput(t *testing.T) {
	out, err := chameleon.RunBenchmark("STENCIL", "A", 16, chameleon.TracerAutoChameleon, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Reclusterings == 0 {
		t.Fatalf("auto mode never clustered: %v", out.StateCalls)
	}
	if len(out.SpaceByState) != 16 {
		t.Errorf("SpaceByState has %d rows, want 16", len(out.SpaceByState))
	}
	if out.OnlineBytes <= 0 {
		t.Errorf("OnlineBytes = %d, want > 0", out.OnlineBytes)
	}
	if out.Energy.DVFSSavedJ <= 0 {
		t.Errorf("no DVFS saving: %+v", out.Energy)
	}
}

func TestEnergyReport(t *testing.T) {
	ch, err := chameleon.RunBenchmark("BT", "B", 16, chameleon.TracerChameleon, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Energy.TotalJ <= 0 || ch.Energy.ActiveJ <= 0 {
		t.Fatalf("energy report empty: %+v", ch.Energy)
	}
	// Chameleon's disabled non-leads expose a DVFS saving.
	if ch.Energy.DVFSSavedJ <= 0 {
		t.Fatalf("no DVFS saving: %+v", ch.Energy)
	}
	st, err := chameleon.RunBenchmark("BT", "B", 16, chameleon.TracerScalaTrace, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Energy.DVFSSavedJ != 0 {
		t.Fatalf("baseline claims a DVFS saving: %+v", st.Energy)
	}
}

func TestCommSplitViaFacade(t *testing.T) {
	out, err := chameleon.Run(chameleon.Config{P: 8}, func(p *chameleon.Proc) {
		row := p.Rank() / 4
		sub := p.World().Split(row, p.Rank())
		got := sub.Allreduce(8, uint64(1), chameleon.OpSum)
		if got != 4 {
			panic("row size wrong")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Time <= 0 {
		t.Fatalf("no time elapsed")
	}
}

func TestTracerOutputsValidate(t *testing.T) {
	// Every tracer's output passes structural validation.
	for _, tr := range []chameleon.Tracer{chameleon.TracerScalaTrace, chameleon.TracerChameleon, chameleon.TracerACURDION, chameleon.TracerAutoChameleon} {
		out, err := chameleon.RunBenchmark("SP", "B", 16, tr, nil)
		if err != nil {
			t.Fatalf("%s: %v", tr, err)
		}
		if err := out.Trace.Validate(); err != nil {
			t.Fatalf("%s trace invalid: %v", tr, err)
		}
	}
}
