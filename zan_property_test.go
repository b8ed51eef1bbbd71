// Property test for the compressed-domain analysis engine: for every
// application skeleton, rank count, and tracer we exercise, the metrics
// zan computes by walking the compressed trace once must equal the
// replay-derived reference — the expansion oracle field by field
// (integer metrics bit-equal, pooled float moments within
// analysis.OracleTol), and the replayer's dynamic event count exactly.
// Faulted runs with departed ranks and iteration-scaled traces are
// covered too.
package chameleon_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"chameleon"
	"chameleon/internal/analysis"
	"chameleon/internal/mpi"
	"chameleon/internal/trace"
	"chameleon/internal/zan"
)

// scaleTopIters returns a copy of the trace with every top-level loop's
// iteration count multiplied by k — the "run the same program k times
// longer" transform. The compressed representation keeps its exact
// size; only the dynamic event counts grow.
func scaleTopIters(f *trace.File, k uint64) *trace.File {
	out := *f
	out.Nodes = make([]*trace.Node, len(f.Nodes))
	for i, n := range f.Nodes {
		c := n.Clone()
		if c.IsLoop() {
			c.Iters = c.MeanIters() * k
			c.ItersHist = nil
		}
		out.Nodes[i] = c
	}
	return &out
}

func crossCheck(t *testing.T, f *chameleon.TraceFile) *zan.Report {
	t.Helper()
	rep, err := analysis.CrossCheck(f, chameleon.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// propPs returns the rank counts to exercise for a benchmark: 16 works
// for every skeleton; the communication-pattern-flexible ones also run
// small, and EMF only runs at its native master/worker size.
func propPs(name string) []int {
	switch name {
	case "EMF":
		return []int{26}
	case "PHASE", "CG", "STENCIL":
		return []int{8, 16}
	}
	return []int{16}
}

func TestCompressedMetricsMatchReplayDerived(t *testing.T) {
	tracers := []chameleon.Tracer{chameleon.TracerScalaTrace, chameleon.TracerChameleon}
	for _, name := range chameleon.Benchmarks() {
		for _, p := range propPs(name) {
			for _, tr := range tracers {
				name, p, tr := name, p, tr
				t.Run(fmt.Sprintf("%s/P%d/%s", name, p, tr), func(t *testing.T) {
					t.Parallel()
					class := "A"
					if name == "EMF" {
						class = ""
					}
					out, err := chameleon.RunBenchmark(name, class, p, tr, nil)
					if err != nil {
						t.Fatal(err)
					}
					rep := crossCheck(t, out.Trace)
					if rep.Events == 0 {
						t.Fatal("trace represents no events")
					}
				})
			}
		}
	}
}

func TestCompressedMetricsScaleWithIters(t *testing.T) {
	out, err := chameleon.RunBenchmark("PHASE", "A", 8, chameleon.TracerChameleon, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := crossCheck(t, out.Trace)
	for _, k := range []uint64{4, 16} {
		scaled := scaleTopIters(out.Trace, k)
		rep := crossCheck(t, scaled)
		if rep.StoredNodes != base.StoredNodes {
			t.Errorf("x%d: stored nodes %d != %d — scaling must not grow the representation",
				k, rep.StoredNodes, base.StoredNodes)
		}
		if rep.Events <= base.Events {
			t.Errorf("x%d: events %d did not grow from %d", k, rep.Events, base.Events)
		}
	}

	// The walk multiplies per-iteration contributions instead of
	// expanding loops, so its allocation count may not depend on the
	// iteration counts at all.
	analyzeAllocs := func(f *trace.File) (float64, int) {
		var nodes int
		allocs := testing.AllocsPerRun(10, func() {
			rep, err := zan.Analyze(f, zan.Options{Model: chameleon.DefaultModel()})
			if err != nil {
				t.Fatal(err)
			}
			nodes = rep.StoredNodes
		})
		return allocs, nodes
	}
	allocs1, nodes1 := analyzeAllocs(out.Trace)
	allocs100, nodes100 := analyzeAllocs(scaleTopIters(out.Trace, 100))
	if allocs1 != allocs100 || nodes1 != nodes100 {
		t.Errorf("zan.Analyze x1: %v allocs over %d nodes, x100: %v allocs over %d nodes — cost must stay flat",
			allocs1, nodes1, allocs100, nodes100)
	}
}

func TestCompressedMetricsFaultedRun(t *testing.T) {
	out := runE2E(t, e2e{Spec: benchSpec(t, "PHASE", "A", 16), Plan: "crash rank=1 at marker=10", Seed: 42, Obs: &chameleon.ObsOptions{}}).Out
	if len(out.Trace.Retired) == 0 {
		t.Fatal("fault plan retired no ranks")
	}
	rep := crossCheck(t, out.Trace)
	// The departed rank recorded fewer events than the survivors.
	retired := out.Trace.Retired[0]
	if gone, kept := rep.Rank(retired), rep.Rank((retired+1)%16); gone.Events >= kept.Events {
		t.Errorf("retired rank %d has %d events, survivor has %d — expected fewer",
			retired, gone.Events, kept.Events)
	}
}

// anyTagProgram is a gather by tag wildcard at P=4: each step rank 0
// receives once from every other rank with MPI_ANY_TAG, and the others
// send it one message on tag 5 — 18 matched pairs over six steps. With
// extraSend, rank 1 sends one more message that nobody receives.
func anyTagProgram(extraSend bool) func(*chameleon.Proc) {
	return func(p *chameleon.Proc) {
		w := p.World()
		for step := 0; step < 6; step++ {
			p.Compute(50 * chameleon.Microsecond)
			if p.Rank() == 0 {
				for j := 1; j < 4; j++ {
					w.Recv(j, chameleon.AnyTag)
				}
			} else {
				w.Send(0, 5, 64, nil)
			}
			if step%2 == 1 {
				chameleon.Marker(p)
			}
		}
		if extraSend && p.Rank() == 1 {
			w.Send(0, 5, 64, nil)
		}
	}
}

// TestAnyTagReceivesConserve: an MPI_ANY_TAG receive matches a send of
// any tag, so a correct program that receives by tag wildcard is
// consistent under both tracers, and one send too many still is not
// (Chameleon at K=2 puts rank 1 in a cluster of three, so its trace
// counts the extra send once per member).
func TestAnyTagReceivesConserve(t *testing.T) {
	for _, tr := range []chameleon.Tracer{chameleon.TracerScalaTrace, chameleon.TracerChameleon} {
		for _, extra := range []bool{false, true} {
			out, err := chameleon.Run(chameleon.Config{P: 4, Tracer: tr, K: 2}, anyTagProgram(extra))
			if err != nil {
				t.Fatal(err)
			}
			m := crossCheck(t, out.Trace).Match
			switch {
			case !extra && (!m.Consistent || m.Unmatched != 0 || m.Wildcards != 18):
				t.Errorf("%s: %+v, want consistent with 18 wildcard receives", tr, m)
			case extra && (m.Consistent || m.Unmatched == 0 || m.UnmatchedByTag[5] <= 0):
				t.Errorf("%s with a send too many: %+v, want unmatched sends on tag 5", tr, m)
			}
		}
	}
}

// directedChannels counts the distinct (tag, src, dst) channels the
// trace's point-to-point leaves resolve to, as zan's match state keys
// them (MPI_ANY_TAG receives open none).
func directedChannels(f *trace.File) int {
	type channel struct{ tag, src, dst int }
	seen := map[channel]bool{}
	var walk func(seq []*trace.Node, mult uint64)
	walk = func(seq []*trace.Node, mult uint64) {
		for _, n := range seq {
			if n.IsLoop() {
				walk(n.Body, mult*n.MeanIters())
				continue
			}
			if mult == 0 {
				continue
			}
			ev := n.Ev
			sends := ev.Op == mpi.OpSend || ev.Op == mpi.OpIsend || ev.Op == mpi.OpSendrecv
			recvs := ev.Op == mpi.OpRecv || ev.Op == mpi.OpIrecv || ev.Op == mpi.OpSendrecv
			n.Ranks.ForEach(func(r int) {
				if dst, ok := ev.Dest.ResolveMod(r, f.P); sends && ok {
					seen[channel{ev.Tag, r, dst}] = true
				}
				if src, ok := ev.Src.ResolveMod(r, f.P); recvs && ok && ev.Tag != mpi.AnyTag {
					seen[channel{ev.Tag, src, r}] = true
				}
			})
		}
	}
	walk(f.Nodes, 1)
	return len(seen)
}

// TestAnalyzeBytesPerChannel: on STENCIL A at P=1024 (18 windows over
// 3 968 channels) zan's match state holds each channel once per
// analysis. The bound is on all bytes one Analyze allocates, report
// included, per channel; a map of fresh per-window channel objects
// costs ~450.
func TestAnalyzeBytesPerChannel(t *testing.T) {
	out, err := chameleon.RunBenchmark("STENCIL", "A", 1024, chameleon.TracerChameleon, nil)
	if err != nil {
		t.Fatal(err)
	}
	chans := directedChannels(out.Trace)
	const runs = 5
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := zan.Analyze(out.Trace, zan.Options{Model: chameleon.DefaultModel()}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perChannel := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(chans)
	t.Logf("%d windows, %d channels: %.0f B per channel", len(out.Trace.Nodes), chans, perChannel)
	if perChannel > 200 {
		t.Errorf("Analyze allocates %.0f B per channel over %d channels, want at most 200", perChannel, chans)
	}
}

// TestAnalyzeBytesMatchesAnalyze: zan over the encoded bytes (one
// trace.Walk, no tree) reports exactly what zan over the decoded file
// does, field for field, on the skeletons of the benchmark workloads —
// STENCIL at P=1024 and PHASE at P=256 under Chameleon, LU at P=256
// under ScalaTrace, PHASE at P=64 (the fleet workload's program) — and
// on the archive workload's corpus, four Chameleon traces and one
// ScalaTrace trace at P=64.
func TestAnalyzeBytesMatchesAnalyze(t *testing.T) {
	for _, c := range []struct {
		bench  string
		p      int
		tracer chameleon.Tracer
	}{
		{"STENCIL", 1024, chameleon.TracerChameleon},
		{"PHASE", 256, chameleon.TracerChameleon},
		{"LU", 256, chameleon.TracerScalaTrace},
		{"PHASE", 64, chameleon.TracerChameleon},
		{"BT", 64, chameleon.TracerChameleon},
		{"LU", 64, chameleon.TracerChameleon},
		{"SP", 64, chameleon.TracerChameleon},
		{"CG", 64, chameleon.TracerChameleon},
		{"LU", 64, chameleon.TracerScalaTrace},
	} {
		c := c
		t.Run(fmt.Sprintf("%s/P%d/%s", c.bench, c.p, c.tracer), func(t *testing.T) {
			t.Parallel()
			out, err := chameleon.RunBenchmark(c.bench, "A", c.p, c.tracer, nil)
			if err != nil {
				t.Fatal(err)
			}
			payload := out.Trace.AppendBinary(nil)
			f, err := trace.DecodeBinary(payload)
			if err != nil {
				t.Fatal(err)
			}
			want, err := zan.Analyze(f, zan.Options{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := zan.AnalyzeBytes(payload, zan.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("over the bytes:\n%+v\nover the decoded file:\n%+v", got, want)
			}
		})
	}
}
