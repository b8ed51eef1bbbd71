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
	"testing"

	"chameleon"
	"chameleon/internal/analysis"
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
	out, _ := runFaulted(t, "PHASE", "crash rank=1 at marker=10", 42, 16)
	if len(out.Trace.Retired) == 0 {
		t.Fatal("fault plan retired no ranks")
	}
	rep := crossCheck(t, out.Trace)
	// The departed rank recorded fewer events than the survivors.
	retired := out.Trace.Retired[0]
	if rep.Ranks[retired].Events >= rep.Ranks[(retired+1)%16].Events {
		t.Errorf("retired rank %d has %d events, survivor has %d — expected fewer",
			retired, rep.Ranks[retired].Events, rep.Ranks[(retired+1)%16].Events)
	}
}
