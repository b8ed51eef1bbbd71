// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (laptop-scale parameters; run `cmd/chamexp -full`
// for the paper-scale sweep), plus ablation benchmarks for the design
// choices DESIGN.md calls out and micro-benchmarks of the compression
// kernels.
//
//	go test -bench=. -benchmem
package chameleon_test

import (
	"fmt"
	"testing"

	"chameleon"
	"chameleon/internal/exp"
	"chameleon/internal/mpi"
	"chameleon/internal/ranklist"
	"chameleon/internal/sig"
	"chameleon/internal/trace"
	"chameleon/internal/tracer"
)

// benchExperiment runs one experiment driver per iteration and reports
// nothing else; the driver's own output is the regenerated table.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	run, ok := exp.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	params := exp.Quick()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		table, err := run(params)
		if err != nil {
			b.Fatal(err)
		}
		if len(table.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkTable1(b *testing.B)   { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B)   { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B)   { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B)   { benchExperiment(b, "table4") }
func BenchmarkFigure4(b *testing.B)  { benchExperiment(b, "fig4") }
func BenchmarkFigure5(b *testing.B)  { benchExperiment(b, "fig5") }
func BenchmarkFigure6(b *testing.B)  { benchExperiment(b, "fig6") }
func BenchmarkFigure7(b *testing.B)  { benchExperiment(b, "fig7") }
func BenchmarkFigure8(b *testing.B)  { benchExperiment(b, "fig8") }
func BenchmarkFigure9(b *testing.B)  { benchExperiment(b, "fig9") }
func BenchmarkFigure10(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkFigure11(b *testing.B) { benchExperiment(b, "fig11") }

// --- ablations --------------------------------------------------------------

// BenchmarkAblationK sweeps the cluster budget: trace overhead against K
// (the paper fixes K per benchmark a priori; this shows the sensitivity).
func BenchmarkAblationK(b *testing.B) {
	for _, k := range []int{1, 3, 9, 16} {
		b.Run(fmt.Sprintf("K%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := chameleon.RunBenchmark("LU", "B", 36, chameleon.TracerChameleon,
					&chameleon.Config{K: k})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(out.Overhead.Seconds(), "virt-overhead-s/op")
			}
		})
	}
}

// BenchmarkAblationAlgo compares the clustering selectors (the paper:
// "the accuracy of traces is very close for these clustering
// algorithms").
func BenchmarkAblationAlgo(b *testing.B) {
	for _, algo := range []string{"k-farthest", "k-medoid", "k-random"} {
		b.Run(algo, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := chameleon.RunBenchmark("LU", "B", 36, chameleon.TracerChameleon,
					&chameleon.Config{Algo: algo})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(out.OverheadBy["cluster"].Seconds(), "virt-cluster-s/op")
			}
		})
	}
}

// BenchmarkAblationMarkerFreq sweeps the marker frequency (Figure 9's
// knob) on BT.
func BenchmarkAblationMarkerFreq(b *testing.B) {
	for _, freq := range []int{50, 25, 5, 1} {
		b.Run(fmt.Sprintf("freq%d", freq), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := chameleon.RunBenchmark("BT", "B", 36, chameleon.TracerChameleon,
					&chameleon.Config{Freq: freq})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(out.OverheadBy["marker"].Seconds(), "virt-marker-s/op")
			}
		})
	}
}

// voteWord is an interposer that leaves a fixed word in every marker
// barrier's CallInfo, as Chameleon leaves its vote.
type voteWord uint64

func (w voteWord) Pre(ci *mpi.CallInfo) {
	if ci.Marker() {
		ci.Vote = uint64(w)
	}
}
func (voteWord) Post(*mpi.CallInfo) {}
func (voteWord) Finalize()          {}

// BenchmarkAblationVote isolates Algorithm 1's vote as production runs
// it: 50 marker barriers, each carrying word 0 (a marker that does not
// vote) or a mismatch bit on every other rank (Chameleon's vote, summed
// by the barrier itself).
func BenchmarkAblationVote(b *testing.B) {
	for _, p := range []int{8, 32, 128} {
		for _, tc := range []struct {
			name string
			word func(rank int) voteWord
		}{
			{"word0", func(int) voteWord { return 0 }},
			{"mismatch", func(rank int) voteWord { return voteWord(rank & 1) }},
		} {
			b.Run(fmt.Sprintf("P%d/%s", p, tc.name), func(b *testing.B) {
				hooks := func(proc *mpi.Proc) mpi.Interposer { return tc.word(proc.Rank()) }
				for i := 0; i < b.N; i++ {
					_, err := mpi.Run(mpi.Config{P: p, Hooks: hooks}, func(proc *mpi.Proc) {
						for v := 0; v < 50; v++ {
							proc.MarkerComm().Barrier()
						}
					})
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- microbenchmarks of the compression kernels -----------------------------

func benchEvent(site int) trace.Event {
	return trace.Event{
		Op:    mpi.OpSend,
		Stack: sig.Stack(sig.Mix(uint64(site))),
		Dest:  trace.Relative(1),
		Tag:   site,
		Bytes: 64,
	}
}

// BenchmarkIntraCompression measures the per-event cost of the online
// RSD/PRSD folding (a 40-site timestep pattern).
func BenchmarkIntraCompression(b *testing.B) {
	events := make([]trace.Event, 40)
	for i := range events {
		events[i] = benchEvent(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var c trace.Compressor
		for rep := 0; rep < 50; rep++ {
			for _, ev := range events {
				c.AppendLeaf(trace.NewLeaf(ev, ranklist.SingleRank(0), 1000))
			}
		}
		if trace.DynamicEvents(c.Seq) != 40*50 {
			b.Fatal("compression lost events")
		}
	}
}

// BenchmarkInterNodeMerge measures one pairwise trace merge (the unit of
// the O(n² log P) reduction).
func BenchmarkInterNodeMerge(b *testing.B) {
	build := func(rank int) []*trace.Node {
		var c trace.Compressor
		for rep := 0; rep < 20; rep++ {
			for site := 0; site < 40; site++ {
				c.AppendLeaf(trace.NewLeaf(benchEvent(site), ranklist.SingleRank(rank), 1000))
			}
		}
		return c.Seq
	}
	a, bb := build(0), build(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A merge consumes its inputs: each iteration merges fresh copies,
		// made outside the timer.
		b.StopTimer()
		ca, cb := trace.CloneSeq(a), trace.CloneSeq(bb)
		b.StartTimer()
		m := trace.Merger{P: 4}
		if out := m.Merge(ca, cb); len(out) == 0 {
			b.Fatal("empty merge")
		}
	}
}

// BenchmarkSignatureWindow measures the per-event signature accumulation
// every rank pays even when not tracing.
func BenchmarkSignatureWindow(b *testing.B) {
	events := make([]trace.Event, 16)
	for i := range events {
		events[i] = benchEvent(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := newBenchWindow()
		for rep := 0; rep < 100; rep++ {
			for _, ev := range events {
				w.Add(ev)
			}
		}
		if w.Triple().CallPath == 0 {
			b.Fatal("empty signature")
		}
	}
}

// BenchmarkRuntimeP2P measures the simulated runtime's raw message rate.
func BenchmarkRuntimeP2P(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := mpi.Run(mpi.Config{P: 2}, func(p *mpi.Proc) {
			w := p.World()
			for m := 0; m < 1000; m++ {
				if p.Rank() == 0 {
					w.Send(1, 1, 64, nil)
				} else {
					w.Recv(0, 1)
				}
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEnd traces BT class A on 16 ranks under Chameleon — the
// full pipeline per iteration.
func BenchmarkEndToEnd(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := chameleon.RunBenchmark("BT", "A", 16, chameleon.TracerChameleon, nil)
		if err != nil {
			b.Fatal(err)
		}
		if out.Trace == nil {
			b.Fatal("no trace")
		}
	}
}

// newBenchWindow builds a signature window via the tracer package.
func newBenchWindow() *tracer.Window { return tracer.NewWindow(tracer.SigFull) }
