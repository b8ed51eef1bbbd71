// Structure goldens for the hot-path refactor: record→compress→merge
// pipelines on the PHASE and STENCIL event shapes, rendered with call sites
// renumbered in first-seen order, so the text is independent of the raw
// PC-derived signature values (which move whenever the binary changes)
// but pins everything else bit-for-bit: loop structure, iteration
// counts, endpoint encodings, rank lists, and timing histograms. The
// goldens were generated before the interning refactor; the refactored
// path must reproduce them exactly.
//
// UPDATE_REFACTOR_GOLDEN=1 regenerates (only when the trace semantics
// intentionally change).
package chameleon_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"chameleon/internal/apps"
	"chameleon/internal/mpi"
	"chameleon/internal/sig"
	"chameleon/internal/trace"
	"chameleon/internal/tracer"
	"chameleon/internal/vtime"
)

// The per-step MPI call shapes of the two fault-suite skeletons. Each
// entry is recorded through its own call site (siteFns below) so the
// stack-signature machinery sees genuinely distinct backtraces, like the
// distinct w.Send/w.Recv lines of the real apps.
var (
	// PHASE halo phase: two Sendrecv exchanges per step.
	phaseShape = []mpi.CallInfo{
		{Op: mpi.OpSendrecv, Comm: mpi.CommWorld, Dest: 1, Src: 3, Root: mpi.NoPeer, Tag: 11, Bytes: 8192},
		{Op: mpi.OpSendrecv, Comm: mpi.CommWorld, Dest: 3, Src: 1, Root: mpi.NoPeer, Tag: 12, Bytes: 8192},
	}
	// STENCIL interior rank: four halo sends, four receives, one
	// allreduce per step.
	stencilShape = []mpi.CallInfo{
		{Op: mpi.OpSend, Comm: mpi.CommWorld, Dest: 1, Src: mpi.NoPeer, Root: mpi.NoPeer, Tag: 1, Bytes: 4096},
		{Op: mpi.OpSend, Comm: mpi.CommWorld, Dest: 2, Src: mpi.NoPeer, Root: mpi.NoPeer, Tag: 2, Bytes: 4096},
		{Op: mpi.OpSend, Comm: mpi.CommWorld, Dest: 3, Src: mpi.NoPeer, Root: mpi.NoPeer, Tag: 3, Bytes: 4096},
		{Op: mpi.OpSend, Comm: mpi.CommWorld, Dest: 0, Src: mpi.NoPeer, Root: mpi.NoPeer, Tag: 4, Bytes: 4096},
		{Op: mpi.OpRecv, Comm: mpi.CommWorld, Dest: mpi.NoPeer, Src: 2, Root: mpi.NoPeer, Tag: 1, Bytes: 4096},
		{Op: mpi.OpRecv, Comm: mpi.CommWorld, Dest: mpi.NoPeer, Src: 1, Root: mpi.NoPeer, Tag: 2, Bytes: 4096},
		{Op: mpi.OpRecv, Comm: mpi.CommWorld, Dest: mpi.NoPeer, Src: 0, Root: mpi.NoPeer, Tag: 3, Bytes: 4096},
		{Op: mpi.OpRecv, Comm: mpi.CommWorld, Dest: mpi.NoPeer, Src: 3, Root: mpi.NoPeer, Tag: 4, Bytes: 4096},
		{Op: mpi.OpAllreduce, Comm: mpi.CommWorld, Dest: mpi.NoPeer, Src: mpi.NoPeer, Root: mpi.NoPeer, Bytes: 8},
	}
)

// siteFns gives every pattern position its own call site: each function
// invokes Record from a distinct source line, so runtime backtraces (and
// therefore stack signatures) differ per position exactly as they do
// across the distinct MPI call lines of a real application.
//
//go:noinline
func recSite0(r *tracer.Recorder, ci *mpi.CallInfo, t vtime.Time) { r.Record(ci, t, 0) }

//go:noinline
func recSite1(r *tracer.Recorder, ci *mpi.CallInfo, t vtime.Time) { r.Record(ci, t, 0) }

//go:noinline
func recSite2(r *tracer.Recorder, ci *mpi.CallInfo, t vtime.Time) { r.Record(ci, t, 0) }

//go:noinline
func recSite3(r *tracer.Recorder, ci *mpi.CallInfo, t vtime.Time) { r.Record(ci, t, 0) }

//go:noinline
func recSite4(r *tracer.Recorder, ci *mpi.CallInfo, t vtime.Time) { r.Record(ci, t, 0) }

//go:noinline
func recSite5(r *tracer.Recorder, ci *mpi.CallInfo, t vtime.Time) { r.Record(ci, t, 0) }

//go:noinline
func recSite6(r *tracer.Recorder, ci *mpi.CallInfo, t vtime.Time) { r.Record(ci, t, 0) }

//go:noinline
func recSite7(r *tracer.Recorder, ci *mpi.CallInfo, t vtime.Time) { r.Record(ci, t, 0) }

//go:noinline
func recSite8(r *tracer.Recorder, ci *mpi.CallInfo, t vtime.Time) { r.Record(ci, t, 0) }

var siteFns = []func(*tracer.Recorder, *mpi.CallInfo, vtime.Time){
	recSite0, recSite1, recSite2, recSite3, recSite4,
	recSite5, recSite6, recSite7, recSite8,
}

// feedShape replays `steps` timesteps of the shape through the recorder,
// one distinct call site per pattern position.
func feedShape(r *tracer.Recorder, shape []mpi.CallInfo, steps int, clk vtime.Time) {
	for s := 0; s < steps; s++ {
		for i := range shape {
			siteFns[i](r, &shape[i], clk)
		}
	}
}

// refactorShapes maps the benchmark names to (shape, steps-per-rank).
var refactorShapes = map[string]struct {
	shape []mpi.CallInfo
	steps int
}{
	"PHASE":   {phaseShape, 40},
	"STENCIL": {stencilShape, 60},
}

// newPipelineMerger returns the merger configuration the production
// radix-tree reduction uses.
func newPipelineMerger(p int) *trace.Merger {
	// Partials are detached from their recorders, so the merger may
	// consume both sides, as it does in MergeOverTree.
	return &trace.Merger{P: p}
}

// canonSeq renders a node sequence with stack signatures replaced by
// dense first-seen ordinals.
func canonSeq(b *strings.Builder, seq []*trace.Node, depth int, sites map[uint64]int) {
	ind := strings.Repeat("  ", depth)
	for _, n := range seq {
		if n.IsLoop() {
			iters := fmt.Sprintf("%d", n.Iters)
			if n.ItersHist != nil {
				iters += fmt.Sprintf("~%d", n.MeanIters())
			}
			fmt.Fprintf(b, "%sLOOP<%s> {\n", ind, iters)
			canonSeq(b, n.Body, depth+1, sites)
			fmt.Fprintf(b, "%s}\n", ind)
			continue
		}
		id, ok := sites[uint64(n.Ev.Stack)]
		if !ok {
			id = len(sites)
			sites[uint64(n.Ev.Stack)] = id
		}
		fmt.Fprintf(b, "%s%s site=%d dst=%s src=%s tag=%d bytes=%d ranks=%s",
			ind, n.Ev.Op, id, n.Ev.Dest, n.Ev.Src, n.Ev.Tag, n.Ev.Bytes, n.Ranks)
		if n.Delta != nil && n.Delta.Count() > 0 {
			fmt.Fprintf(b, " delta[n=%d min=%d max=%d mean=%d]",
				n.Delta.Count(), n.Delta.Min, n.Delta.Max, n.Delta.Mean())
		}
		b.WriteString("\n")
	}
}

func canonPipeline(app string) string {
	var out string
	_, err := mpi.Run(mpi.Config{P: 1}, func(p *mpi.Proc) {
		cfg := refactorShapes[app]
		seqs := make([][]*trace.Node, 4)
		var windows []string
		var triple0 sig.Triple
		for r := 0; r < 4; r++ {
			rec := tracer.NewRecorder(p, tracer.SigFull, false)
			feedShape(rec, cfg.shape, cfg.steps, p.Clock.Now())
			// Triple values are PC-derived; their *identity across ranks*
			// is the invariant worth pinning.
			tr := rec.Win.Triple()
			if r == 0 {
				triple0 = tr
			}
			windows = append(windows, fmt.Sprintf(
				"rank%d events=%d sites=%d sameAs0=%v",
				r, rec.Win.Events(), rec.Win.DistinctSites(), tr == triple0))
			seqs[r] = rec.TakePartial()
		}
		acc := seqs[0]
		var compares, bytesMerged int
		for r := 1; r < 4; r++ {
			m := newPipelineMerger(p.Size())
			acc = m.Merge(acc, seqs[r])
			compares += m.Stats.Compares
			bytesMerged += m.Stats.BytesMerged
		}
		var b strings.Builder
		fmt.Fprintf(&b, "pipeline %s steps=%d shape=%d\n", app, cfg.steps, len(cfg.shape))
		for _, w := range windows {
			b.WriteString(w + "\n")
		}
		fmt.Fprintf(&b, "merge compares=%d bytes=%d dynamic=%d size=%d\n",
			compares, bytesMerged, trace.DynamicEvents(acc), trace.SizeBytes(acc))
		canonSeq(&b, acc, 0, map[uint64]int{})
		out = b.String()
	})
	if err != nil {
		panic(err)
	}
	return out
}

func TestRefactorStructureGolden(t *testing.T) {
	for _, app := range []string{"PHASE", "STENCIL"} {
		t.Run(app, func(t *testing.T) {
			got := canonPipeline(app)
			path := "testdata/refactor_" + strings.ToLower(app) + ".golden"
			if os.Getenv("UPDATE_REFACTOR_GOLDEN") != "" {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("canonical pipeline structure diverged from pre-refactor golden:\n%s", got)
			}
		})
	}
}

// rank0Recorder records rank 0's events the way the ScalaTrace baseline
// does, without its finalize merge.
type rank0Recorder struct {
	rec *tracer.Recorder
	pre vtime.Time
}

func (r *rank0Recorder) Pre(*mpi.CallInfo) { r.pre = r.rec.Proc.Clock.Now() }
func (r *rank0Recorder) Finalize()         {}
func (r *rank0Recorder) Post(ci *mpi.CallInfo) {
	if ci.Op != mpi.OpFinalize {
		r.rec.Record(ci, r.pre, 1)
	}
}

// TestFoldComparesGolden pins the modelled cost of the intra-node fold
// search next to the merge-compare golden above: Compressor.Compares of
// rank 0 over LU class A at P=256, the lu_st_p256 record path. The count
// is what the cost model charges wherever a compressor's work is priced
// (rank 0's online trace), so a search that performs fewer comparisons
// is free to — the hash-first scans do — but one that *counts* fewer has
// moved the virtual clock and must say so by changing this number.
func TestFoldComparesGolden(t *testing.T) {
	const want = 31414
	spec, err := apps.Registry("LU", apps.ClassA, 256)
	if err != nil {
		t.Fatal(err)
	}
	var rec *tracer.Recorder
	_, err = mpi.Run(mpi.Config{P: 256, Hooks: func(p *mpi.Proc) mpi.Interposer {
		if p.Rank() != 0 {
			return mpi.NopInterposer{}
		}
		rec = tracer.NewRecorder(p, spec.SigMode, spec.Filter)
		return &rank0Recorder{rec: rec}
	}}, spec.Body(false))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Comp.Compares != want {
		t.Errorf("rank 0 folded %d events of LU A P=256 in %d compares, golden %d",
			rec.Events, rec.Comp.Compares, want)
	}
}
