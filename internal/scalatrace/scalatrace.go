// Package scalatrace implements the baseline tracer the paper compares
// against: ScalaTrace V2 without clustering. Every rank records and
// intra-compresses its full event stream; at MPI_Finalize all P ranks
// consolidate their traces in a reduction over a radix tree rooted at
// rank 0 — the O(n² log P) step whose cost Chameleon eliminates.
package scalatrace

import (
	"chameleon/internal/mpi"
	"chameleon/internal/tracer"
	"chameleon/internal/vtime"
)

// Collector receives the run's outputs (shared across rank goroutines).
type Collector = tracer.Result

// NewCollector sizes a collector for p ranks.
func NewCollector(p int) *Collector { return tracer.NewResult("scalatrace", false, p) }

// Options configures the baseline tracer, which reads only SigMode and
// Filter: signatures are still accumulated, so that traces are
// comparable with Chameleon's, though the baseline never clusters.
type Options = tracer.Options

// Tracer is the per-rank interposer: the shared recorder's Pre and Post
// record every application call.
type Tracer struct {
	*tracer.Recorder
	col *Collector
}

// New returns a hook factory for mpi.Config.Hooks.
func New(col *Collector, opt Options) func(p *mpi.Proc) mpi.Interposer {
	return func(p *mpi.Proc) mpi.Interposer {
		return &Tracer{Recorder: tracer.NewRecorder(p, opt.SigMode, opt.Filter), col: col}
	}
}

// Finalize implements mpi.Interposer: the P-way radix-tree inter-node
// compression.
func (t *Tracer) Finalize() {
	p := t.Proc
	global := tracer.MergeOverTree(p, p.AliveRanks(), t.TakePartial(), t.Comp.Filter,
		tracer.MergeTag(0), vtime.CatInterComp)
	t.col.Keep(p, t.Recorder, global, nil)
}
