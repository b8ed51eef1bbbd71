// Package acurdion implements the ACURDION baseline of Table III:
// signature-based clustering performed once, inside MPI_Finalize, as in
// the authors' pre-Chameleon work. Every rank traces the entire run (so
// no process ever saves trace space — Table IV's comparison point), and
// at Finalize the ranks cluster on their whole-run signature triples and
// merge only the K lead traces. ACURDION therefore pays one clustering
// and one K-way merge, where Chameleon pays r of each — which is why
// Table III shows Chameleon's overhead at roughly twice ACURDION's under
// the maximum marker-call count, while both stay orders of magnitude
// below plain ScalaTrace.
package acurdion

import (
	"chameleon/internal/cluster"
	"chameleon/internal/mpi"
	"chameleon/internal/ranklist"
	"chameleon/internal/trace"
	"chameleon/internal/tracer"
	"chameleon/internal/vtime"
)

// Collector receives the run's outputs.
type Collector = tracer.Result

// NewCollector sizes a collector for p ranks.
func NewCollector(p int) *Collector { return tracer.NewResult("acurdion", true, p) }

// Tracer is the per-rank interposer: the shared recorder's Pre and Post
// record every application call.
type Tracer struct {
	*tracer.Recorder
	opt tracer.Options
	col *Collector
}

// New returns a hook factory for mpi.Config.Hooks. It reads K, Algo,
// SigMode and Filter.
func New(col *Collector, opt tracer.Options) func(p *mpi.Proc) mpi.Interposer {
	opt = opt.Normalized()
	return func(p *mpi.Proc) mpi.Interposer {
		return &Tracer{Recorder: tracer.NewRecorder(p, opt.SigMode, opt.Filter), opt: opt, col: col}
	}
}

// Finalize implements mpi.Interposer: one clustering over whole-run
// signatures, then one merge over the K lead traces.
func (t *Tracer) Finalize() {
	p := t.Proc
	self := cluster.Item{
		Lead:  p.Rank(),
		Ranks: ranklist.SingleRank(p.Rank()),
		Sig:   t.Win.Triple(),
	}
	top := cluster.DistributedSelect(p, self, p.AliveRanks(), t.opt.K, t.opt.Algo,
		1<<52, vtime.CatCluster)
	leads, mine := tracer.Leads(nil, top, p.Rank())

	partial := t.TakePartial()
	var global []*trace.Node
	if mine >= 0 {
		tracer.AsCluster(partial, p, top[mine].Ranks, top[mine].Variant)
		global = tracer.MergeOverTree(p, leads, partial, t.opt.Filter,
			tracer.MergeTag(1<<20), vtime.CatInterComp)
	}

	// Route to rank 0 when the lead-tree root is another rank.
	const tag = 1<<52 | 1
	rootLead := leads[0]
	switch {
	case rootLead == p.Rank() && rootLead != 0:
		p.World().RawSend(0, tag, trace.SizeBytes(global), global)
		global = nil
	case p.Rank() == 0 && rootLead != 0:
		msg := p.World().RawRecv(rootLead, tag)
		global, _ = msg.Payload.([]*trace.Node)
	}
	t.col.Keep(p, t.Recorder, global, leads)
}
