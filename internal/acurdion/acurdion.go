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
	"sync"

	"chameleon/internal/cluster"
	"chameleon/internal/mpi"
	"chameleon/internal/ranklist"
	"chameleon/internal/trace"
	"chameleon/internal/tracer"
	"chameleon/internal/vtime"
)

// Options configures the baseline.
type Options struct {
	K       int
	Algo    cluster.Algorithm
	SigMode tracer.SigMode
	Filter  bool
}

// Collector receives the run's outputs.
type Collector struct {
	mu sync.Mutex
	// Global is the clustered global trace (held by rank 0).
	Global []*trace.Node
	// AllocBytes is each rank's cumulative trace allocation.
	AllocBytes []int
	// LeadRanks is the selected lead set.
	LeadRanks []int
}

// NewCollector sizes a collector for p ranks.
func NewCollector(p int) *Collector {
	return &Collector{AllocBytes: make([]int, p)}
}

// File packages the global trace for the replayer.
func (c *Collector) File(p int, benchmark string, filter bool) *trace.File {
	f := &trace.File{
		P:         p,
		Benchmark: benchmark,
		Tracer:    "acurdion",
		Clustered: true,
		Filter:    filter,
		Nodes:     c.Global,
	}
	f.Sites = f.SiteTable()
	return f
}

// Tracer is the per-rank interposer.
type Tracer struct {
	rec *tracer.Recorder
	opt Options
	col *Collector
	pre vtime.Time
}

// New returns a hook factory for mpi.Config.Hooks.
func New(col *Collector, opt Options) func(p *mpi.Proc) mpi.Interposer {
	if opt.K <= 0 {
		opt.K = 9
	}
	return func(p *mpi.Proc) mpi.Interposer {
		return &Tracer{rec: tracer.NewRecorder(p, opt.SigMode, opt.Filter), opt: opt, col: col}
	}
}

// Pre implements mpi.Interposer.
func (t *Tracer) Pre(ci *mpi.CallInfo) { t.pre = t.rec.Proc.Clock.Now() }

// Post implements mpi.Interposer.
func (t *Tracer) Post(ci *mpi.CallInfo) {
	if ci.Op == mpi.OpBarrier && ci.Comm == mpi.CommMarker {
		return // markers exist for Chameleon only
	}
	if ci.Op == mpi.OpFinalize {
		return
	}
	t.rec.Record(ci, t.pre, 1)
}

// Finalize implements mpi.Interposer: one clustering over whole-run
// signatures, then one merge over the K lead traces.
func (t *Tracer) Finalize() {
	p := t.rec.Proc
	self := cluster.Item{
		Lead:  p.Rank(),
		Ranks: ranklist.SingleRank(p.Rank()),
		Sig:   t.rec.Win.Triple(),
	}
	top := cluster.DistributedSelect(p, self, p.AliveRanks(), t.opt.K, t.opt.Algo,
		1<<52, vtime.CatCluster)

	leads := make([]int, 0, len(top))
	isLead := false
	variant := false
	var myCluster ranklist.List
	for _, it := range top {
		leads = append(leads, it.Lead)
		if it.Lead == p.Rank() {
			isLead = true
			myCluster = it.Ranks
			variant = it.Variant
		}
	}

	mine := t.rec.TakePartial()
	var global []*trace.Node
	if isLead {
		if variant {
			trace.ResolveEndpoints(mine, p.Rank(), p.Size())
		}
		if !myCluster.Empty() {
			trace.RewriteRanks(mine, myCluster)
		}
		global = tracer.MergeOverTree(p, leads, mine, t.opt.Filter,
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

	t.col.mu.Lock()
	defer t.col.mu.Unlock()
	t.col.AllocBytes[p.Rank()] = t.rec.AllocBytes
	if p.Rank() == 0 {
		p.ChargeOverhead(vtime.CatInterComp,
			vtime.Duration(trace.SizeBytes(global))*p.Model().WritePerByte)
		t.col.Global = global
		t.col.LeadRanks = leads
	}
}
