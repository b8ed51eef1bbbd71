// Package scalatrace implements the baseline tracer the paper compares
// against: ScalaTrace V2 without clustering. Every rank records and
// intra-compresses its full event stream; at MPI_Finalize all P ranks
// consolidate their traces in a reduction over a radix tree rooted at
// rank 0 — the O(n² log P) step whose cost Chameleon eliminates.
package scalatrace

import (
	"sync"

	"chameleon/internal/mpi"
	"chameleon/internal/trace"
	"chameleon/internal/tracer"
	"chameleon/internal/vtime"
)

// Collector receives the run's outputs (shared across rank goroutines).
type Collector struct {
	mu sync.Mutex
	// Global is the merged global trace (held by rank 0).
	Global []*trace.Node
	// AllocBytes is each rank's cumulative trace allocation.
	AllocBytes []int
	// Events is the total number of dynamic events recorded.
	Events uint64
}

// NewCollector sizes a collector for p ranks.
func NewCollector(p int) *Collector {
	return &Collector{AllocBytes: make([]int, p)}
}

// File packages the collected global trace for the replayer.
func (c *Collector) File(p int, benchmark string, filter bool) *trace.File {
	f := &trace.File{
		P:         p,
		Benchmark: benchmark,
		Tracer:    "scalatrace",
		Filter:    filter,
		Nodes:     c.Global,
	}
	f.Sites = f.SiteTable()
	return f
}

// Options configures the baseline tracer.
type Options struct {
	// SigMode and Filter mirror the Chameleon settings so traces are
	// comparable (signatures are still accumulated even though the
	// baseline never clusters).
	SigMode tracer.SigMode
	Filter  bool
}

// Tracer is the per-rank interposer.
type Tracer struct {
	rec *tracer.Recorder
	col *Collector
	pre vtime.Time
}

// New returns a hook factory for mpi.Config.Hooks.
func New(col *Collector, opt Options) func(p *mpi.Proc) mpi.Interposer {
	return func(p *mpi.Proc) mpi.Interposer {
		return &Tracer{rec: tracer.NewRecorder(p, opt.SigMode, opt.Filter), col: col}
	}
}

// Pre implements mpi.Interposer.
func (t *Tracer) Pre(ci *mpi.CallInfo) { t.pre = t.rec.Proc.Clock.Now() }

// Post implements mpi.Interposer.
func (t *Tracer) Post(ci *mpi.CallInfo) {
	// Chameleon's marker barrier is tool traffic, not application
	// behavior; no tracer records it (the baseline ignores it entirely).
	if ci.Op == mpi.OpBarrier && ci.Comm == mpi.CommMarker {
		return
	}
	if ci.Op == mpi.OpFinalize {
		return
	}
	t.rec.Record(ci, t.pre, 1)
}

// Finalize implements mpi.Interposer: the P-way radix-tree inter-node
// compression.
func (t *Tracer) Finalize() {
	p := t.rec.Proc
	mine := t.rec.TakePartial()
	global := tracer.MergeOverTree(p, p.AliveRanks(), mine, t.rec.Comp.Filter,
		tracer.MergeTag(0), vtime.CatInterComp)

	t.col.mu.Lock()
	defer t.col.mu.Unlock()
	t.col.AllocBytes[p.Rank()] = t.rec.AllocBytes
	t.col.Events += t.rec.Events
	if p.Rank() == 0 {
		// Charge the final trace write-out.
		p.ChargeOverhead(vtime.CatInterComp,
			vtime.Duration(trace.SizeBytes(global))*p.Model().WritePerByte)
		t.col.Global = global
	}
}
