package tracer

import (
	"slices"
	"sync"

	"chameleon/internal/cluster"
	"chameleon/internal/mpi"
	"chameleon/internal/ranklist"
	"chameleon/internal/trace"
	"chameleon/internal/vtime"
)

// Options configures a tracing tool. Every tool reads SigMode and
// Filter; the clustering tools (Chameleon, ACURDION) read K and Algo,
// and Chameleon reads CallFrequency.
type Options struct {
	// K is the cluster budget (Table I gives the per-benchmark values).
	K int
	// Algo is the representative selector (K-Farthest by default).
	Algo cluster.Algorithm
	// CallFrequency engages Algorithm 1 only at every n-th marker (paper
	// parameter Call_Frequency; 1 engages every marker). An auto-marked
	// run fires its marker at every n-th anchor occurrence instead.
	CallFrequency int
	// SigMode selects full or filtered Call-Path construction.
	SigMode SigMode
	// Filter enables the loop-parameter filter during merging (POP).
	Filter bool
}

// Normalized fills the defaults: K 9 and CallFrequency 1.
func (o Options) Normalized() Options {
	if o.K <= 0 {
		o.K = 9
	}
	if o.CallFrequency <= 0 {
		o.CallFrequency = 1
	}
	return o
}

// Result is what a tool leaves after the run, shared across its rank
// goroutines.
type Result struct {
	// Global is the global trace (held by rank 0).
	Global []*trace.Node
	// AllocBytes is each rank's cumulative trace allocation.
	AllocBytes []int
	// LeadRanks is the lead set of the last clustering (nil for tools
	// that do not cluster).
	LeadRanks []int
	// Events is the total number of dynamic events recorded.
	Events uint64

	mu        sync.Mutex
	tool      string
	clustered bool
}

// NewResult sizes the result of the named tool for p ranks.
func NewResult(tool string, clustered bool, p int) *Result {
	return &Result{AllocBytes: make([]int, p), tool: tool, clustered: clustered}
}

// Keep stores one rank's share at Finalize: its allocation and events,
// and on rank 0 the global trace and lead set, charging rank 0 for
// writing the trace out.
func (r *Result) Keep(p *mpi.Proc, rec *Recorder, global []*trace.Node, leads []int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.AllocBytes[p.Rank()] = rec.AllocBytes
	r.Events += rec.Events
	if p.Rank() == 0 {
		p.ChargeOverhead(vtime.CatInterComp,
			vtime.Duration(trace.SizeBytes(global))*p.Model().WritePerByte)
		r.Global, r.LeadRanks = global, leads
	}
}

// File packages the global trace for the replayer.
func (r *Result) File(p int, benchmark string, filter bool) *trace.File {
	f := &trace.File{
		P:         p,
		Benchmark: benchmark,
		Tracer:    r.tool,
		Clustered: r.clustered,
		Filter:    filter,
		Nodes:     r.Global,
	}
	f.Sites = f.SiteTable()
	return f
}

// Leads refills leads with the lead rank of every cluster in top, in
// order, and returns it with the index in top of the cluster rank leads
// (-1 when it leads none).
func Leads(leads []int, top []cluster.Item, rank int) ([]int, int) {
	leads = slices.Grow(leads[:0], len(top))
	mine := -1
	for i, it := range top {
		leads = append(leads, it.Lead)
		if it.Lead == rank {
			mine = i
		}
	}
	return leads, mine
}

// AsCluster rewrites a lead's partial trace to stand for its cluster:
// end-points resolved to absolute ranks when the cluster's differ from
// rank to rank (variant), and every rank list replaced by the cluster's.
func AsCluster(seq []*trace.Node, p *mpi.Proc, ranks ranklist.List, variant bool) {
	if variant {
		trace.ResolveEndpoints(seq, p.Rank(), p.Size())
	}
	if !ranks.Empty() {
		trace.RewriteRanks(seq, ranks)
	}
}
