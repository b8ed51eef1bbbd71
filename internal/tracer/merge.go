package tracer

import (
	"chameleon/internal/mpi"
	"chameleon/internal/obs"
	"chameleon/internal/trace"
	"chameleon/internal/vtime"
)

// mergeTagBase keeps radix-tree merge traffic clear of the collective
// tag namespace on the internal communicator.
const mergeTagBase = 1 << 55

// MergeTag derives the internal tag for merge round `round`.
func MergeTag(round int) int { return mergeTagBase | round<<3 }

// MergeOverTree runs one inter-node compression step: every member rank
// contributes its node sequence, traces are merged pairwise up a
// binomial (radix) tree, and members[0] returns the merged sequence
// (nil on other ranks; non-members return mine unchanged).
//
// members must be in identical order on every participating rank, and
// every member must call MergeOverTree with the same tag. Transfer costs
// are charged by the runtime (message sizes equal the serialized trace
// footprint); merge work is charged per structural comparison and per
// byte to the given ledger category — together these realize the
// paper's O(n² log |members|) inter-compression cost.
func MergeOverTree(p *mpi.Proc, members []int, mine []*trace.Node, filter bool, tag int, cat vtime.Category) []*trace.Node {
	pos := mpi.TreePos(members, p.Rank())
	if pos < 0 {
		return mine
	}
	// Default causal label (tag distinguishes rounds); core's explicit
	// "merge:<cause>" context, when set, takes precedence.
	defer p.CausalContextDefault("merge", tag)()
	model := p.Model()
	world := p.World()
	// Handles are nil-safe when metrics are off; no guard needed.
	o := p.Obs()
	mSteps := o.Counter("tracer_merge_steps_total")
	mCompares := o.Counter("tracer_merge_compares_total")
	mBytes := o.Counter("tracer_merge_bytes_total")
	o.Gauge("tracer_merge_tree_depth").SetMax(int64(vtime.Log2Ceil(len(members))))
	acc := mine
	for mask := 1; mask < len(members); mask <<= 1 {
		peer := mpi.TreePeer(pos, mask, len(members))
		if peer < 0 {
			continue
		}
		t0 := p.Clock.Now()
		if peer < pos {
			world.RawSend(members[peer], tag, trace.SizeBytes(acc), acc)
			p.Ledger.Charge(cat, vtime.Duration(p.Clock.Now()-t0))
			return nil
		}
		msg := world.RawRecv(members[peer], tag)
		// Book the transfer/wait time the recv put on the clock.
		p.Ledger.Charge(cat, vtime.Duration(p.Clock.Now()-t0))
		o.Span(p.Rank(), "merge-wait", obs.CatTracer, t0, p.Clock.Now())
		child, _ := msg.Payload.([]*trace.Node)
		// Ownership is linear along the tree: the child rank sent its
		// sequence away and this rank's acc is not referenced elsewhere,
		// so the merger may consume both.
		m := trace.Merger{Filter: filter, P: p.Size()}
		acc = m.Merge(acc, child)
		p.ChargeOverhead(cat,
			model.MergeFixed+
				vtime.Duration(m.Stats.Compares)*model.ComparePerOp+
				vtime.Duration(m.Stats.BytesMerged)*model.MergePerByte)
		mSteps.Inc()
		mCompares.Add(uint64(m.Stats.Compares))
		mBytes.Add(uint64(m.Stats.BytesMerged))
		o.Emit(obs.Event{
			Kind: obs.KindMerge, Rank: p.Rank(), VT: int64(p.Clock.Now()),
			Count: uint64(m.Stats.Compares), Bytes: int64(m.Stats.BytesMerged),
		})
	}
	return acc
}
