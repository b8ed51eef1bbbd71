package cluster

import (
	"chameleon/internal/mpi"
	"chameleon/internal/vtime"
)

// DistributedSelect runs the distributed clustering of Algorithm 3's
// "Clustering" branch over members (world ranks, usually
// p.AliveRanks()): each member contributes one item (itself), items
// flow up a binomial radix tree over the member positions, every
// internal node caps its working set at k with SelectLeads, the root
// makes the final selection, and the Top-K list is broadcast to every
// member.
//
// Communication wait time and distance-computation work are charged to
// the given ledger category. The call is collective over the members;
// non-members must not call it. Tags tag and tag|1 must be unique per
// invocation and identical across ranks. The returned list is shared by
// every rank that received it and must not be written.
func DistributedSelect(p *mpi.Proc, self Item, members []int, k int, algo Algorithm, tag int, cat vtime.Category) []Item {
	model := p.Model()
	world := p.World()
	// Default causal label (tag distinguishes invocations); core's
	// explicit "cluster" context, when set, takes precedence.
	defer p.CausalContextDefault("cluster", tag)()

	// Handles are nil-safe when metrics are off; no guard needed.
	o := p.Obs()
	cDistances := o.Counter("cluster_distance_ops_total")
	cSelections := o.Counter("cluster_selections_total")
	cItems := o.Counter("cluster_items_gathered_total")
	cWorking := o.Histogram("cluster_working_set_items")

	pos, n := mpi.TreePos(members, p.Rank()), len(members)
	// items is the working set: the rank's own item and what its
	// children send, selected in place whenever it exceeds k. A leaf
	// rank sends just its own item; an internal one allocates the set
	// when the first child's items arrive, with room for k kept items
	// plus a child's k and more, but never more than its subtree's
	// size, the most items it can hold.
	var items []Item
	// Up the tree (mpi.TreePeer): each child's items in mask order; the
	// same walk finds the parent the working set then goes to.
	parent := -1
	for mask := 1; mask < n; mask <<= 1 {
		switch peer := mpi.TreePeer(pos, mask, n); {
		case peer > pos:
			msg := world.RawRecv(members[peer], tag)
			p.Ledger.Charge(cat, model.Alpha+model.CollectivePerLevel)
			childItems, _ := msg.Payload.([]Item)
			if items == nil {
				items = make([]Item, 1, min(2*k+2, subtreeSize(pos, n)))
				items[0] = self
			}
			items = append(items, childItems...)
			cItems.Add(uint64(len(childItems)))
			if len(items) > k {
				cWorking.Observe(int64(len(items)))
				res := selectLeads(items, k, algo)
				items = append(items[:0], res.Top...)
				cSelections.Inc()
				cDistances.Add(uint64(res.Distances))
				p.ChargeOverhead(cat, vtime.Duration(res.Distances)*model.ClusterPerItem)
			}
		case peer >= 0:
			parent = peer
		}
	}
	if items == nil {
		items = []Item{self}
	}
	if parent >= 0 {
		world.RawSend(members[parent], tag, ItemsBytes(items), items)
		p.Ledger.Charge(cat, model.Alpha)
	} else {
		cWorking.Observe(int64(len(items)))
		res := selectLeads(items, k, algo)
		items = res.Top
		cSelections.Inc()
		cDistances.Add(uint64(res.Distances))
		p.ChargeOverhead(cat, vtime.Duration(res.Distances)*model.ClusterPerItem)
	}

	top := mpi.GroupBcastObj(p, members, tag|1, items, ItemsBytes(items)).([]Item)
	p.Ledger.Charge(cat, model.Alpha+model.CollectivePerLevel)
	return top
}

// subtreeSize is the number of tree positions at or below pos in a
// binomial tree over n members: the most items pos can ever hold.
func subtreeSize(pos, n int) int {
	if pos == 0 {
		return n
	}
	return min(pos&-pos, n-pos)
}

// ItemsBytes approximates the wire size of an item list (signatures plus
// rank-list descriptors).
func ItemsBytes(items []Item) int {
	n := 0
	for _, it := range items {
		n += 32 + it.Ranks.SizeBytes()
	}
	return n
}
