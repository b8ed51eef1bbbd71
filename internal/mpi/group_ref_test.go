package mpi

import (
	"math/rand"
	"reflect"
	"testing"

	"chameleon/internal/vtime"
)

// The member-list collectives replay ran a collective over part of the
// world with before Group: untraced, on CommInternal, rooted at
// members[0], with tags the caller derived. Kept verbatim (renamed) as
// the reference FuzzGroupMatchesReference holds Group's collectives to.

// refGroupReduceU64 reduces val over members toward members[0] on a
// binomial tree; the reduced value is meaningful only at members[0]
// (second return true). Non-members return immediately. Uses tag.
func refGroupReduceU64(p *Proc, members []int, tag int, val uint64, op ReduceOp) (uint64, bool) {
	c, ok := groupComm(p, members)
	if !ok {
		return val, false
	}
	return c.treeReduceU64(0, tag, val, op), c.self == 0
}

// refGroupAllreduceU64 reduces val over members and distributes the result
// (reduce to members[0], then broadcast — the Algorithm 1 structure);
// non-members get val back. A barrier over members is this with val 0.
// Uses tags tag and tag|1.
func refGroupAllreduceU64(p *Proc, members []int, tag int, val uint64, op ReduceOp) uint64 {
	c, ok := groupComm(p, members)
	if !ok {
		return val
	}
	return c.treeBcastU64(0, tag|1, c.treeReduceU64(0, tag, val, op))
}

// refGroupGatherObj collects every member's contribution at members[0]
// (returned slice indexed by member position; nil elsewhere). Uses tag.
func refGroupGatherObj(p *Proc, members []int, tag, bytes int, obj any) []any {
	c, ok := groupComm(p, members)
	if !ok {
		return nil
	}
	return c.treeGather(0, tag, bytes, obj)
}

// refGroupScatter sends bytes from members[0] to every other member (the
// payloads are synthetic, as in Comm.Scatter during replay). Uses tag.
func refGroupScatter(p *Proc, members []int, tag, bytes int) {
	if c, ok := groupComm(p, members); ok {
		c.scatter(0, tag, bytes, nil)
	}
}

// refGroupAlltoall performs the pairwise exchange schedule of
// Comm.Alltoall over the member positions, evaluated where Comm.Alltoall
// is. Uses tag: its rendezvous is keyed by (CommInternal, tag,
// members[0]), so groups led by different ranks may share a tag.
func refGroupAlltoall(p *Proc, members []int, tag, bytes int) {
	if c, ok := groupComm(p, members); ok {
		c.alltoall(tag, bytes)
	}
}

// groupOps is one instance of every collective over a member list,
// returning what each call returned on this rank: either Group's
// communicator collectives or the reference helpers.
type groupOps func(p *Proc, key int, members []int, root, instance, bytes int, barrier bool) []any

// groupCollectives runs the instance on the Group communicator with
// key, the recorded root mapped as replay maps it: to its position in
// members, or to 0 when it is not a member.
func groupCollectives(p *Proc, key int, members []int, root, _, bytes int, barrier bool) []any {
	c := p.Group(key, members)
	r := max(TreePos(members, root), 0)
	word := uint64(p.rank)*0x9e3779b97f4a7c15 + uint64(bytes)
	var out []any
	if barrier {
		c.Barrier()
	}
	out = append(out,
		c.Reduce(r, bytes, word, OpSum),
		c.Bcast(r, bytes, word),
		c.Allreduce(bytes, word, OpMax),
		c.Gather(r, bytes, p.rank),
		c.Allgather(bytes, p.rank),
		c.Scatter(r, bytes, nil))
	c.Alltoall(bytes)
	return out
}

// refCollectives runs the instance on the reference helpers, rooted at
// members[0], with a tag block per instance shared by every group
// (members of disjoint groups never meet).
func refCollectives(p *Proc, _ int, members []int, _, instance, bytes int, barrier bool) []any {
	word := uint64(p.rank)*0x9e3779b97f4a7c15 + uint64(bytes)
	tag := 900<<10 | instance<<5
	if barrier {
		refGroupAllreduceU64(p, members, tag, 0, OpSum)
	}
	reduced, _ := refGroupReduceU64(p, members, tag|2, word, OpSum)
	out := []any{
		reduced,
		GroupBcastObj(p, members, tag|4, word, bytes),
		refGroupAllreduceU64(p, members, tag|6, word, OpMax),
		refGroupGatherObj(p, members, tag|8, bytes, p.rank),
	}
	gathered := refGroupGatherObj(p, members, tag|10, bytes, p.rank)
	out = append(out, GroupBcastObj(p, members, tag|11, gathered, bytes*len(members)), nil)
	refGroupScatter(p, members, tag|12, bytes)
	refGroupAlltoall(p, members, tag|14, bytes)
	return out
}

// FuzzGroupMatchesReference: Group's collectives leave every rank with
// the clock, the ledger and the values the reference helpers do, over
// drawA2A's cases (the world, a member subset, or two disjoint groups,
// each member entering every instance at a clock of its own) with a
// drawn root. A root at a position above 0 is replaced by the list's
// first member, since replay's reference put the root first in the
// list, and a tree over that list is not Group's tree rotated to the
// root; a root at position 0 or outside the list is position 0 in
// both. Barrier joins the instance only under a model with no
// per-byte cost: its broadcast leg is a 0-byte message, as a world
// Barrier's is, where the reference broadcast 8 bytes.
func FuzzGroupMatchesReference(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		c := drawA2A(seed)
		rng := rand.New(rand.NewSource(^seed))
		model := vtime.Default()
		barrier := rng.Intn(2) == 0
		if barrier {
			model.BetaNsPerByte = 0
		}
		roots := make([]int, len(c.groups))
		for i, g := range c.groups {
			if roots[i] = rng.Intn(c.p); TreePos(g, roots[i]) > 0 {
				roots[i] = g[0]
			}
		}
		run := func(ops groupOps) (*Result, [][]any) {
			got := make([][]any, c.p)
			res := runWithin(t, Config{P: c.p, Model: model}, func(p *Proc) {
				for i, comp := range c.compute {
					p.Compute(comp[p.rank])
					for key, g := range c.groups {
						if TreePos(g, p.rank) >= 0 {
							got[p.rank] = append(got[p.rank], ops(p, key, g, roots[key], i, c.bytes, barrier)...)
						}
					}
				}
			})
			return res, got
		}
		ref, refGot := run(refCollectives)
		grp, grpGot := run(groupCollectives)
		if !reflect.DeepEqual(ref.Clocks, grp.Clocks) {
			t.Fatalf("groups %v roots %v bytes %d barrier %v: clocks\nreference %v\ngroup     %v", c.groups, roots, c.bytes, barrier, ref.Clocks, grp.Clocks)
		}
		if !reflect.DeepEqual(ref.Ledgers, grp.Ledgers) {
			t.Fatalf("groups %v roots %v: ledgers differ", c.groups, roots)
		}
		if !reflect.DeepEqual(refGot, grpGot) {
			t.Fatalf("groups %v roots %v: values\nreference %v\ngroup     %v", c.groups, roots, refGot, grpGot)
		}
	})
}
