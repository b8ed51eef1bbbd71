package mpi

import (
	"math/rand"
	"reflect"
	"testing"
)

// The tree collectives as they were before TreePeer stated the
// binomial schedule once: each wrote the tree out by mask arithmetic
// of its own. Kept verbatim (renamed) as the reference
// FuzzTreeCollectivesMatchReference holds the TreePeer walkers to.

// refTreeBcast broadcasts msg's body (bytes, and payload or scalar slot)
// down a binomial tree rooted at root and returns the (possibly
// received) message on every rank.
func (c *Comm) refTreeBcast(root, tag int, msg message) message {
	p := len(c.group)
	vr := vrank(c.self, root, p)
	in := c.internal()
	model := c.p.rt.model

	// Canonical binomial broadcast: a non-root rank receives from
	// vr - lowbit(vr); every rank then forwards to vr + mask for each
	// mask below its receive mask.
	mask := 1
	for mask < p {
		if vr&mask != 0 {
			src := unvrank(vr-mask, root, p)
			msg = in.recv(src, tag)
			c.p.Clock.Advance(model.CollectivePerLevel)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if vr+mask < p {
			in.send(unvrank(vr+mask, root, p), tag, msg)
		}
		mask >>= 1
	}
	return msg
}

// refTreeReduceU64 reduces val to root over a binomial tree; the reduced
// value is meaningful only at root. Every hop carries its operand in the
// scalar slot.
func (c *Comm) refTreeReduceU64(root, tag int, val uint64, op ReduceOp) uint64 {
	p := len(c.group)
	vr := vrank(c.self, root, p)
	in := c.internal()
	model := c.p.rt.model

	mask := 1
	for mask < p {
		if vr&mask != 0 {
			dst := unvrank(vr&^mask, root, p)
			in.send(dst, tag, scalarMsg(val))
			break
		}
		if vr|mask < p {
			src := unvrank(vr|mask, root, p)
			msg := in.recv(src, tag)
			val = op(val, msg.u64)
			c.p.Clock.Advance(model.CollectivePerLevel)
		}
		mask <<= 1
	}
	return val
}

// refTreeGather collects every rank's (rank, obj) contribution at root via a
// binomial tree; only root's return value is meaningful (indexed by comm
// rank).
func (c *Comm) refTreeGather(root, tag, bytes int, obj any) []any {
	p := len(c.group)
	vr := vrank(c.self, root, p)
	in := c.internal()
	model := c.p.rt.model

	acc := []gatherPair{{Rank: c.self, Obj: obj}}
	accBytes := bytes
	mask := 1
	for mask < p {
		if vr&mask != 0 {
			dst := unvrank(vr&^mask, root, p)
			in.rawSend(dst, tag, accBytes, acc)
			return nil
		}
		if vr|mask < p {
			src := unvrank(vr|mask, root, p)
			msg := in.rawRecv(src, tag)
			acc = append(acc, msg.Payload.([]gatherPair)...)
			accBytes += msg.Bytes
			c.p.Clock.Advance(model.CollectivePerLevel)
		}
		mask <<= 1
	}
	if vr != 0 {
		return nil
	}
	out := make([]any, p)
	for _, pr := range acc {
		out[pr.Rank] = pr.Obj
	}
	return out
}

// refRawBarrier is rawBarrier over the reference reduce and broadcast.
func (c *Comm) refRawBarrier(word uint64) uint64 {
	seq := c.nextSeq()
	sum := c.refTreeReduceU64(0, collTag(c.id, seq, 0), word, OpSum)
	return c.refTreeBcast(0, collTag(c.id, seq, 1), message{u64: sum, scalar: true}).u64
}

// treeImpl is one implementation of the tree collectives.
type treeImpl struct {
	bcast   func(c *Comm, root, tag int, msg message) message
	reduce  func(c *Comm, root, tag int, val uint64, op ReduceOp) uint64
	gather  func(c *Comm, root, tag, bytes int, obj any) []any
	barrier func(c *Comm, word uint64) uint64
}

var (
	treeWalked = treeImpl{(*Comm).treeBcast, (*Comm).treeReduceU64, (*Comm).treeGather, (*Comm).rawBarrier}
	treeRef    = treeImpl{(*Comm).refTreeBcast, (*Comm).refTreeReduceU64, (*Comm).refTreeGather, (*Comm).refRawBarrier}
)

// FuzzTreeCollectivesMatchReference: the TreePeer walkers leave every
// rank with the clock, the ledger and the values the reference ones
// do, over drawA2A's cases (the world, a member subset, or two
// disjoint groups that share a tag, each member entering at a clock of
// its own) with a drawn root and reduce operator. Each instance runs a
// reduce, a broadcast and a gather at phases 2-4 of the case's tag
// (clear of rawBarrier's own phases 0 and 1 on the world, and of the
// next instance's tag in a group, 4 above), then rawBarrier.
func FuzzTreeCollectivesMatchReference(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		c := drawA2A(seed)
		rng := rand.New(rand.NewSource(^seed))
		root := rng.Intn(64)
		op := []ReduceOp{OpSum, OpMax, OpMin, OpBor}[rng.Intn(4)]
		run := func(impl treeImpl) (*Result, [][]any) {
			got := make([][]any, c.p)
			res := c.run(t, func(comm *Comm, tag, bytes int) {
				r, me := root%len(comm.group), comm.p.rank
				word := uint64(me)*0x9e3779b97f4a7c15 + uint64(tag)
				reduced := impl.reduce(comm, r, tag+2, word, op)
				msg := impl.bcast(comm, r, tag+3, message{bytes: bytes, payload: word})
				gathered := impl.gather(comm, r, tag+4, bytes, me)
				got[me] = append(got[me], reduced, msg.value(), gathered, impl.barrier(comm, word))
			})
			return res, got
		}
		ref, refGot := run(treeRef)
		walked, walkedGot := run(treeWalked)
		if !reflect.DeepEqual(ref.Clocks, walked.Clocks) {
			t.Fatalf("groups %v root %d bytes %d: clocks\nreference %v\nwalked    %v", c.groups, root, c.bytes, ref.Clocks, walked.Clocks)
		}
		if !reflect.DeepEqual(ref.Ledgers, walked.Ledgers) {
			t.Fatalf("groups %v root %d: ledgers differ", c.groups, root)
		}
		if !reflect.DeepEqual(refGot, walkedGot) {
			t.Fatalf("groups %v root %d: values\nreference %v\nwalked    %v", c.groups, root, refGot, walkedGot)
		}
	})
}
