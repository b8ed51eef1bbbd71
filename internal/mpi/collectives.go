package mpi

import "fmt"

// ReduceOp combines two uint64 reduction operands.
type ReduceOp func(a, b uint64) uint64

// Built-in reduction operators.
var (
	OpSum ReduceOp = func(a, b uint64) uint64 { return a + b }
	OpMax ReduceOp = func(a, b uint64) uint64 {
		if a > b {
			return a
		}
		return b
	}
	OpMin ReduceOp = func(a, b uint64) uint64 {
		if a < b {
			return a
		}
		return b
	}
	OpBor ReduceOp = func(a, b uint64) uint64 { return a | b }
)

// collTag derives a unique internal tag for the seq-th collective on
// communicator id, phase in [0,16). All ranks call collectives on a
// communicator in the same order (an MPI requirement), so tags agree.
func collTag(id CommID, seq, phase int) int {
	return int(id)<<40 | seq<<4 | phase
}

// nextSeq advances this rank's collective sequence number for the
// communicator.
func (c *Comm) nextSeq() int {
	s := c.p.collSeq[c.id]
	c.p.collSeq[c.id] = s + 1
	return s
}

// vrank maps a communicator rank to its position in a tree rooted at
// root.
func vrank(rank, root, p int) int { return (rank - root + p) % p }

func unvrank(vr, root, p int) int { return (vr + root) % p }

// internal returns the untraced alias of this communicator used for
// collective internals (separate matching context, like an MPI
// collective context id).
func (c *Comm) internal() Comm {
	return Comm{p: c.p, id: CommInternal, group: c.group, self: c.self}
}

// treeBcast broadcasts msg's body (bytes, and payload or scalar slot)
// down a binomial tree rooted at root and returns the (possibly
// received) message on every rank.
func (c *Comm) treeBcast(root, tag int, msg message) message {
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

// treeBcastObj broadcasts payload and returns it on every rank.
func (c *Comm) treeBcastObj(root, tag, bytes int, payload any) any {
	msg := c.treeBcast(root, tag, message{bytes: bytes, payload: payload})
	return msg.value()
}

// treeBcastU64 broadcasts v in the scalar slot and returns it on every
// rank.
func (c *Comm) treeBcastU64(root, tag int, v uint64) uint64 {
	return c.treeBcast(root, tag, scalarMsg(v)).u64
}

// treeReduceU64 reduces val to root over a binomial tree; the reduced
// value is meaningful only at root. Every hop carries its operand in the
// scalar slot.
func (c *Comm) treeReduceU64(root, tag int, val uint64, op ReduceOp) uint64 {
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

type gatherPair struct {
	Rank int
	Obj  any
}

// treeGather collects every rank's (rank, obj) contribution at root via a
// binomial tree; only root's return value is meaningful (indexed by comm
// rank).
func (c *Comm) treeGather(root, tag, bytes int, obj any) []any {
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

// --- raw (untraced) collectives for the tracing layer ----------------------

// RawBarrier synchronizes all ranks of the communicator without
// interposition and returns, on every rank, the sum of the words the
// ranks entered with: a reduce of the words to rank 0, then a broadcast
// of their sum. The broadcast leg is a 0-byte message whatever the sum
// (the value rides in the scalar slot), so a word costs nothing on the
// virtual clock; a barrier that carries nothing passes 0.
func (c *Comm) RawBarrier(word uint64) uint64 {
	seq := c.nextSeq()
	sum := c.treeReduceU64(0, collTag(c.id, seq, 0), word, OpSum)
	// A barrier leaves every rank at (at least) the time the last rank
	// reached it plus the tree traversal costs already charged.
	return c.treeBcast(0, collTag(c.id, seq, 1), message{u64: sum, scalar: true}).u64
}

// RawBcastU64 broadcasts v from root without interposition.
func (c *Comm) RawBcastU64(root int, v uint64) uint64 {
	seq := c.nextSeq()
	return c.treeBcastU64(root, collTag(c.id, seq, 0), v)
}

// RawReduceU64 reduces v to root without interposition; only root's
// return value is meaningful.
func (c *Comm) RawReduceU64(root int, v uint64, op ReduceOp) uint64 {
	seq := c.nextSeq()
	return c.treeReduceU64(root, collTag(c.id, seq, 0), v, op)
}

// RawAllreduceU64 is Reduce followed by Bcast (the structure Algorithm 1
// prescribes: "Sum all tempReduceVals using MPI_Reduce; MPI_Bcast ... by
// rank root").
func (c *Comm) RawAllreduceU64(v uint64, op ReduceOp) uint64 {
	seq := c.nextSeq()
	r := c.treeReduceU64(0, collTag(c.id, seq, 0), v, op)
	return c.treeBcastU64(0, collTag(c.id, seq, 1), r)
}

// RawBcastObj broadcasts an opaque object of the given payload size from
// root without interposition.
func (c *Comm) RawBcastObj(root int, obj any, bytes int) any {
	seq := c.nextSeq()
	return c.treeBcastObj(root, collTag(c.id, seq, 0), bytes, obj)
}

// --- public (traced) collectives -------------------------------------------

// Barrier synchronizes the communicator. It carries the word an
// interposer's Pre left in CallInfo.Vote and hands Post the sum over
// the ranks in the same field. The word travels with this rank's
// membership epoch in its high bits (0 until a crash), so a member that
// entered on a stale view is caught here instead of corrupting the sum.
// A marker barrier first consults the fault injector (when one is
// configured): a rank scheduled to crash here unwinds instead of
// participating, and once membership has shrunk the marker
// communicator's group is the survivors.
func (c *Comm) Barrier() {
	p := c.p
	if c.id == CommMarker {
		p.markerSeq++
		if p.rt.fault != nil {
			p.faultMarker()
		}
	}
	ci, start := p.opBegin(CallInfo{Op: OpBarrier, Comm: c.id, Dest: NoPeer, Src: NoPeer, Root: NoPeer})
	epoch := uint64(p.epoch)
	sum := c.RawBarrier(ci.Vote | epoch<<voteEpochShift)
	if got, want := sum>>voteEpochShift, epoch*uint64(len(c.group)); got != want {
		panic(fmt.Sprintf("mpi: barrier epoch sum %d, want %d (rank %d epoch %d)", got, want, p.rank, epoch))
	}
	ci.Vote = sum & (1<<voteEpochShift - 1)
	p.opEnd(ci, start)
}

// Bcast broadcasts payload (of the given size) from root and returns it
// on every rank.
func (c *Comm) Bcast(root, bytes int, payload any) any {
	ci, start := c.p.opBegin(CallInfo{Op: OpBcast, Comm: c.id, Dest: NoPeer, Src: NoPeer, Root: root, Bytes: bytes})
	out := c.RawBcastObj(root, payload, bytes)
	c.p.opEnd(ci, start)
	return out
}

// Reduce reduces val to root with op; bytes sizes the per-rank
// contribution for cost purposes.
func (c *Comm) Reduce(root, bytes int, val uint64, op ReduceOp) uint64 {
	ci, start := c.p.opBegin(CallInfo{Op: OpReduce, Comm: c.id, Dest: NoPeer, Src: NoPeer, Root: root, Bytes: bytes})
	out := c.RawReduceU64(root, val, op)
	c.p.opEnd(ci, start)
	return out
}

// Allreduce reduces val across all ranks and distributes the result.
func (c *Comm) Allreduce(bytes int, val uint64, op ReduceOp) uint64 {
	ci, start := c.p.opBegin(CallInfo{Op: OpAllreduce, Comm: c.id, Dest: NoPeer, Src: NoPeer, Root: 0, Bytes: bytes})
	out := c.RawAllreduceU64(val, op)
	c.p.opEnd(ci, start)
	return out
}

// Gather collects per-rank payloads at root (slice indexed by comm rank
// at root, nil elsewhere).
func (c *Comm) Gather(root, bytes int, payload any) []any {
	ci, start := c.p.opBegin(CallInfo{Op: OpGather, Comm: c.id, Dest: NoPeer, Src: NoPeer, Root: root, Bytes: bytes})
	out := c.treeGather(root, collTag(c.id, c.nextSeq(), 0), bytes, payload)
	c.p.opEnd(ci, start)
	return out
}

// Allgather collects every rank's payload everywhere.
func (c *Comm) Allgather(bytes int, payload any) []any {
	ci, start := c.p.opBegin(CallInfo{Op: OpAllgather, Comm: c.id, Dest: NoPeer, Src: NoPeer, Root: 0, Bytes: bytes})
	seq := c.nextSeq()
	gathered := c.treeGather(0, collTag(c.id, seq, 0), bytes, payload)
	out := c.treeBcastObj(0, collTag(c.id, seq, 1), bytes*len(c.group), gathered)
	c.p.opEnd(ci, start)
	if out == nil {
		return nil
	}
	return out.([]any)
}

// Scatter distributes payloads[i] from root to comm rank i; returns this
// rank's element.
func (c *Comm) Scatter(root, bytes int, payloads []any) any {
	ci, start := c.p.opBegin(CallInfo{Op: OpScatter, Comm: c.id, Dest: NoPeer, Src: NoPeer, Root: root, Bytes: bytes})
	mine := c.scatter(root, collTag(c.id, c.nextSeq(), 0), bytes, payloads)
	c.p.opEnd(ci, start)
	return mine
}

// scatter is the uninterposed linear scatter: root sends element r (nil
// when payloads is nil) to every other comm rank in rank order.
func (c *Comm) scatter(root, tag, bytes int, payloads []any) any {
	in := c.internal()
	if c.self != root {
		return in.rawRecv(root, tag).Payload
	}
	var mine any
	for r := range c.group {
		var obj any
		if payloads != nil {
			obj = payloads[r]
		}
		if r == root {
			mine = obj
		} else {
			in.rawSend(r, tag, bytes, obj)
		}
	}
	return mine
}

// Alltoall performs a pairwise exchange of bytes with every other rank
// (payloads are synthetic; only the communication shape and cost matter).
func (c *Comm) Alltoall(bytes int) {
	ci, start := c.p.opBegin(CallInfo{Op: OpAlltoall, Comm: c.id, Dest: NoPeer, Src: NoPeer, Root: NoPeer, Bytes: bytes})
	c.alltoall(collTag(c.id, c.nextSeq(), 0), bytes)
	c.p.opEnd(ci, start)
}

// alltoall is the uninterposed pairwise exchange: in round r, exchange
// with self XOR r (when that peer exists), the standard power-of-two
// schedule generalized by skipping out-of-range peers.
func (c *Comm) alltoall(tag, bytes int) {
	in := c.internal()
	p := len(c.group)
	for r := 1; r < nextPow2(p); r++ {
		peer := c.self ^ r
		if peer >= p {
			continue
		}
		in.rawSend(peer, tag, bytes, nil)
		in.rawRecv(peer, tag)
	}
}

func nextPow2(p int) int {
	v := 1
	for v < p {
		v <<= 1
	}
	return v
}
