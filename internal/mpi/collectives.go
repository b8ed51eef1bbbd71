package mpi

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"chameleon/internal/vtime"
)

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
// received) message on every rank: TreePeer walked downward, a rank
// receives from its parent and forwards to each child.
func (c *Comm) treeBcast(root, tag int, msg message) message {
	p := len(c.group)
	vr := vrank(c.self, root, p)
	in := c.internal()
	for mask := nextPow2(p) >> 1; mask > 0; mask >>= 1 {
		switch peer := TreePeer(vr, mask, p); {
		case peer > vr:
			in.send(unvrank(peer, root, p), tag, msg)
		case peer >= 0:
			msg = in.recv(unvrank(peer, root, p), tag)
			c.p.Clock.Advance(c.p.rt.model.CollectivePerLevel)
		}
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
	for mask := 1; mask < p; mask <<= 1 {
		switch peer := TreePeer(vr, mask, p); {
		case peer > vr:
			val = op(val, in.recv(unvrank(peer, root, p), tag).u64)
			c.p.Clock.Advance(c.p.rt.model.CollectivePerLevel)
		case peer >= 0:
			in.send(unvrank(peer, root, p), tag, scalarMsg(val))
			return val
		}
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
	acc := []gatherPair{{Rank: c.self, Obj: obj}}
	accBytes := bytes
	for mask := 1; mask < p; mask <<= 1 {
		switch peer := TreePeer(vr, mask, p); {
		case peer > vr:
			msg := in.rawRecv(unvrank(peer, root, p), tag)
			acc = append(acc, msg.Payload.([]gatherPair)...)
			accBytes += msg.Bytes
			c.p.Clock.Advance(c.p.rt.model.CollectivePerLevel)
		case peer >= 0:
			in.rawSend(unvrank(peer, root, p), tag, accBytes, acc)
			return nil
		}
	}
	out := make([]any, p)
	for _, pr := range acc {
		out[pr.Rank] = pr.Obj
	}
	return out
}

// --- raw (untraced) collectives for the tracing layer ----------------------

// rawBarrier synchronizes all ranks of the communicator without
// interposition and returns, on every rank, the sum of the words the
// ranks entered with: a reduce of the words to rank 0, then a broadcast
// of their sum. The broadcast leg is a 0-byte message whatever the sum
// (the value rides in the scalar slot), so a word costs nothing on the
// virtual clock; a barrier that carries nothing passes 0.
func (c *Comm) rawBarrier(word uint64) uint64 { return c.allreduce(word, OpSum, 0) }

// RawAllreduceU64 is Reduce followed by Bcast (the structure Algorithm 1
// prescribes: "Sum all tempReduceVals using MPI_Reduce; MPI_Bcast ... by
// rank root").
func (c *Comm) RawAllreduceU64(v uint64, op ReduceOp) uint64 { return c.allreduce(v, op, 8) }

// allreduce is the uninterposed reduce of v with op to rank 0 over the
// binomial tree, then the broadcast of the result, whose hops carry
// bcastBytes. In process with causal capture off it is evaluated;
// otherwise (a TCP fleet, or causal capture, which records every hop's
// edge) it is enacted.
func (c *Comm) allreduce(v uint64, op ReduceOp, bcastBytes int) uint64 {
	tag := collTag(c.id, c.nextSeq(), 0)
	if c.p.rt.evaluates {
		return c.evalAllreduce(tag, v, op, bcastBytes)
	}
	return c.enactAllreduce(tag, v, op, bcastBytes)
}

// enactAllreduce runs the reduce and the broadcast as messages, on tag
// and tag+1.
func (c *Comm) enactAllreduce(tag int, v uint64, op ReduceOp, bcastBytes int) uint64 {
	r := c.treeReduceU64(0, tag, v, op)
	return c.treeBcast(0, tag+1, message{bytes: bcastBytes, u64: r, scalar: true}).u64
}

// evalAllreduce computes what enactAllreduce would leave on every
// member's clock and return, and sends nothing (Comm.evaluate, with
// foldTree as the fold).
func (c *Comm) evalAllreduce(tag int, v uint64, op ReduceOp, bcastBytes int) uint64 {
	m := c.p.rt.model
	return c.evaluate(tag, v, func(clocks []vtime.Time, words []uint64) uint64 {
		return foldTree(clocks, words, op, bcastBytes, m)
	})
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
	sum := c.rawBarrier(ci.Vote | epoch<<voteEpochShift)
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
	out := c.treeBcastObj(root, collTag(c.id, c.nextSeq(), 0), bytes, payload)
	c.p.opEnd(ci, start)
	return out
}

// Reduce reduces val to root with op; bytes sizes the per-rank
// contribution for cost purposes.
func (c *Comm) Reduce(root, bytes int, val uint64, op ReduceOp) uint64 {
	ci, start := c.p.opBegin(CallInfo{Op: OpReduce, Comm: c.id, Dest: NoPeer, Src: NoPeer, Root: root, Bytes: bytes})
	out := c.treeReduceU64(root, collTag(c.id, c.nextSeq(), 0), val, op)
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

// pairwisePeer is the pairwise exchange's schedule, stated once for
// the enactor and the evaluator: over n positions the rounds run
// 1..nextPow2(n)-1, and in round r position i exchanges with i XOR r
// when that position exists (-1: it sits the round out), the standard
// power-of-two schedule generalized by skipping out-of-range peers.
func pairwisePeer(i, r, n int) int {
	if peer := i ^ r; peer < n {
		return peer
	}
	return -1
}

// alltoall is the uninterposed pairwise exchange. In process with
// causal capture off it is evaluated; otherwise (a TCP fleet, or causal
// capture, which records every hop's edge) it is enacted.
func (c *Comm) alltoall(tag, bytes int) {
	if c.p.rt.evaluates {
		c.evalAlltoall(tag, bytes)
		return
	}
	c.enactAlltoall(tag, bytes)
}

// enactAlltoall runs the pairwise exchange as messages: in each round,
// send to the peer, then receive from it.
func (c *Comm) enactAlltoall(tag, bytes int) {
	in := c.internal()
	n := len(c.group)
	for r := 1; r < nextPow2(n); r++ {
		if peer := pairwisePeer(c.self, r, n); peer >= 0 {
			in.rawSend(peer, tag, bytes, nil)
			in.rawRecv(peer, tag)
		}
	}
}

// evalAlltoall computes what enactAlltoall would leave on every
// member's clock, and sends nothing (Comm.evaluate, with foldPairwise
// as the fold).
func (c *Comm) evalAlltoall(tag, bytes int) {
	m := c.p.rt.model
	c.evaluate(tag, 0, func(clocks []vtime.Time, _ []uint64) uint64 {
		foldPairwise(clocks, bytes, m)
		return 0
	})
}

// evaluate runs one evaluated collective instance on tag and returns
// the word it leaves every member with. Each member writes its entry
// clock and its word into the instance's rendezvous slot; the last to
// arrive folds them (fold turns the entry clocks into exit clocks in
// place and returns the word), sets each waiter's clock to its exit
// time, hands it the word and releases it, then takes its own. The
// last member recycles the slot as soon as it has released everyone,
// so a waiter leaves with what was handed to it and never reads the
// slot once it wakes.
//
// A waiter reads as blocked with nothing pending, which influenceBound
// exempts. That is conservative for the collectives evaluated here:
// in the exchange every member receives from every other directly,
// and in a reduce to the root and a broadcast every exit clock lies
// after the root has heard from every member, so every exit clock is
// at least every member's entry clock + alpha. Until the last member
// arrives it is accounted for at a clock no later than its entry. The
// last member therefore releases every waiter before it moves its own
// clock, and bumps the change generation in between, so no bound scan
// can read a waiter as exempt and the last member as past its entry. A
// rooted tree collective alone has no such bound (a broadcast leaf
// waits on its parent only), so Bcast and Reduce stay enacted.
func (c *Comm) evaluate(tag int, word uint64, fold func(clocks []vtime.Time, words []uint64) uint64) uint64 {
	n := len(c.group)
	if n == 1 {
		return word
	}
	rt := c.p.rt
	s := rt.rdv.join(c.id, tag, c.group[0], n)
	s.clocks[c.self] = c.p.Clock.Now()
	s.words[c.self] = word
	if int(s.arrived.Add(1)) < n {
		return rt.mailboxes[c.p.rank].awaitRelease()
	}
	// Out of the table before anyone leaves, so no later instance that
	// shares the key can join this one.
	rt.rdv.leave(s)
	word = fold(s.clocks, s.words)
	for i, r := range c.group {
		if i != c.self {
			rt.procs[r].Clock.AdvanceTo(s.clocks[i])
			rt.mailboxes[r].release(word)
		}
	}
	if rt.anyWaiters.Load() > 0 {
		rt.bump()
	}
	c.p.Clock.AdvanceTo(s.clocks[c.self])
	rt.rdv.recycle(s)
	return word
}

// foldPairwise turns the entry clocks in c into the exit clocks of the
// pairwise exchange of bytes per pair. Each round a position with a
// peer leaves at max(own + alpha, peer's + PtoP(bytes)) + alpha: its
// send's injection, then its receive of the message the peer sent at
// the peer's clock, plus the receive overhead — what send and recv
// charge, with Clock.Advance's floor at zero.
func foldPairwise(c []vtime.Time, bytes int, m vtime.CostModel) {
	n := len(c)
	inject := vtime.Time(max(m.Alpha, 0))
	transfer := vtime.Time(m.PtoP(bytes))
	for r := 1; r < nextPow2(n); r++ {
		for i := range c {
			if j := pairwisePeer(i, r, n); j > i {
				ci, cj := c[i], c[j]
				c[i] = vtime.Max(ci+inject, cj+transfer) + inject
				c[j] = vtime.Max(cj+inject, ci+transfer) + inject
			}
		}
	}
}

// foldTree turns the entry clocks in c into the exit clocks of
// enactAllreduce and returns the reduced word: TreePeer walked upward,
// each position folding op(own, child's) of the words in w as it hears
// from each child, then downward, broadcasting the result. A hop is
// what send and recv charge, with Clock.Advance's floor at zero: the
// sender leaves at its clock + alpha, and the receiver at
// max(own, sender's + PtoP(bytes)) + alpha + CollectivePerLevel. A
// reduce hop carries 8 bytes, a broadcast hop bcastBytes. In round mask
// only multiples of mask meet anyone, so the walk visits those alone.
func foldTree(c []vtime.Time, w []uint64, op ReduceOp, bcastBytes int, m vtime.CostModel) uint64 {
	n := len(c)
	inject := vtime.Time(max(m.Alpha, 0))
	heard := inject + vtime.Time(max(m.CollectivePerLevel, 0))
	hop := func(from, to, bytes int) {
		arrive := c[from] + vtime.Time(m.PtoP(bytes))
		c[from] += inject
		c[to] = vtime.Max(c[to], arrive) + heard
	}
	for mask := 1; mask < n; mask <<= 1 {
		for pos := 0; pos < n; pos += mask {
			if child := TreePeer(pos, mask, n); child > pos {
				w[pos] = op(w[pos], w[child])
				hop(child, pos, 8)
			}
		}
	}
	for mask := nextPow2(n) >> 1; mask > 0; mask >>= 1 {
		for pos := 0; pos < n; pos += mask {
			if child := TreePeer(pos, mask, n); child > pos {
				hop(pos, child, bcastBytes)
			}
		}
	}
	return w[0]
}

// rendezvous is a run's table of live evaluated instances, with their
// spent slots kept for reuse, so an instance allocates nothing once a
// slot is spare. Every member takes its lock once to join and the last
// takes it twice more; the key tells concurrent instances apart.
type rendezvous struct {
	mu   sync.Mutex
	live []*rendezvousSlot
	free []*rendezvousSlot
}

// rendezvousSlot is one instance's meeting point, keyed by its
// communicator, its tag and the world rank of its first member.
type rendezvousSlot struct {
	comm    CommID
	tag     int
	lead    int
	arrived atomic.Int32
	// clocks holds the members' entry clocks by position, then their
	// exit clocks once the last member has folded them; words holds
	// the words they entered with, the fold's scratch.
	clocks []vtime.Time
	words  []uint64
}

// join returns the live slot of instance (comm, tag, lead) over n
// members, opening it if this member is the first to arrive.
func (t *rendezvous) join(comm CommID, tag, lead, n int) *rendezvousSlot {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.live {
		if s.comm == comm && s.tag == tag && s.lead == lead {
			return s
		}
	}
	var s *rendezvousSlot
	if k := len(t.free); k > 0 {
		s, t.free = t.free[k-1], t.free[:k-1]
	} else {
		s = new(rendezvousSlot)
	}
	s.comm, s.tag, s.lead = comm, tag, lead
	s.arrived.Store(0)
	if cap(s.clocks) < n {
		s.clocks, s.words = make([]vtime.Time, n), make([]uint64, n)
	}
	s.clocks, s.words = s.clocks[:n], s.words[:n]
	t.live = append(t.live, s)
	return s
}

// leave takes s out of the live table once every member has arrived.
func (t *rendezvous) leave(s *rendezvousSlot) {
	t.mu.Lock()
	i := slices.Index(t.live, s)
	t.live[i] = t.live[len(t.live)-1]
	t.live[len(t.live)-1] = nil
	t.live = t.live[:len(t.live)-1]
	t.mu.Unlock()
}

// recycle keeps s for a later instance once its exit clocks are handed
// out.
func (t *rendezvous) recycle(s *rendezvousSlot) {
	t.mu.Lock()
	t.free = append(t.free, s)
	t.mu.Unlock()
}

func nextPow2(p int) int {
	v := 1
	for v < p {
		v <<= 1
	}
	return v
}
