package mpi

// This file provides collectives over an explicit member list — the
// shrunken-world primitives the fault-tolerance path and replay run on
// once ranks have departed. Each runs the communicator collective's
// algorithm (collectives.go) on a communicator built over member
// *positions*, so any subset of world ranks can participate: the
// rooted ones walk TreePeer from members[0], GroupAlltoall walks
// pairwisePeer, with the same per-level costs. Tags are
// caller-supplied (members change over time, so there is no
// per-communicator sequence counter to lean on); each helper consumes a
// small contiguous tag block, documented per function. All traffic
// travels on CommInternal, like every other tracing-layer message.

// groupComm returns this rank's handle on the positional communicator
// over members (comm rank = position in the list, position 0 the root
// of every tree); ok is false for a non-member, who takes no part.
func groupComm(p *Proc, members []int) (c Comm, ok bool) {
	pos := TreePos(members, p.rank)
	return Comm{p: p, id: CommInternal, group: members, self: pos}, pos >= 0
}

// GroupReduceU64 reduces val over members toward members[0] on a
// binomial tree; the reduced value is meaningful only at members[0]
// (second return true). Non-members return immediately. Uses tag.
func GroupReduceU64(p *Proc, members []int, tag int, val uint64, op ReduceOp) (uint64, bool) {
	c, ok := groupComm(p, members)
	if !ok {
		return val, false
	}
	return c.treeReduceU64(0, tag, val, op), c.self == 0
}

// GroupBcastObj broadcasts obj (of the given payload size) from
// members[0] down the binomial tree and returns it on every member
// (non-members get obj back unchanged). Uses tag.
func GroupBcastObj(p *Proc, members []int, tag int, obj any, bytes int) any {
	c, ok := groupComm(p, members)
	if !ok {
		return obj
	}
	return c.treeBcastObj(0, tag, bytes, obj)
}

// GroupAllreduceU64 reduces val over members and distributes the result
// (reduce to members[0], then broadcast — the Algorithm 1 structure);
// non-members get val back. A barrier over members is this with val 0.
// Uses tags tag and tag|1.
func GroupAllreduceU64(p *Proc, members []int, tag int, val uint64, op ReduceOp) uint64 {
	c, ok := groupComm(p, members)
	if !ok {
		return val
	}
	return c.treeBcastU64(0, tag|1, c.treeReduceU64(0, tag, val, op))
}

// GroupGatherObj collects every member's contribution at members[0]
// (returned slice indexed by member position; nil elsewhere). Uses tag.
func GroupGatherObj(p *Proc, members []int, tag, bytes int, obj any) []any {
	c, ok := groupComm(p, members)
	if !ok {
		return nil
	}
	return c.treeGather(0, tag, bytes, obj)
}

// GroupScatter sends bytes from members[0] to every other member (the
// payloads are synthetic, as in Comm.Scatter during replay). Uses tag.
func GroupScatter(p *Proc, members []int, tag, bytes int) {
	if c, ok := groupComm(p, members); ok {
		c.scatter(0, tag, bytes, nil)
	}
}

// GroupAlltoall performs the pairwise exchange schedule of
// Comm.Alltoall over the member positions, evaluated where Comm.Alltoall
// is. Uses tag: its rendezvous is keyed by (CommInternal, tag,
// members[0]), so groups led by different ranks may share a tag.
func GroupAlltoall(p *Proc, members []int, tag, bytes int) {
	if c, ok := groupComm(p, members); ok {
		c.alltoall(tag, bytes)
	}
}
