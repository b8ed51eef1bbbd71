package mpi

// This file provides communicators over an explicit member list: Group,
// the traced communicator replay runs a collective over part of the
// world on, and GroupBcastObj, the one untraced collective the
// clustering layer broadcasts its selection with.

// groupCommBase is the CommID space of Group communicators, indexed by
// the caller's key. It sits above every shrunken world's ID
// (shrunkCommBase plus an epoch below 2^20).
const groupCommBase CommID = 1 << 21

// GroupKeys is the number of keys Group accepts. collTag shifts a
// CommID 40 bits up, so an ID below 2^23 keeps every collective's tag
// inside an int64.
const GroupKeys = 1<<23 - int(groupCommBase)

// Group returns this rank's handle on the communicator over members
// (world ranks, comm rank = position in the list), or nil when this
// rank is not a member. Its ID is key's own, so every member that
// passes the same key and list builds the same communicator with no
// communication, and its collectives take their sequence and tags from
// the runtime like any other communicator's. Callers give each
// distinct list a distinct key in [0, GroupKeys).
func (p *Proc) Group(key int, members []int) *Comm {
	if key < 0 || key >= GroupKeys {
		panic("mpi: Group key out of range")
	}
	self := TreePos(members, p.rank)
	if self < 0 {
		return nil
	}
	return &Comm{p: p, id: groupCommBase + CommID(key), group: members, self: self}
}

// groupComm returns this rank's handle on the positional, untraced
// communicator over members (comm rank = position in the list,
// position 0 the root of every tree); ok is false for a non-member,
// who takes no part.
func groupComm(p *Proc, members []int) (c Comm, ok bool) {
	pos := TreePos(members, p.rank)
	return Comm{p: p, id: CommInternal, group: members, self: pos}, pos >= 0
}

// GroupBcastObj broadcasts obj (of the given payload size) from
// members[0] down the binomial tree and returns it on every member
// (non-members get obj back unchanged). The tag is the caller's, since
// members change over time and there is no per-communicator sequence
// to lean on, and the traffic travels on CommInternal, like every
// other tracing-layer message.
func GroupBcastObj(p *Proc, members []int, tag int, obj any, bytes int) any {
	c, ok := groupComm(p, members)
	if !ok {
		return obj
	}
	return c.treeBcastObj(0, tag, bytes, obj)
}
