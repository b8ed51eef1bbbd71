package mpi

// This file provides the radix (binomial) tree the tracing layer and
// the rooted collectives climb: ScalaTrace consolidates traces "in a
// reduction step over a radix tree rooted in rank 0", and Chameleon
// runs the same reduction over the K lead ranks only.

// TreePos returns self's position in the ordered member list, or -1 if
// self is not a member. Position 0 is the tree root. Members are
// distinct, so a list that holds self at index self (the full world's
// [0,P), or any prefix of it) answers without a scan.
func TreePos(members []int, self int) int {
	if self >= 0 && self < len(members) && members[self] == self {
		return self
	}
	for i, m := range members {
		if m == self {
			return i
		}
	}
	return -1
}

// TreePeer is the binomial tree's schedule, stated once for every
// walker of it: over n positions the rounds are mask = 1, 2, 4, ...
// below nextPow2(n), and in round mask position pos meets its parent
// pos&^mask when mask is pos's lowest set bit, its child pos|mask when
// pos has no bit at or below mask and that child exists, and no one
// otherwise (-1). A peer below pos is the parent, one above it a child.
// Walked upward (a reduce, a gather, a merge), a position hears from
// its children in ascending mask order and then sends to its parent;
// walked downward (a broadcast), it hears from its parent and then
// sends to its children, largest subtree first. No one meets anyone in
// a round of n or more, so an upward walk may stop below n.
func TreePeer(pos, mask, n int) int {
	switch low := pos & -pos; {
	case low == mask:
		return pos &^ mask
	case pos&(mask<<1-1) == 0 && pos|mask < n:
		return pos | mask
	}
	return -1
}
