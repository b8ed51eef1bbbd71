package mpi

// This file provides the radix (binomial) tree topology helpers the
// tracing layer uses for its reductions: ScalaTrace consolidates traces
// "in a reduction step over a radix tree rooted in rank 0", and Chameleon
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

// TreeParentPos returns the binomial-tree parent position of pos
// (pos - lowest set bit), or -1 for the root.
func TreeParentPos(pos int) int {
	if pos <= 0 {
		return -1
	}
	return pos &^ (pos & -pos)
}

// TreeChildPositions returns the binomial-tree child positions of pos in
// a tree over n members, in ascending mask order (the deterministic
// receive order used by merges). Children of pos are pos|mask for each
// mask = 1, 2, 4, ... below pos's low bit (all masks for the root).
func TreeChildPositions(pos, n int) []int {
	var out []int
	for mask := 1; pos|mask < n; mask <<= 1 {
		if pos&mask != 0 {
			break
		}
		out = append(out, pos|mask)
	}
	return out
}
