package trace

// Rehash recomputes n's structural hash (and its children's) and
// returns it, for the external tests.
func Rehash(n *Node) uint32 { return n.rehash() }
