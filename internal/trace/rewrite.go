package trace

import "chameleon/internal/ranklist"

// RewriteRanks replaces every leaf's rank list with the given list.
// Before the online inter-compression step, "each lead process replaces
// the ranklist of events with the ranklist of its cluster", so merging
// only the K lead traces still yields a global trace covering all P
// ranks.
func RewriteRanks(seq []*Node, ranks ranklist.List) {
	for _, n := range seq {
		if n.IsLoop() {
			RewriteRanks(n.Body, ranks)
		} else {
			n.Ranks = ranks
		}
	}
}

// ResolveEndpoints pins every relative end-point in the sequence to the
// absolute rank it resolves to for rank self (modulo p). Leads of
// endpoint-variant clusters apply this before the flush so cluster
// members replay the concrete peers instead of transposing offsets that
// were never location independent.
func ResolveEndpoints(seq []*Node, self, p int) {
	for _, n := range seq {
		if n.IsLoop() {
			ResolveEndpoints(n.Body, self, p)
			continue
		}
		n.Ev.Dest = resolveEP(n.Ev.Dest, self, p)
		n.Ev.Src = resolveEP(n.Ev.Src, self, p)
	}
}

func resolveEP(e Endpoint, self, p int) Endpoint {
	if e.Kind != EPRelative {
		return e
	}
	r := ((self+e.Off)%p + p) % p
	return Absolute(r)
}
