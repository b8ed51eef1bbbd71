package cluster

// The clustering step as it was before selection ran in place over a
// working set sorted by (Call-Path, Lead): a map partition, then a copy
// and a reflect sort per partition, and a fresh slice per medoid trial
// swap. It is kept verbatim, each function renamed ref*, as the oracle
// FuzzSelectMatchesReference checks SelectLeads against.

import (
	"sort"

	"chameleon/internal/sig"
)

// refFindTopK implements Algorithm 2: it selects up to k representatives
// among items by SRC/DEST signature distance and merges every
// non-selected item into its closest representative. Items must share a
// Call-Path (the caller partitions first). The input order must be
// deterministic; refFindTopK sorts by lead rank to make sure.
func refFindTopK(items []Item, k int, algo Algorithm) Result {
	var res Result
	if len(items) == 0 || k <= 0 {
		return res
	}
	its := append([]Item(nil), items...)
	sort.Slice(its, func(i, j int) bool { return its[i].Lead < its[j].Lead })
	if k >= len(its) {
		res.Top = its
		return res
	}

	var chosen []int
	switch algo {
	case KMedoid:
		chosen = refSelectMedoid(its, k, &res.Distances)
	case KRandom:
		chosen = refSelectRandom(its, k)
	default:
		chosen = refSelectFarthest(its, k, &res.Distances)
	}

	// Assign every non-selected item to its closest representative
	// (Algorithm 2 lines 6-9) and union the rank lists.
	top := make([]Item, len(chosen))
	for i, idx := range chosen {
		top[i] = its[idx]
	}
	isChosen := make([]bool, len(its))
	for _, idx := range chosen {
		isChosen[idx] = true
	}
	for i, it := range its {
		if isChosen[i] {
			continue
		}
		best, bestD := 0, ^uint64(0)
		for j, rep := range top {
			d := sig.Distance(it.Sig, rep.Sig)
			res.Distances++
			if d < bestD {
				best, bestD = j, d
			}
		}
		top[best].Ranks = top[best].Ranks.Union(it.Ranks)
		if bestD != 0 || it.Variant {
			top[best].Variant = true
		}
	}
	res.Top = top
	return res
}

// refSelectFarthest greedily grows the representative set with the item
// maximizing its minimum distance to the set ("find farthest cluster to
// TopK list"). The seed is the lowest-rank item for determinism.
func refSelectFarthest(its []Item, k int, dist *int) []int {
	chosen := []int{0}
	minDist := make([]uint64, len(its))
	for i := range its {
		minDist[i] = sig.Distance(its[i].Sig, its[0].Sig)
		*dist++
	}
	for len(chosen) < k {
		best, bestD := -1, uint64(0)
		for i := range its {
			if refContainsInt(chosen, i) {
				continue
			}
			if best == -1 || minDist[i] > bestD {
				best, bestD = i, minDist[i]
			}
		}
		if best == -1 {
			break
		}
		chosen = append(chosen, best)
		for i := range its {
			d := sig.Distance(its[i].Sig, its[best].Sig)
			*dist++
			if d < minDist[i] {
				minDist[i] = d
			}
		}
	}
	sort.Ints(chosen)
	return chosen
}

// refSelectMedoid seeds with K-Farthest and refines with bounded PAM swaps.
// Each Chameleon node clusters at most 2K+1 items, so the K³ PAM cost
// stays constant.
func refSelectMedoid(its []Item, k int, dist *int) []int {
	chosen := refSelectFarthest(its, k, dist)
	cost := func(reps []int) uint64 {
		var total uint64
		for i := range its {
			best := ^uint64(0)
			for _, r := range reps {
				d := sig.Distance(its[i].Sig, its[r].Sig)
				*dist++
				if d < best {
					best = d
				}
			}
			total += best
		}
		return total
	}
	cur := cost(chosen)
	const maxRounds = 8
	for round := 0; round < maxRounds; round++ {
		improved := false
		for ci := range chosen {
			for cand := range its {
				if refContainsInt(chosen, cand) {
					continue
				}
				trial := append([]int(nil), chosen...)
				trial[ci] = cand
				if c := cost(trial); c < cur {
					chosen, cur = trial, c
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}
	sort.Ints(chosen)
	return chosen
}

// refSelectRandom picks k deterministic pseudo-random items (splitmix over
// the item count so runs are reproducible).
func refSelectRandom(its []Item, k int) []int {
	chosen := make([]int, 0, k)
	seen := make([]bool, len(its))
	state := uint64(0x9e3779b97f4a7c15)
	for len(chosen) < k {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		idx := int((z ^ (z >> 31)) % uint64(len(its)))
		if !seen[idx] {
			seen[idx] = true
			chosen = append(chosen, idx)
		}
	}
	sort.Ints(chosen)
	return chosen
}

func refContainsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// refPartitionByCallPath groups items by Call-Path signature, returning the
// groups keyed by signature in deterministic (sorted) order.
func refPartitionByCallPath(items []Item) (keys []uint64, groups map[uint64][]Item) {
	groups = make(map[uint64][]Item)
	for _, it := range items {
		groups[it.Sig.CallPath] = append(groups[it.Sig.CallPath], it)
	}
	keys = make([]uint64, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys, groups
}

// refSelectLeads runs the full per-node clustering step: partition by
// Call-Path, give each partition a budget of K/NumCallPath (at least 1 —
// "Chameleon does not miss any MPI event by selecting at least one
// representative from each callpath cluster"; K grows dynamically when
// Call-Paths exceed it), and run refFindTopK per partition.
func refSelectLeads(items []Item, k int, algo Algorithm) Result {
	keys, groups := refPartitionByCallPath(items)
	if len(keys) == 0 {
		return Result{}
	}
	perPath := k / len(keys)
	if perPath < 1 {
		perPath = 1 // dynamic K increase
	}
	var res Result
	for _, key := range keys {
		sub := refFindTopK(groups[key], perPath, algo)
		res.Top = append(res.Top, sub.Top...)
		res.Distances += sub.Distances
	}
	sort.Slice(res.Top, func(i, j int) bool { return res.Top[i].Lead < res.Top[j].Lead })
	return res
}
