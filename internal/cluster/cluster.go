// Package cluster implements the signature-based clustering algorithms
// Chameleon selects lead processes with (the paper's Algorithm 2 plus
// the K-Farthest / K-Medoid / K-Random selectors studied in the authors'
// prior work).
//
// Clustering operates on signatures, never on traces: each item is a
// candidate cluster carrying a (Call-Path, SRC, DEST) signature triple
// and the rank list it represents. Items are first partitioned by
// Call-Path (every Call-Path keeps at least one representative so no MPI
// event is lost), then within a partition the selector picks
// K/NumCallPath representatives by SRC/DEST distance, and remaining
// items merge into their closest selected cluster.
package cluster

import (
	"cmp"
	"slices"

	"chameleon/internal/ranklist"
	"chameleon/internal/sig"
)

// Item is one candidate cluster: a representative rank, the ranks it
// stands for, and its signature triple.
type Item struct {
	Lead  int
	Ranks ranklist.List
	Sig   sig.Triple
	// Variant records that members with *differing* SRC/DEST signatures
	// were merged into this cluster: their end-point parameters are
	// rank-dependent, so ScalaTrace's relative encoding is not location
	// independent for them. The lead then pins its end-points to
	// absolute ranks before the flush (the master/worker case), instead
	// of letting every member transpose them.
	Variant bool
}

// Algorithm selects which representative-selection strategy
// Algorithm 2 (the paper's FindTopK) uses.
type Algorithm int

// Selection strategies.
const (
	// KFarthest greedily picks the item farthest from the selected set
	// (maximal signature diversity).
	KFarthest Algorithm = iota
	// KMedoid runs a bounded PAM refinement that minimizes total
	// distance from items to their representative.
	KMedoid
	// KRandom picks deterministically pseudo-random representatives
	// (the baseline selector).
	KRandom
)

func (a Algorithm) String() string {
	switch a {
	case KFarthest:
		return "k-farthest"
	case KMedoid:
		return "k-medoid"
	case KRandom:
		return "k-random"
	}
	return "algo?"
}

// ParseAlgorithm maps a name to an Algorithm (KFarthest for unknown).
func ParseAlgorithm(s string) Algorithm {
	switch s {
	case "k-medoid", "kmedoid", "medoid":
		return KMedoid
	case "k-random", "krandom", "random":
		return KRandom
	}
	return KFarthest
}

// Result is the outcome of SelectLeads: the representative items (each now
// covering its own ranks plus every merged cluster's ranks) and the
// amount of distance work performed (for cost accounting).
type Result struct {
	Top       []Item
	Distances int
}

// SelectLeads runs the full per-node clustering step: partition by
// Call-Path, give each partition a budget of K/NumCallPath (at least 1 —
// "Chameleon does not miss any MPI event by selecting at least one
// representative from each callpath cluster"; K grows dynamically when
// Call-Paths exceed it), and run Algorithm 2 per partition. Top is
// sorted by lead. SelectLeads does not write items.
func SelectLeads(items []Item, k int, algo Algorithm) Result {
	return selectLeads(slices.Clone(items), k, algo)
}

// selectLeads is SelectLeads over a working set the caller owns: it
// sorts its by (Call-Path, Lead), so each Call-Path partition is one run
// of it, and selects within each run. The only allocations are the
// result and the rank-list unions of merged clusters.
func selectLeads(its []Item, k int, algo Algorithm) Result {
	var res Result
	if len(its) == 0 {
		return res
	}
	slices.SortFunc(its, func(a, b Item) int {
		if c := cmp.Compare(a.Sig.CallPath, b.Sig.CallPath); c != 0 {
			return c
		}
		return cmp.Compare(a.Lead, b.Lead)
	})
	paths := 0
	for s := 0; s < len(its); s = runEnd(its, s) {
		paths++
	}
	perPath := max(k/paths, 1) // at least 1: dynamic K increase
	kept := 0
	for s := 0; s < len(its); {
		e := runEnd(its, s)
		kept += min(perPath, e-s)
		s = e
	}
	top := make([]Item, 0, kept)
	for s := 0; s < len(its); {
		e := runEnd(its, s)
		if perPath >= e-s {
			top = append(top, its[s:e]...)
		} else {
			top = topK(top, its[s:e], perPath, algo, &res.Distances)
		}
		s = e
	}
	slices.SortFunc(top, byLead)
	res.Top = top
	return res
}

// runEnd is the end of the Call-Path run of its starting at s.
func runEnd(its []Item, s int) int {
	e := s + 1
	for e < len(its) && its[e].Sig.CallPath == its[s].Sig.CallPath {
		e++
	}
	return e
}

func byLead(a, b Item) int { return cmp.Compare(a.Lead, b.Lead) }

// Scratch sizes the selectors keep on the stack. A working set is at
// most 2K+1 items at an internal node of the radix tree; a larger one
// (the root after a dynamic K increase, a failover re-selection) takes
// one heap slice per scratch.
const (
	stackItems  = 64
	stackChosen = 16
)

// scratch returns buf[:n] cleared, or a fresh slice when n exceeds it.
func scratch[T any](buf []T, n int) []T {
	if n > len(buf) {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// topK is Algorithm 2 over one Call-Path partition sorted by lead, with
// k < len(its): it appends the k representatives to dst, each covering
// its own ranks plus those of every item assigned to it, and returns
// dst.
func topK(dst, its []Item, k int, algo Algorithm, dist *int) []Item {
	var chosenBuf [stackChosen]int
	var isChosenBuf [stackItems]bool
	var minDistBuf [stackItems]uint64
	chosen := scratch(chosenBuf[:], k)
	isChosen := scratch(isChosenBuf[:], len(its))
	switch algo {
	case KMedoid:
		selectMedoid(its, chosen, isChosen, scratch(minDistBuf[:], len(its)), dist)
	case KRandom:
		selectRandom(its, chosen, isChosen)
	default:
		selectFarthest(its, chosen, isChosen, scratch(minDistBuf[:], len(its)), dist)
	}

	// Assign every non-selected item to its closest representative
	// (Algorithm 2 lines 6-9) and union the rank lists.
	base := len(dst)
	for _, idx := range chosen {
		dst = append(dst, its[idx])
	}
	top := dst[base:]
	for i, it := range its {
		if isChosen[i] {
			continue
		}
		best, bestD := 0, ^uint64(0)
		for j, rep := range top {
			d := sig.Distance(it.Sig, rep.Sig)
			*dist++
			if d < bestD {
				best, bestD = j, d
			}
		}
		top[best].Ranks = top[best].Ranks.Union(it.Ranks)
		if bestD != 0 || it.Variant {
			top[best].Variant = true
		}
	}
	return dst
}

// selectFarthest fills chosen (len k) by greedily growing the
// representative set with the item maximizing its minimum distance to
// the set ("find farthest cluster to TopK list"), marking each pick in
// isChosen. The seed is the lowest-rank item for determinism. chosen
// ends sorted; minDist is scratch of len(its).
func selectFarthest(its []Item, chosen []int, isChosen []bool, minDist []uint64, dist *int) {
	chosen[0], isChosen[0] = 0, true
	for i := range its {
		minDist[i] = sig.Distance(its[i].Sig, its[0].Sig)
		*dist++
	}
	for n := 1; n < len(chosen); n++ {
		best, bestD := -1, uint64(0)
		for i := range its {
			if isChosen[i] {
				continue
			}
			if best == -1 || minDist[i] > bestD {
				best, bestD = i, minDist[i]
			}
		}
		chosen[n], isChosen[best] = best, true
		for i := range its {
			d := sig.Distance(its[i].Sig, its[best].Sig)
			*dist++
			if d < minDist[i] {
				minDist[i] = d
			}
		}
	}
	slices.Sort(chosen)
}

// selectMedoid seeds with K-Farthest and refines with bounded PAM swaps,
// each tried in place and undone unless it lowers the total distance.
// Each Chameleon node clusters at most 2K+1 items, so the K³ PAM cost
// stays constant.
func selectMedoid(its []Item, chosen []int, isChosen []bool, minDist []uint64, dist *int) {
	selectFarthest(its, chosen, isChosen, minDist, dist)
	cost := func() uint64 {
		var total uint64
		for i := range its {
			best := ^uint64(0)
			for _, r := range chosen {
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
	cur := cost()
	const maxRounds = 8
	for round := 0; round < maxRounds; round++ {
		improved := false
		for ci := range chosen {
			for cand := range its {
				if isChosen[cand] {
					continue
				}
				old := chosen[ci]
				chosen[ci] = cand
				if c := cost(); c < cur {
					cur = c
					isChosen[old], isChosen[cand] = false, true
					improved = true
				} else {
					chosen[ci] = old
				}
			}
		}
		if !improved {
			break
		}
	}
	slices.Sort(chosen)
}

// selectRandom fills chosen (len k) with deterministic pseudo-random
// items (splitmix over the item count so runs are reproducible), marking
// each in isChosen. chosen ends sorted.
func selectRandom(its []Item, chosen []int, isChosen []bool) {
	state := uint64(0x9e3779b97f4a7c15)
	for n := 0; n < len(chosen); {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		idx := int((z ^ (z >> 31)) % uint64(len(its)))
		if !isChosen[idx] {
			chosen[n], isChosen[idx] = idx, true
			n++
		}
	}
	slices.Sort(chosen)
}
