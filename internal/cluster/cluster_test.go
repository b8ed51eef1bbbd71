package cluster

import (
	"runtime"
	"sort"
	"testing"

	"chameleon/internal/mpi"
	"chameleon/internal/ranklist"
	"chameleon/internal/sig"
	"chameleon/internal/vtime"
)

func item(rank int, cp, src, dest uint64) Item {
	return Item{
		Lead:  rank,
		Ranks: ranklist.SingleRank(rank),
		Sig:   sig.Triple{CallPath: cp, Src: src, Dest: dest},
	}
}

func leads(items []Item) []int {
	out := make([]int, len(items))
	for i, it := range items {
		out[i] = it.Lead
	}
	sort.Ints(out)
	return out
}

func coveredRanks(items []Item) []int {
	var all []int
	for _, it := range items {
		all = append(all, it.Ranks.Ranks()...)
	}
	sort.Ints(all)
	return all
}

// The TestFindTopK tests hold Algorithm 2 (the paper's FindTopK) as
// SelectLeads runs it over items of one Call-Path.

func TestFindTopKSmallInput(t *testing.T) {
	items := []Item{item(3, 1, 0, 0), item(1, 1, 0, 0)}
	res := SelectLeads(items, 5, KFarthest)
	if len(res.Top) != 2 {
		t.Fatalf("k >= n should keep all items: %d", len(res.Top))
	}
	if got := leads(res.Top); got[0] != 1 || got[1] != 3 {
		t.Fatalf("leads = %v", got)
	}
}

func TestFindTopKEmpty(t *testing.T) {
	if res := SelectLeads(nil, 3, KFarthest); len(res.Top) != 0 {
		t.Fatalf("empty input produced items")
	}
	// K grows to one lead per Call-Path: no MPI event is missed.
	if res := SelectLeads([]Item{item(0, 1, 0, 0), item(1, 1, 9, 0)}, 0, KFarthest); len(res.Top) != 1 || res.Top[0].Ranks.Size() != 2 {
		t.Fatalf("k=0 selected %v, want one lead covering both ranks", res.Top)
	}
}

func TestFindTopKSelectsExtremes(t *testing.T) {
	// Three well-separated signature groups; K-Farthest must pick one
	// representative from each.
	var items []Item
	for r := 0; r < 9; r++ {
		items = append(items, item(r, 1, uint64(r/3*1000), 0))
	}
	res := SelectLeads(items, 3, KFarthest)
	if len(res.Top) != 3 {
		t.Fatalf("top = %d", len(res.Top))
	}
	groups := map[uint64]bool{}
	for _, it := range res.Top {
		groups[it.Sig.Src/1000] = true
	}
	if len(groups) != 3 {
		t.Fatalf("K-Farthest missed a group: %v", leads(res.Top))
	}
	// Every input rank is covered by exactly the union of cluster lists.
	if got := coveredRanks(res.Top); len(got) != 9 {
		t.Fatalf("coverage = %v", got)
	}
}

func TestFindTopKAssignsToNearest(t *testing.T) {
	items := []Item{
		item(0, 1, 0, 0),
		item(1, 1, 10, 0),   // near rank 0
		item(5, 1, 1000, 0), // far group
		item(6, 1, 1010, 0), // near rank 5
	}
	res := SelectLeads(items, 2, KFarthest)
	if len(res.Top) != 2 {
		t.Fatalf("top = %d", len(res.Top))
	}
	// K-Farthest seeds with the lowest rank (0) and picks the farthest
	// item (rank 6); the remaining items must join their near group.
	for _, it := range res.Top {
		switch it.Lead {
		case 0:
			if !it.Ranks.Contains(1) || it.Ranks.Contains(5) {
				t.Fatalf("lead 0 cluster = %v", it.Ranks)
			}
		case 6:
			if !it.Ranks.Contains(5) || it.Ranks.Contains(1) {
				t.Fatalf("lead 6 cluster = %v", it.Ranks)
			}
		default:
			t.Fatalf("unexpected lead %d", it.Lead)
		}
	}
}

func TestVariantFlag(t *testing.T) {
	// Identical signatures merge without the variant flag...
	same := []Item{item(0, 1, 5, 5), item(1, 1, 5, 5), item(2, 1, 5, 5)}
	res := SelectLeads(same, 1, KFarthest)
	if res.Top[0].Variant {
		t.Fatalf("identical members flagged variant")
	}
	// ...while rank-dependent end-points set it (the master/worker case).
	diff := []Item{item(0, 1, 5, 5), item(1, 1, 7, 9), item(2, 1, 8, 11)}
	res = SelectLeads(diff, 1, KFarthest)
	if !res.Top[0].Variant {
		t.Fatalf("differing members not flagged variant")
	}
	// The flag propagates through further merging levels.
	carried := []Item{{Lead: 0, Ranks: ranklist.SingleRank(0), Sig: sig.Triple{CallPath: 1}, Variant: true},
		item(1, 1, 0, 0)}
	res = SelectLeads(carried, 1, KFarthest)
	if !res.Top[0].Variant {
		t.Fatalf("variant flag lost in merge")
	}
}

func TestAlgorithmsProduceK(t *testing.T) {
	var items []Item
	for r := 0; r < 20; r++ {
		items = append(items, item(r, 1, uint64(r*37), uint64(r*11)))
	}
	for _, algo := range []Algorithm{KFarthest, KMedoid, KRandom} {
		res := SelectLeads(items, 4, algo)
		if len(res.Top) != 4 {
			t.Fatalf("%v produced %d leads", algo, len(res.Top))
		}
		if got := coveredRanks(res.Top); len(got) != 20 {
			t.Fatalf("%v coverage = %d ranks", algo, len(got))
		}
	}
}

func TestAlgorithmsDeterministic(t *testing.T) {
	var items []Item
	for r := 0; r < 15; r++ {
		items = append(items, item(r, 1, uint64(r*r*13), 0))
	}
	for _, algo := range []Algorithm{KFarthest, KMedoid, KRandom} {
		a := leads(SelectLeads(items, 3, algo).Top)
		b := leads(SelectLeads(items, 3, algo).Top)
		if len(a) != len(b) {
			t.Fatalf("%v nondeterministic", algo)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v nondeterministic: %v vs %v", algo, a, b)
			}
		}
	}
}

func TestKMedoidRefines(t *testing.T) {
	// Two tight groups with an outlier seed: K-Medoid should still land
	// representatives inside each group.
	var items []Item
	for r := 0; r < 5; r++ {
		items = append(items, item(r, 1, uint64(100+r), 0))
	}
	for r := 5; r < 10; r++ {
		items = append(items, item(r, 1, uint64(9000+r), 0))
	}
	res := SelectLeads(items, 2, KMedoid)
	var lows, highs int
	for _, it := range res.Top {
		if it.Sig.Src < 5000 {
			lows++
		} else {
			highs++
		}
	}
	if lows != 1 || highs != 1 {
		t.Fatalf("medoid picks: %v", leads(res.Top))
	}
}

func TestSelectLeadsPerCallPathBudget(t *testing.T) {
	// Two Call-Paths, K=4: two representatives per path.
	var items []Item
	for r := 0; r < 8; r++ {
		items = append(items, item(r, uint64(r%2+1), uint64(r*500), 0))
	}
	res := SelectLeads(items, 4, KFarthest)
	if len(res.Top) != 4 {
		t.Fatalf("leads = %d", len(res.Top))
	}
	perPath := map[uint64]int{}
	for _, it := range res.Top {
		perPath[it.Sig.CallPath]++
	}
	if perPath[1] != 2 || perPath[2] != 2 {
		t.Fatalf("per-path split: %v", perPath)
	}
}

func TestSelectLeadsDynamicK(t *testing.T) {
	// More Call-Paths than K: every path still gets one representative
	// ("Chameleon does not miss any MPI event").
	var items []Item
	for r := 0; r < 12; r++ {
		items = append(items, item(r, uint64(r), 0, 0)) // 12 distinct paths
	}
	res := SelectLeads(items, 3, KFarthest)
	if len(res.Top) != 12 {
		t.Fatalf("dynamic K: %d leads, want 12", len(res.Top))
	}
}

func TestSelectLeadsEmpty(t *testing.T) {
	if res := SelectLeads(nil, 3, KFarthest); len(res.Top) != 0 {
		t.Fatalf("empty select")
	}
}

func TestParseAlgorithm(t *testing.T) {
	if ParseAlgorithm("k-medoid") != KMedoid || ParseAlgorithm("medoid") != KMedoid {
		t.Fatalf("medoid parse")
	}
	if ParseAlgorithm("random") != KRandom {
		t.Fatalf("random parse")
	}
	if ParseAlgorithm("") != KFarthest || ParseAlgorithm("nonsense") != KFarthest {
		t.Fatalf("default parse")
	}
	for _, a := range []Algorithm{KFarthest, KMedoid, KRandom} {
		if a.String() == "algo?" {
			t.Fatalf("missing name")
		}
	}
}

func TestDistributedSelect(t *testing.T) {
	const P = 13
	const K = 3
	results := make([][]Item, P)
	_, err := mpi.Run(mpi.Config{P: P}, func(p *mpi.Proc) {
		self := Item{
			Lead:  p.Rank(),
			Ranks: ranklist.SingleRank(p.Rank()),
			// Three behavior groups by rank range.
			Sig: sig.Triple{CallPath: 42, Src: uint64(p.Rank() / 5 * 10000), Dest: 0},
		}
		results[p.Rank()] = DistributedSelect(p, self, p.AliveRanks(), K, KFarthest, 1<<50, vtime.CatCluster)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every rank receives the same Top-K list.
	ref := leads(results[0])
	for r := 1; r < P; r++ {
		got := leads(results[r])
		if len(got) != len(ref) {
			t.Fatalf("rank %d list differs", r)
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("rank %d leads %v vs %v", r, got, ref)
			}
		}
	}
	if len(ref) != K {
		t.Fatalf("leads = %v", ref)
	}
	// The cluster rank lists partition all P ranks.
	got := coveredRanks(results[0])
	if len(got) != P {
		t.Fatalf("coverage = %v", got)
	}
	for i, r := range got {
		if r != i {
			t.Fatalf("rank %d missing or duplicated: %v", i, got)
		}
	}
}

// TestDistributedSelectMatchesSequentialTree: every member receives the
// Top-K list the pre-change clustering step builds when it walks the
// same radix tree in one goroutine. K=3 over three Call-Paths and a
// spread of end-points makes internal ranks select several times into
// the working set they own; the member list skips ranks, as after
// crashes.
func TestDistributedSelectMatchesSequentialTree(t *testing.T) {
	const P, K = 40, 3
	var members []int
	for r := 0; r < P; r++ {
		if r%7 != 3 {
			members = append(members, r)
		}
	}
	self := func(r int) Item {
		return Item{
			Lead:  r,
			Ranks: ranklist.SingleRank(r),
			Sig:   sig.Triple{CallPath: uint64(r % 3), Src: uint64(r * r % 11 * 100), Dest: uint64(r % 4)},
		}
	}
	// The tree walked sequentially: a position's working set is its own
	// item, then each child's list in mask order, capped at K. The
	// children of pos are pos|mask for each mask below its low bit.
	var walk func(pos int) []Item
	walk = func(pos int) []Item {
		items := []Item{self(members[pos])}
		for mask := 1; pos&mask == 0 && pos|mask < len(members); mask <<= 1 {
			items = append(items, walk(pos|mask)...)
			if len(items) > K {
				items = refSelectLeads(items, K, KFarthest).Top
			}
		}
		return items
	}
	want := refSelectLeads(walk(0), K, KFarthest)

	results := make([][]Item, P)
	_, err := mpi.Run(mpi.Config{P: P}, func(p *mpi.Proc) {
		if mpi.TreePos(members, p.Rank()) < 0 {
			return
		}
		results[p.Rank()] = DistributedSelect(p, self(p.Rank()), members, K, KFarthest, 1<<50, vtime.CatCluster)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range members {
		if !sameResult(Result{Top: results[r]}, Result{Top: want.Top}) {
			t.Fatalf("rank %d received %+v, sequential tree %+v", r, results[r], want.Top)
		}
	}
}

// selectHeapPerRank is the heap, in bytes and in objects, a P-rank
// world allocates per rank for one DistributedSelect, net of the same
// world running an empty body. Signatures split the ranks into three
// contiguous groups, so every cluster rank list stays one descriptor at
// any P.
func selectHeapPerRank(t *testing.T, P int) (bytes, objects float64) {
	t.Helper()
	run := func(sel bool) (uint64, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := mpi.Run(mpi.Config{P: P}, func(p *mpi.Proc) {
			if !sel {
				return
			}
			self := Item{
				Lead:  p.Rank(),
				Ranks: ranklist.SingleRank(p.Rank()),
				Sig:   sig.Triple{CallPath: 42, Src: uint64(p.Rank() * 3 / P * 10000)},
			}
			DistributedSelect(p, self, p.AliveRanks(), 3, KFarthest, 1<<50, vtime.CatCluster)
		})
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	// Mailbox growth varies with the schedule: take each side's least.
	least := func(sel bool) (float64, float64) {
		b, m := run(sel)
		for i := 0; i < 4; i++ {
			b2, m2 := run(sel)
			b, m = min(b, b2), min(m, m2)
		}
		return float64(b), float64(m)
	}
	selB, selM := least(true)
	idleB, idleM := least(false)
	return (selB - idleB) / float64(P), (selM - idleM) / float64(P)
}

// TestDistributedSelectBytesPerRankFlatInP: a rank's share of one
// clustering step is its items and K, not the world's size. A table of
// P world ranks per rank, as the identity tree once built, costs 6 KB a
// rank more at P=1024 than at P=256.
func TestDistributedSelectBytesPerRankFlatInP(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 2048-rank worlds")
	}
	small, _ := selectHeapPerRank(t, 256)
	large, _ := selectHeapPerRank(t, 1024)
	t.Logf("bytes per rank: P=256 %.0f, P=1024 %.0f", small, large)
	if large > small+1024 {
		t.Errorf("per-rank bytes grow with P: %.0f at P=256, %.0f at P=1024 (bound +1024)", small, large)
	}
}

// TestDistributedSelectObjectsPerRank: a rank allocates what it keeps
// or sends. At P=256 and K=3 half the ranks are leaves, which send their
// own item; an internal rank allocates its working set once, then a
// result and the merged clusters' unions per selection; and every rank
// boxes what it sends and receives the Top-K broadcast. That is 6.5
// objects a rank. A copy of the working set per selection, a working set
// regrown after each, or a child-position slice per internal rank each
// lift it past 7; the map partition, per-partition copies, reflect sorts
// and selector scratch of the earlier clustering step cost over 18.
func TestDistributedSelectObjectsPerRank(t *testing.T) {
	_, objects := selectHeapPerRank(t, 256)
	t.Logf("objects per rank at P=256: %.2f", objects)
	if objects > 7 {
		t.Errorf("DistributedSelect allocates %.2f objects a rank at P=256 (bound 7)", objects)
	}
}

func TestItemsBytes(t *testing.T) {
	if ItemsBytes(nil) != 0 {
		t.Fatalf("empty bytes")
	}
	if ItemsBytes([]Item{item(0, 1, 0, 0)}) <= 0 {
		t.Fatalf("bytes not positive")
	}
}
