package cluster

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"chameleon/internal/ranklist"
	"chameleon/internal/sig"
)

var algos = [...]Algorithm{KFarthest, KMedoid, KRandom}

// genItems decodes a working set from fuzz bytes: n items over up to
// paths Call-Paths, with unique leads as in production. Small SRC/DEST
// alphabets make distance ties common, so the selectors' tie-breaks are
// exercised; a lead stands for itself plus up to three ranks above it,
// so clusters cover disjoint, differently shaped rank sets.
func genItems(data []byte, n, paths int) []Item {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	cps := make([]uint64, paths)
	for i := range cps {
		cps[i] = uint64(next())<<56 | uint64(next())
	}
	leads := make([]int, 64)
	for i := range leads {
		leads[i] = i
	}
	for i := len(leads) - 1; i > 0; i-- {
		j := int(next()) % (i + 1)
		leads[i], leads[j] = leads[j], leads[i]
	}
	items := make([]Item, n)
	for i := range items {
		lead := 4 * leads[i]
		b := next()
		ranks := []int{lead}
		for bit := 0; bit < 3; bit++ {
			if b&(1<<bit) != 0 {
				ranks = append(ranks, lead+1+bit)
			}
		}
		items[i] = Item{
			Lead:    lead,
			Ranks:   ranklist.FromRanks(ranks),
			Sig:     sig.Triple{CallPath: cps[int(next())%paths], Src: uint64(next() % 5 * 37), Dest: uint64(next() % 3)},
			Variant: b&8 != 0,
		}
	}
	return items
}

// cloneItems deep-copies a working set, rank-list descriptors included.
func cloneItems(items []Item) []Item {
	out := slices.Clone(items)
	for i := range out {
		var rs []int
		out[i].Ranks.ForEach(func(r int) { rs = append(rs, r) })
		out[i].Ranks = ranklist.FromRanks(rs)
	}
	return out
}

// sameResult reports whether two results agree exactly: the same leads
// in the same order, the same rank-list descriptors, signatures and
// variant flags, and the same distance work.
func sameResult(got, want Result) bool {
	if got.Distances != want.Distances || len(got.Top) != len(want.Top) {
		return false
	}
	for i, g := range got.Top {
		w := want.Top[i]
		if g.Lead != w.Lead || g.Sig != w.Sig || g.Variant != w.Variant ||
			!reflect.DeepEqual(g.Ranks.Descriptors(), w.Ranks.Descriptors()) {
			return false
		}
	}
	return true
}

// checkSelect runs SelectLeads against the pre-change implementation
// for every algorithm, and checks it does not write its input.
func checkSelect(t *testing.T, items []Item, k int) {
	t.Helper()
	orig := cloneItems(items)
	for _, algo := range algos {
		if got, want := SelectLeads(items, k, algo), refSelectLeads(orig, k, algo); !sameResult(got, want) {
			t.Fatalf("SelectLeads(%d items, k=%d, %v) = %+v, reference %+v", len(items), k, algo, got, want)
		}
		if !reflect.DeepEqual(items, orig) {
			t.Fatalf("%v selection wrote its input", algo)
		}
	}
}

func FuzzSelectMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(33))
	for i := 0; i < 64; i++ {
		data := make([]byte, 200)
		rng.Read(data)
		f.Add(data, uint8(rng.Intn(40)), uint8(rng.Intn(6)), uint8(rng.Intn(12)))
	}
	f.Fuzz(func(t *testing.T, data []byte, n, paths, k uint8) {
		items := genItems(data, 1+int(n)%40, 1+int(paths)%6)
		checkSelect(t, items, 1+int(k)%12)
	})
}

// TestSelectMatchesReferenceSeeds runs the oracle over a fixed spread of
// working sets, so the plain test run checks what the fuzzer does.
func TestSelectMatchesReferenceSeeds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 200)
	for i := 0; i < 1000; i++ {
		rng.Read(data)
		checkSelect(t, genItems(data, 1+rng.Intn(40), 1+rng.Intn(6)), 1+rng.Intn(12))
	}
}

// TestLargeSelectMatchesReference takes the selectors past their stack
// scratch: one Call-Path with more items and representatives than it
// holds, alone and beside a second path.
func TestLargeSelectMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 6; i++ {
		n := stackItems + 1 + rng.Intn(16)
		items := make([]Item, n)
		for j, lead := range rng.Perm(n) {
			items[j] = Item{
				Lead:  lead,
				Ranks: ranklist.SingleRank(lead),
				Sig:   sig.Triple{Src: uint64(rng.Intn(50)), Dest: uint64(rng.Intn(7))},
			}
		}
		k := stackChosen + 1 + rng.Intn(8)
		if i%2 == 1 {
			items[0].Sig.CallPath = 1
			k *= 2
		}
		checkSelect(t, items, k)
	}
}

// TestSelectAllocatesResultAndUnions: an internal node's selection over
// 2K+1 single-rank items of one Call-Path allocates the copy SelectLeads
// takes of its input, one result, and per merged item the union's
// descriptors and dims slab — nothing per partition or per candidate.
func TestSelectAllocatesResultAndUnions(t *testing.T) {
	const k = 9
	items := make([]Item, 2*k+1)
	for i := range items {
		items[i] = item(i, 42, uint64(i*i*37), uint64(i%3))
	}
	for _, algo := range algos {
		budget := 2 + 2*float64(len(items)-k)
		got := testing.AllocsPerRun(20, func() { SelectLeads(items, k, algo) })
		t.Logf("%v: %.0f objects, budget %.0f", algo, got, budget)
		if got > budget {
			t.Errorf("%v: SelectLeads over %d items allocates %.0f objects, want at most %.0f", algo, len(items), got, budget)
		}
	}
}
