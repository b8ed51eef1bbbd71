package ranklist

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestSingle(t *testing.T) {
	r := Single(7)
	if r.Size() != 1 || !r.Contains(7) || r.Contains(6) {
		t.Fatalf("Single(7) misbehaves: %v", r)
	}
	if got := r.Ranks(); len(got) != 1 || got[0] != 7 {
		t.Fatalf("Ranks = %v", got)
	}
}

func TestRange(t *testing.T) {
	r := Range(2, 4, 3) // 2, 5, 8, 11
	want := []int{2, 5, 8, 11}
	if !reflect.DeepEqual(r.Ranks(), want) {
		t.Fatalf("Ranks = %v, want %v", r.Ranks(), want)
	}
	for _, w := range want {
		if !r.Contains(w) {
			t.Fatalf("missing %d", w)
		}
	}
	for _, n := range []int{0, 3, 6, 12} {
		if r.Contains(n) {
			t.Fatalf("spurious %d", n)
		}
	}
	if Range(5, 1, 3).Size() != 1 {
		t.Fatalf("degenerate range not singleton")
	}
}

func Test2D(t *testing.T) {
	// A 3x2 sub-grid of a 4-wide mesh: start 1, inner iters 2 stride 1,
	// outer iters 3 stride 4.
	r := New(1, Dim{Iters: 2, Stride: 1}, Dim{Iters: 3, Stride: 4})
	want := []int{1, 2, 5, 6, 9, 10}
	if !reflect.DeepEqual(r.Ranks(), want) {
		t.Fatalf("Ranks = %v, want %v", r.Ranks(), want)
	}
	if r.Size() != 6 {
		t.Fatalf("Size = %d", r.Size())
	}
	for _, w := range want {
		if !r.Contains(w) {
			t.Fatalf("missing %d", w)
		}
	}
	if r.Contains(3) || r.Contains(4) || r.Contains(13) {
		t.Fatalf("spurious membership")
	}
}

func TestFromRanksCompactsStride(t *testing.T) {
	l := FromRanks([]int{0, 1, 2, 3, 4, 5, 6, 7})
	if len(l.Descriptors()) != 1 {
		t.Fatalf("contiguous run not compacted: %v", l)
	}
	l = FromRanks([]int{0, 4, 8, 12})
	if len(l.Descriptors()) != 1 {
		t.Fatalf("strided run not compacted: %v", l)
	}
}

func TestFromRanksCompacts2D(t *testing.T) {
	// Interior of a 4x4 grid at 8 columns: rows {1,2} cols {1,2}.
	ranks := []int{9, 10, 17, 18}
	l := FromRanks(ranks)
	if len(l.Descriptors()) != 1 {
		t.Fatalf("2D block not stacked: %v", l)
	}
	if !reflect.DeepEqual(l.Ranks(), ranks) {
		t.Fatalf("Ranks = %v", l.Ranks())
	}
}

func TestFromRanksRoundTrip(t *testing.T) {
	f := func(xs []uint8) bool {
		in := make([]int, len(xs))
		for i, x := range xs {
			in[i] = int(x)
		}
		want := append([]int(nil), in...)
		sort.Ints(want)
		want = dedup(want)
		got := FromRanks(in).Ranks()
		if len(want) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestContainsMatchesRanks(t *testing.T) {
	f := func(xs []uint8, probe uint8) bool {
		in := make([]int, len(xs))
		member := false
		for i, x := range xs {
			in[i] = int(x)
			if x == probe {
				member = true
			}
		}
		return FromRanks(in).Contains(int(probe)) == member
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUnion(t *testing.T) {
	a := FromRanks([]int{0, 1, 2})
	b := FromRanks([]int{2, 3, 4})
	u := a.Union(b)
	if !reflect.DeepEqual(u.Ranks(), []int{0, 1, 2, 3, 4}) {
		t.Fatalf("union = %v", u.Ranks())
	}
	if !a.Union(List{}).Equal(a) || !(List{}).Union(a).Equal(a) {
		t.Fatalf("union with empty broken")
	}
}

func TestEqual(t *testing.T) {
	a := FromRanks([]int{5, 1, 3})
	b := FromRanks([]int{1, 3, 5})
	if !a.Equal(b) {
		t.Fatalf("order should not matter")
	}
	c := FromRanks([]int{1, 3})
	if a.Equal(c) {
		t.Fatalf("different sets equal")
	}
}

func TestMin(t *testing.T) {
	if (List{}).Min() != -1 {
		t.Fatalf("empty min")
	}
	if FromRanks([]int{9, 4, 7}).Min() != 4 {
		t.Fatalf("min wrong")
	}
}

func TestEmptyAndSize(t *testing.T) {
	var l List
	if !l.Empty() || l.Size() != 0 || l.Contains(0) {
		t.Fatalf("zero List misbehaves")
	}
	if SingleRank(3).Size() != 1 {
		t.Fatalf("SingleRank size")
	}
}

func TestString(t *testing.T) {
	if got := (List{}).String(); got != "<>" {
		t.Fatalf("empty string: %q", got)
	}
	if got := Single(4).String(); got != "<0,4>" {
		t.Fatalf("singleton string: %q", got)
	}
	l := FromRanks([]int{0, 1, 2, 3})
	if got := l.String(); got != "<1,0,4,1>" {
		t.Fatalf("range string: %q", got)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	f := func(xs []uint8) bool {
		in := make([]int, len(xs))
		for i, x := range xs {
			in[i] = int(x)
		}
		l := FromRanks(in)
		data, err := json.Marshal(l)
		if err != nil {
			return false
		}
		var back List
		if err := json.Unmarshal(data, &back); err != nil {
			return false
		}
		return back.Equal(l)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSizeBytesPositive(t *testing.T) {
	if FromRanks([]int{1, 2, 3}).SizeBytes() <= 0 {
		t.Fatalf("SizeBytes not positive")
	}
}

// TestForEachMatchesRanks proves the allocation-free iterator covers
// exactly the set Ranks() expands, for arbitrary normalized lists.
func TestForEachMatchesRanks(t *testing.T) {
	f := func(xs []uint8) bool {
		in := make([]int, len(xs))
		for i, x := range xs {
			in[i] = int(x)
		}
		l := FromRanks(in)
		var got []int
		l.ForEach(func(r int) { got = append(got, r) })
		sort.Ints(got)
		return reflect.DeepEqual(got, l.Ranks()) &&
			(len(got) == l.Size() || len(in) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestForEach2D(t *testing.T) {
	r := New(1, Dim{Iters: 2, Stride: 1}, Dim{Iters: 3, Stride: 4})
	var got []int
	r.ForEach(func(rank int) { got = append(got, rank) })
	sort.Ints(got)
	if !reflect.DeepEqual(got, []int{1, 2, 5, 6, 9, 10}) {
		t.Fatalf("ForEach = %v", got)
	}
}

// randList draws a hand-built list: 1-3 descriptors of 0-3 dimensions
// with negative, zero and positive strides, placed close enough that the
// descriptors of one list (and of two lists) overlap.
func randList(rng *rand.Rand) List {
	var l List
	for n := 1 + rng.Intn(3); n > 0; n-- {
		r := RL{Start: rng.Intn(24)}
		for d := rng.Intn(4); d > 0; d-- {
			r.Dims = append(r.Dims, Dim{Iters: 1 + rng.Intn(4), Stride: rng.Intn(9) - 4})
		}
		l.rls = append(l.rls, r)
	}
	return l
}

// normal wraps descriptors in normal form, as Normalize keeps them,
// failing t if they are not in it.
func normal(t testing.TB, rls ...RL) List {
	t.Helper()
	l, ok := Normalize(rls, nil)
	if !ok {
		t.Fatalf("%v is not in normal form", rls)
	}
	return l
}

// normalized brings a hand-built list to normal form through Normalize,
// with the budget its expansion needs.
func normalized(t testing.TB, l List) List {
	t.Helper()
	budget := l.Size()
	n, ok := Normalize(l.rls, &budget)
	if !ok {
		t.Fatalf("Normalize(%v) refused its own size", l)
	}
	return n
}

// TestEqualMinUnionMatchExpansion holds the descriptor-level shortcuts of
// Equal, Min and Union to the expansion oracle (Ranks), over the normal
// forms of hand-built lists.
func TestEqualMinUnionMatchExpansion(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 5000; i++ {
		a, b := normalized(t, randList(rng)), normalized(t, randList(rng))
		switch i % 3 {
		case 1: // b is a's set, compacted again
			b = FromRanks(a.Ranks())
		case 2: // b is a verbatim (shared descriptors)
			b = a
		}
		ra, rb := a.Ranks(), b.Ranks()
		if got, want := a.Equal(b), reflect.DeepEqual(ra, rb); got != want {
			t.Fatalf("%v.Equal(%v) = %v, expansions %v / %v", a, b, got, ra, rb)
		}
		if a.Equal(b) != b.Equal(a) {
			t.Fatalf("Equal not symmetric on %v, %v", a, b)
		}
		if got := a.Min(); got != ra[0] {
			t.Fatalf("%v.Min() = %d, expansion %v", a, got, ra)
		}
		want := FromRanks(append(append([]int(nil), ra...), rb...)).Ranks()
		if got := a.Union(b).Ranks(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v.Union(%v) covers %v, want %v", a, b, got, want)
		}
	}
}

// Normalize keeps a list in normal form as written and costs it
// nothing; it compacts any other within its budget, and refuses it,
// taking nothing, past the budget or with none.
func TestNormalizeBudget(t *testing.T) {
	rls := []RL{Range(0, 4, 1)}
	budget := 0
	if l, ok := Normalize(rls, &budget); !ok || &l.Descriptors()[0] != &rls[0] {
		t.Fatalf("Normalize(%v) = %v, %v: want the descriptors as written", rls, l, ok)
	}
	split := []RL{Range(0, 2, 1), Range(2, 2, 1)}
	if _, ok := Normalize(split, nil); ok {
		t.Fatalf("Normalize(%v, nil) compacted with no budget", split)
	}
	budget = 3
	if _, ok := Normalize(split, &budget); ok || budget != 3 {
		t.Fatalf("Normalize(%v) of 4 ranks within a budget of 3: ok=%v, budget left %d", split, ok, budget)
	}
	budget = 10
	if l, ok := Normalize(split, &budget); !ok || budget != 6 || !l.Equal(FromRanks([]int{0, 1, 2, 3})) {
		t.Fatalf("Normalize(%v) = %v, %v, budget left %d", split, l, ok, budget)
	}
	if l, ok := Normalize(nil, nil); !ok || !l.Empty() {
		t.Fatalf("Normalize(nil) = %v, %v", l, ok)
	}
}

// TestContainsMatchesExpansion holds Contains, which solves a
// descriptor's longest dimension arithmetically, to expansion over
// hand-built descriptors with negative, zero and positive strides, and
// over descriptors that cover no rank.
func TestContainsMatchesExpansion(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for i := 0; i < 5000; i++ {
		l := randList(rng)
		if i%10 == 0 {
			r := &l.rls[rng.Intn(len(l.rls))]
			r.Dims = append(r.Dims, Dim{Iters: 0, Stride: rng.Intn(3) - 1})
		}
		member := map[int]bool{}
		for _, r := range l.rls {
			r.ForEach(func(rank int) { member[rank] = true })
		}
		for probe := -40; probe < 64; probe++ {
			if got := l.Contains(probe); got != member[probe] {
				t.Fatalf("%v.Contains(%d) = %v, expansion says %v", l, probe, got, member[probe])
			}
		}
	}
	// A miss on a run of 2^40 ranks, or on a 2^20 x 2 block, is
	// answered without stepping through the run.
	wide := normal(t, New(3, Dim{Iters: 1 << 40, Stride: 2}))
	block := normal(t, New(0, Dim{Iters: 1 << 20, Stride: 1}, Dim{Iters: 2, Stride: 1 << 21}))
	if wide.Contains(4) || !wide.Contains(3+2*(1<<39)) || wide.Contains(3+2*(1<<40)) ||
		block.Contains(1<<20) || !block.Contains(1<<21+5) {
		t.Fatal("wide descriptors answer membership wrongly")
	}
}

// TestUnionAllocatesOnlyResult: uniting two multi-descriptor lists (two
// sub-grids of an 8-wide mesh, a strided run, a stray rank) allocates
// the result's descriptors and its one Dim slab, nothing else. So does
// uniting two adjacent 128-rank runs, the radix merge's common case:
// 256 ranks fold into one run, which the compactor keeps on the stack.
func TestUnionAllocatesOnlyResult(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what a call allocates")
	}
	lo, hi := make([]int, 128), make([]int, 128)
	for i := range lo {
		lo[i], hi[i] = i, 128+i
	}
	for _, c := range []struct{ a, b List }{
		{FromRanks([]int{9, 10, 17, 18, 25, 26, 40, 44, 48, 63}), FromRanks([]int{1, 2, 3, 11, 12, 13, 21, 22, 23, 50})},
		{FromRanks(lo), FromRanks(hi)},
	} {
		a, b := c.a, c.b
		want := FromRanks(append(a.Ranks(), b.Ranks()...))
		var u List
		if n := testing.AllocsPerRun(100, func() { u = a.Union(b) }); n > 2 {
			t.Errorf("Union of %v and %v: %v allocs, want <= 2", a, b, n)
		}
		if !u.Equal(want) {
			t.Fatalf("Union = %v, want %v", u, want)
		}
	}
}

// TestEqualSingletonsDoNotAllocate: the compressor compares the singleton
// rank lists of two leaves on every fold probe.
func TestEqualSingletonsDoNotAllocate(t *testing.T) {
	a, b, c := SingleRank(5), SingleRank(5), SingleRank(6)
	grid := FromRanks([]int{1, 2, 5, 6, 9, 10})
	if n := testing.AllocsPerRun(100, func() {
		if !a.Equal(b) || !grid.Equal(grid) || grid.Min() != 1 || !a.Union(b).Equal(a) {
			t.Fatal("wrong answer")
		}
	}); n != 0 {
		t.Errorf("Equal/Min/Union on identical lists: %v allocs, want 0", n)
	}
	if a.Equal(c) {
		t.Error("SingleRank(5) equals SingleRank(6)")
	}
}
