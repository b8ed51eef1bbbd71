package ranklist

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"
)

// classInput reads a fuzz input as a rank count p in 1..64 and up to
// six lists, each built by FromRanks from a set drawn byte by byte: a
// strided run, two interleaved runs, a block of a grid (rows of
// strided ranks repeating at a wider stride), or a random subset, with
// ranks from -4 to p+8 so that lists cross both ends of [0, p).
func classInput(data []byte) (int, []List) {
	next := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		v := int(data[0]) % n
		data = data[1:]
		return v
	}
	p := 1 + next(64)
	var lists []List
	for k := next(7); k > 0; k-- {
		var ranks []int
		switch next(4) {
		case 0:
			start, stride, n := next(p+12)-4, 1+next(9), 1+next(p+8)
			for i := 0; i < n; i++ {
				ranks = append(ranks, start+i*stride)
			}
		case 1:
			for j := 0; j < 2; j++ {
				start, stride, n := next(p+12)-4, 1+next(7), 1+next(12)
				for i := 0; i < n; i++ {
					ranks = append(ranks, start+i*stride)
				}
			}
		case 2:
			start, w, d, k := next(p+12)-4, 1+next(5), 1+next(3), 1+next(p/2+4)
			s := (w-1)*d + 1 + next(9)
			for i := 0; i < k; i++ {
				for j := 0; j < w; j++ {
					ranks = append(ranks, start+i*s+j*d)
				}
			}
		default:
			for r := -4; r < p+8; r++ {
				if next(3) == 0 {
					ranks = append(ranks, r)
				}
			}
		}
		lists = append(lists, FromRanks(ranks))
	}
	return p, lists
}

// checkClasses fails t unless Classes(lists, p) is the partition of
// [0, p) by which lists cover a rank, checked by expanding every list
// and every class: each rank lands in exactly one class, the ranks of
// a class share the set of lists that cover them, and no two classes
// share that set.
func checkClasses(t *testing.T, p int, lists []List) {
	t.Helper()
	member := make([][]int, p) // rank -> the lists covering it
	for i, l := range lists {
		for _, r := range l.Ranks() {
			if r >= 0 && r < p && !slices.Contains(member[r], i) {
				member[r] = append(member[r], i)
			}
		}
	}
	classes := Classes(lists, p)
	owner := make([]int, p)
	for r := range owner {
		owner[r] = -1
	}
	seen := map[string]bool{}
	first := -1
	for c, cl := range classes {
		ranks := cl.Ranks.appendRanks(nil)
		if len(ranks) != cl.Size || cl.Ranks.Size() != cl.Size {
			t.Fatalf("class %d %v: Size %d, descriptors hold %d ranks, list size %d", c, cl.Ranks, cl.Size, len(ranks), cl.Ranks.Size())
		}
		if len(ranks) == 0 {
			t.Fatalf("class %d is empty", c)
		}
		if m := slices.Min(ranks); m <= first {
			t.Fatalf("class %d starts at %d, not after class %d's first rank %d", c, m, c-1, first)
		} else {
			first = m
		}
		key := string(intsKey(cl.Of))
		if seen[key] {
			t.Fatalf("two classes are covered by lists %v", cl.Of)
		}
		seen[key] = true
		for _, r := range ranks {
			if r < 0 || r >= p {
				t.Fatalf("class %d holds rank %d outside [0, %d)", c, r, p)
			}
			if owner[r] >= 0 {
				t.Fatalf("rank %d is in classes %d and %d", r, owner[r], c)
			}
			owner[r] = c
			if !slices.Equal(member[r], cl.Of) && !(len(member[r]) == 0 && len(cl.Of) == 0) {
				t.Fatalf("rank %d is covered by lists %v, its class %d by %v", r, member[r], c, cl.Of)
			}
		}
	}
	for r, c := range owner {
		if c < 0 {
			t.Fatalf("rank %d is in no class (p=%d, lists %v)", r, p, lists)
		}
	}
}

func intsKey(xs []int) []byte {
	var b []byte
	for _, x := range xs {
		b = append(b, byte(x), byte(x>>8))
	}
	return b
}

// FuzzRankClasses holds the class cutter to expansion over lists
// FromRanks builds: strided, interleaved and random sets crossing both
// ends of [0, p).
func FuzzRankClasses(f *testing.F) {
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 64; i++ {
		seed := make([]byte, 8+rng.Intn(120))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, lists := classInput(data)
		checkClasses(t, p, lists)
	})
}

// Hand-built lists with overlapping descriptors and negative or zero
// strides, brought to normal form by Normalize as a decoder brings them,
// cut as their expansion does.
func TestClassesOfHandBuiltLists(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		lists := make([]List, rng.Intn(4))
		for k := range lists {
			lists[k] = normalized(t, randList(rng))
		}
		checkClasses(t, 1+rng.Intn(40), lists)
	}
}

func TestClassesShapes(t *testing.T) {
	all := normal(t, Range(0, 64, 1))
	col := normal(t, Range(3, 8, 8))                                             // a column of an 8x8 grid
	sub := normal(t, New(9, Dim{Iters: 6, Stride: 1}, Dim{Iters: 6, Stride: 8})) // its interior
	cases := []struct {
		name  string
		p     int
		lists []List
		want  []Class
	}{
		{"empty trace", 4, nil, []Class{{Ranks: normal(t, Range(0, 4, 1)), Size: 4, Of: nil}}},
		{"one list covers all", 64, []List{all, all}, []Class{{Ranks: all, Size: 64, Of: []int{0, 1}}}},
		{"a column", 64, []List{col}, []Class{
			{Ranks: normal(t, Range(0, 3, 1), New(4, Dim{Iters: 7, Stride: 1}, Dim{Iters: 7, Stride: 8}), Range(60, 4, 1)), Size: 56},
			{Ranks: col, Size: 8, Of: []int{0}},
		}},
		{"a list past p", 4, []List{normal(t, Range(2, 10, 1))}, []Class{
			{Ranks: normal(t, Range(0, 2, 1)), Size: 2},
			{Ranks: normal(t, Range(2, 2, 1)), Size: 2, Of: []int{0}},
		}},
	}
	for _, c := range cases {
		got := Classes(c.lists, c.p)
		for i := range got {
			if len(got[i].Of) == 0 {
				got[i].Of = nil
			}
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: Classes = %+v, want %+v", c.name, got, c.want)
		}
	}
	// The interior of a grid stacks back into its own 2D descriptor.
	got := Classes([]List{sub}, 64)
	if len(got) != 2 || !got[1].Ranks.Equal(sub) || got[1].Size != 36 {
		t.Errorf("grid interior: %+v, want a class holding %v", got, sub)
	}
}

// Classes never expands a list: 64 lists of 2^20 ranks each, in a world
// of 2^20, cut into 64 classes in a few hundred steps.
func TestClassesOfWideLists(t *testing.T) {
	const p = 1 << 20
	lists := make([]List, 64)
	for i := range lists {
		lists[i] = normal(t, Range(i, p, 1))
	}
	start := time.Now()
	var classes []Class
	allocs := testing.AllocsPerRun(5, func() { classes = Classes(lists, p) })
	if len(classes) != 64 || classes[63].Size != p-63 || classes[0].Size != 1 {
		t.Fatalf("%d classes, last of %d ranks", len(classes), classes[len(classes)-1].Size)
	}
	if took := time.Since(start); allocs > 500 || took > time.Second {
		t.Fatalf("Classes of 64 wide lists: %v allocations, %v", allocs, took)
	}
}

// A 2D list costs the cutter its descriptors, not its rows: 64 lists of
// two ranks in every three, {2,1}x{2^19,3} from distinct starts, in a
// world of 2^20, cut in a few hundred steps.
func TestClassesOfWide2DLists(t *testing.T) {
	const p = 1 << 20
	lists := make([]List, 64)
	for i := range lists {
		lists[i] = normal(t, New(i, Dim{Iters: 2, Stride: 1}, Dim{Iters: 1 << 19, Stride: 3}))
	}
	start := time.Now()
	var classes []Class
	allocs := testing.AllocsPerRun(5, func() { classes = Classes(lists, p) })
	size := 0
	for _, cl := range classes {
		size += cl.Size
	}
	if size != p {
		t.Fatalf("%d classes of %d ranks in all, want %d", len(classes), size, p)
	}
	if took := time.Since(start); allocs > 2000 || took > time.Second {
		t.Fatalf("Classes of 64 wide 2D lists: %d classes, %v allocations, %v", len(classes), allocs, took)
	}
	for i, l := range lists[:4] {
		if got, want := l.SizeIn(p), 2*((p-i)/3)+min((p-i)%3, 2); got != want {
			t.Fatalf("%v.SizeIn(%d) = %d, want %d", l, p, got, want)
		}
		if s := l.Shift(p/2+1, p); len(s.Descriptors()) > 6 {
			t.Fatalf("%v.Shift = %v: a descriptor per row", l, s)
		}
	}
}

// Strided lists of coprime strides repeat only every 30030 ranks: the
// cutter walks their residues a bounded window at a time, and the
// classes still match the expansion.
func TestClassesOfCoprimeStrides(t *testing.T) {
	const p = 40000
	var lists []List
	for i, s := range []int{2, 3, 5, 7, 11, 13} {
		lists = append(lists, normal(t, Range(i, (p-i)/s, s)))
	}
	lists = append(lists, normal(t, New(5, Dim{Iters: 3, Stride: 2}, Dim{Iters: p / 17, Stride: 17})))
	checkClasses(t, p, lists)
}

// The cut's scratch does not grow with the ranks: 64 lists of every
// other rank, overlapping lists of the primes 3 to 19 (whose strides
// repeat only past P, so every residue is its own), in a world of
// 2^15. Their rows hit a million residues; the cut holds a window of
// them at a time, and allocates about what the classes' descriptors
// take.
func TestClassesScratchStaysBounded(t *testing.T) {
	const p = 1 << 15
	var lists []List
	for i := 0; i < 64; i++ {
		lists = append(lists, normal(t, Range(i, (p-i+1)/2, 2)))
	}
	for _, s := range []int{3, 5, 7, 11, 13, 17, 19} {
		lists = append(lists, normal(t, Range(0, (p+s-1)/s, s)))
	}
	var classes []Class
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	classes = Classes(lists, p)
	runtime.ReadMemStats(&m1)
	size := 0
	for _, cl := range classes {
		size += cl.Size
	}
	if size != p {
		t.Fatalf("%d classes of %d ranks in all, want %d", len(classes), size, p)
	}
	alloc := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("%d classes, %d B allocated", len(classes), alloc)
	if alloc > 16<<20 {
		t.Fatalf("Classes allocated %d B for %d classes", alloc, len(classes))
	}
	checkClasses(t, p, lists)
}

func TestSizeInAndShiftMatchExpansion(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 3000; i++ {
		p := 1 + rng.Intn(40)
		var ranks []int
		for r := -5; r < p+10; r++ {
			if rng.Intn(3) == 0 {
				ranks = append(ranks, r)
			}
		}
		switch rng.Intn(3) {
		case 0: // a strided run
			ranks = ranks[:0]
			start, stride := rng.Intn(p+10)-5, 1+rng.Intn(6)
			for n := 1 + rng.Intn(p+4); n > 0; n-- {
				ranks = append(ranks, start)
				start += stride
			}
		case 1: // a block of a grid
			ranks = ranks[:0]
			start, w, d := rng.Intn(p+10)-5, 1+rng.Intn(4), 1+rng.Intn(3)
			s := (w-1)*d + 2 + rng.Intn(5)
			for k := 1 + rng.Intn(p/2+3); k > 0; k-- {
				for j := 0; j < w; j++ {
					ranks = append(ranks, start+j*d)
				}
				start += s
			}
		}
		l := FromRanks(ranks)
		var in []int
		for _, r := range l.Ranks() {
			if r >= 0 && r < p {
				in = append(in, r)
			}
		}
		if got := l.SizeIn(p); got != len(in) {
			t.Fatalf("%v.SizeIn(%d) = %d, want %d", l, p, got, len(in))
		}
		// A list inside [0, p) that does not move keeps its descriptors:
		// rows joined and stacked again in rank order are FromRanks' own.
		if len(in) == l.Size() && !l.Shift(0, p).Equal(l) {
			t.Fatalf("%v.Shift(0, %d) = %v, want the list itself", l, p, l.Shift(0, p))
		}
		off := rng.Intn(4*p) - 2*p
		want := make([]int, len(in))
		for k, r := range in {
			want[k] = ((r+off)%p + p) % p
		}
		slices.Sort(want)
		s := l.Shift(off, p)
		got := s.appendRanks(nil)
		slices.Sort(got)
		if !slices.Equal(got, want) && len(got)+len(want) > 0 {
			t.Fatalf("%v.Shift(%d, %d) = %v: ranks %v, want %v", l, off, p, s, got, want)
		}
	}
}
