package ranklist

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// The compactor as it was before FromRanks and Union shared fromSorted,
// kept verbatim (ref-prefixed) as the oracle the rewrite must match
// descriptor for descriptor. refRanks and refListRanks are the
// expansions the old Union went through.

func refRanks(r RL) []int {
	out := []int{r.Start}
	for _, d := range r.Dims {
		next := make([]int, 0, len(out)*d.Iters)
		for _, base := range out {
			for i := 0; i < d.Iters; i++ {
				next = append(next, base+i*d.Stride)
			}
		}
		out = next
	}
	sort.Ints(out)
	return out
}

func refListRanks(l List) []int {
	var out []int
	for _, r := range l.rls {
		out = append(out, refRanks(r)...)
	}
	sort.Ints(out)
	return dedup(out)
}

func refFromRanks(ranks []int) List {
	if len(ranks) == 0 {
		return List{}
	}
	rs := append([]int(nil), ranks...)
	sort.Ints(rs)
	rs = dedup(rs)

	// Pass 1: fold into maximal 1D strided runs.
	var runs []RL
	i := 0
	for i < len(rs) {
		j := i + 1
		if j >= len(rs) {
			runs = append(runs, Single(rs[i]))
			break
		}
		stride := rs[j] - rs[i]
		for j+1 < len(rs) && rs[j+1]-rs[j] == stride {
			j++
		}
		n := j - i + 1
		if n >= 2 {
			runs = append(runs, Range(rs[i], n, stride))
			i = j + 1
		} else {
			runs = append(runs, Single(rs[i]))
			i++
		}
	}

	// Pass 2: stack identical consecutive runs recurring at a constant
	// outer stride into a 2D descriptor.
	var out []RL
	i = 0
	for i < len(runs) {
		j := i + 1
		base := runs[i]
		if len(base.Dims) == 1 {
			outer := -1
			for j < len(runs) &&
				len(runs[j].Dims) == 1 &&
				runs[j].Dims[0] == base.Dims[0] {
				s := runs[j].Start - runs[j-1].Start
				if outer == -1 {
					outer = s
				}
				if s != outer {
					break
				}
				j++
			}
			if j-i >= 2 {
				out = append(out, RL{
					Start: base.Start,
					Dims:  []Dim{base.Dims[0], {Iters: j - i, Stride: outer}},
				})
				i = j
				continue
			}
		}
		out = append(out, base)
		i++
	}
	return List{rls: out}
}

func refUnion(l, o List) List {
	if l.Empty() {
		return o
	}
	if o.Empty() || l.Equal(o) {
		return l
	}
	return refFromRanks(append(refListRanks(l), refListRanks(o)...))
}

// sameDescriptors reports whether two lists hold the same descriptors:
// every Start and every Dim, in order.
func sameDescriptors(a, b List) bool {
	return slices.EqualFunc(a.rls, b.rls, func(x, y RL) bool {
		return x.Start == y.Start && slices.Equal(x.Dims, y.Dims)
	})
}

// cloneList deep-copies a list, so a test can tell whether an operation
// wrote into its operands.
func cloneList(l List) List {
	out := List{rls: make([]RL, len(l.rls))}
	for i, r := range l.rls {
		out.rls[i] = RL{Start: r.Start, Dims: slices.Clone(r.Dims)}
	}
	return out
}

// fuzzList reads a hand-built list from fuzz bytes: up to four
// descriptors, each a start byte (signed) and a dimension-count byte
// (mod 4), then per dimension an iterations byte (1 + b mod 4) and a
// stride byte (signed, mod 5: -4..4). listBytes writes the inverse for
// the lists randList draws.
func fuzzList(data []byte) List {
	var l List
	for len(data) >= 2 && len(l.rls) < 4 {
		r := RL{Start: int(int8(data[0]))}
		nd := int(data[1] % 4)
		data = data[2:]
		for ; nd > 0 && len(data) >= 2; nd-- {
			r.Dims = append(r.Dims, Dim{Iters: 1 + int(data[0]%4), Stride: int(int8(data[1])) % 5})
			data = data[2:]
		}
		l.rls = append(l.rls, r)
	}
	return l
}

func listBytes(l List) []byte {
	var out []byte
	for _, r := range l.rls {
		out = append(out, byte(int8(r.Start)), byte(len(r.Dims)))
		for _, d := range r.Dims {
			out = append(out, byte(d.Iters-1), byte(int8(d.Stride)))
		}
	}
	return out
}

// Normalisation flags of FuzzUnionMatchesReference: the operand is
// replaced by the old compactor's form of its own rank set.
const (
	normA = 1 << iota
	normB
)

// unionSeed is one input of FuzzUnionMatchesReference.
type unionSeed struct {
	a, b []byte
	norm uint8
}

// unionSeeds are the TestEqualMinUnionMatchExpansion cases over randList
// pairs, as fuzz inputs: raw pairs, a list and its normalised self, a
// list and itself, and two normalised lists.
func unionSeeds(n int) []unionSeed {
	rng := rand.New(rand.NewSource(20))
	seeds := make([]unionSeed, n)
	for i := range seeds {
		a, b := listBytes(randList(rng)), listBytes(randList(rng))
		switch i % 4 {
		case 0:
			seeds[i] = unionSeed{a, b, 0}
		case 1:
			seeds[i] = unionSeed{a, a, normB}
		case 2:
			seeds[i] = unionSeed{a, a, 0}
		case 3:
			seeds[i] = unionSeed{a, b, normA | normB}
		}
	}
	return seeds
}

// checkAgainstReference compares FromRanks and Union with the old
// compactor, descriptor for descriptor, on the lists and rank sets one
// fuzz input names.
func checkAgainstReference(t *testing.T, a, b []byte, norm uint8) {
	t.Helper()
	la, lb := fuzzList(a), fuzzList(b)
	if norm&normA != 0 {
		la = refFromRanks(refListRanks(la))
	}
	if norm&normB != 0 {
		lb = refFromRanks(refListRanks(lb))
	}

	// FromRanks over raw bytes (random, duplicated, negative ranks) and
	// over the rank sets of hand-built lists (2D, negative strides).
	raw := make([]int, len(a))
	for i, x := range a {
		raw[i] = int(int8(x))
	}
	for _, in := range [][]int{raw, refListRanks(la), append(refListRanks(la), refListRanks(lb)...)} {
		keep := slices.Clone(in)
		got, want := FromRanks(in), refFromRanks(in)
		if !sameDescriptors(got, want) {
			t.Fatalf("FromRanks(%v) = %v, reference %v", in, got, want)
		}
		if !slices.Equal(in, keep) {
			t.Fatalf("FromRanks wrote into its input: %v, was %v", in, keep)
		}
		checkCapped(t, got)
	}

	for _, pair := range [][2]List{{la, lb}, {lb, la}, {la, la}} {
		l, o := pair[0], pair[1]
		keepL, keepO := cloneList(l), cloneList(o)
		got, want := l.Union(o), refUnion(l, o)
		if !sameDescriptors(got, want) {
			t.Fatalf("%v.Union(%v) = %v, reference %v", l, o, got, want)
		}
		if !sameDescriptors(l, keepL) || !sameDescriptors(o, keepO) {
			t.Fatalf("Union wrote into its operands: %v, %v (were %v, %v)", l, o, keepL, keepO)
		}
	}
}

// checkCapped fails when a freshly compacted descriptor's Dims could
// grow into its neighbour's share of the slab.
func checkCapped(t *testing.T, l List) {
	t.Helper()
	for _, r := range l.rls {
		if cap(r.Dims) != len(r.Dims) {
			t.Fatalf("%v: descriptor %v has Dims cap %d > len %d", l, r, cap(r.Dims), len(r.Dims))
		}
	}
}

// FuzzUnionMatchesReference holds the shared compactor to the old one:
// FromRanks and Union must produce exactly the old descriptors (Start
// and every Dim, not only the covered ranks), leave their inputs alone,
// and cap every descriptor's Dims.
func FuzzUnionMatchesReference(f *testing.F) {
	for _, s := range unionSeeds(64) {
		f.Add(s.a, s.b, s.norm)
	}
	f.Fuzz(checkAgainstReference)
}

// TestUnionMatchesReferenceSeeds runs the oracle over many more
// TestEqualMinUnionMatchExpansion cases than the fuzz seed corpus holds.
func TestUnionMatchesReferenceSeeds(t *testing.T) {
	for _, s := range unionSeeds(4000) {
		checkAgainstReference(t, s.a, s.b, s.norm)
	}
}

// TestSpillingSetsMatchReference takes the compactor past its stack
// scratch: rank sets and unions too large or too irregular for it.
func TestSpillingSetsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		n := rng.Intn(4 * stackRanks)
		in := make([]int, n)
		for j := range in {
			in[j] = rng.Intn(2*n + 1)
		}
		if i%2 == 1 { // a grid block plus scattered ranks: few runs, many ranks
			for r := 0; r < 40; r++ {
				for c := 0; c < 20; c++ {
					in = append(in, 3000+64*r+c)
				}
			}
		}
		got, want := FromRanks(in), refFromRanks(in)
		if !sameDescriptors(got, want) {
			t.Fatalf("FromRanks of %d ranks = %v, reference %v", len(in), got, want)
		}
		checkCapped(t, got)
		o := FromRanks(in[:len(in)/2])
		if got, want := got.Union(o), refUnion(want, o); !sameDescriptors(got, want) {
			t.Fatalf("Union of %d-rank lists = %v, reference %v", len(in), got, want)
		}
		if got, want := o.Union(FromRanks([]int{-1, 5000})), refUnion(o, refFromRanks([]int{-1, 5000})); !sameDescriptors(got, want) {
			t.Fatalf("Union with outliers = %v, reference %v", got, want)
		}
	}
}

// TestListBytesRoundTrip: the seed encoding reads back as the list
// randList drew, so the fuzz seeds are exactly those cases.
func TestListBytesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 500; i++ {
		l := randList(rng)
		if back := fuzzList(listBytes(l)); !sameDescriptors(back, l) {
			t.Fatalf("fuzzList(listBytes(%v)) = %v", l, back)
		}
	}
}

// splitOne rewrites the normal form l into one that covers the same
// ranks but is not normal: descriptor k/2 of a 2D shape loses its first
// row (k even) or its last (k odd) to a descriptor of its own, and a 1D
// run of four or more its first or last two ranks — the cases FromRanks
// would have joined.
func splitOne(l List, k int) List {
	if l.Empty() {
		return l
	}
	i, last := (k/2)%len(l.rls), k%2 == 1
	r := l.rls[i]
	var parts []RL
	switch {
	case len(r.Dims) == 2:
		row, rows := r.Dims[0], r.Dims[1]
		rest := RL{Start: r.Start, Dims: []Dim{row, {Iters: rows.Iters - 1, Stride: rows.Stride}}}
		if rows.Iters == 2 {
			rest.Dims = rest.Dims[:1]
		}
		one := RL{Start: r.Start + (rows.Iters-1)*rows.Stride, Dims: []Dim{row}}
		if !last {
			one.Start, rest.Start = r.Start, r.Start+rows.Stride
			parts = []RL{one, rest}
		} else {
			parts = []RL{rest, one}
		}
	case len(r.Dims) == 1 && r.Dims[0].Iters >= 4:
		d := r.Dims[0]
		head := 2
		if last {
			head = d.Iters - 2
		}
		parts = []RL{
			{Start: r.Start, Dims: []Dim{{Iters: head, Stride: d.Stride}}},
			{Start: r.Start + head*d.Stride, Dims: []Dim{{Iters: d.Iters - head, Stride: d.Stride}}},
		}
	default:
		return l
	}
	out := slices.Clone(l.rls[:i])
	out = append(out, parts...)
	return List{rls: append(out, l.rls[i+1:]...)}
}

// checkNormal fails t unless Normal is true of the list one fuzz input
// names exactly when the old compactor, given the ranks the list covers,
// writes the list's own descriptors. With normA set the list is first
// replaced by its normal form, and with split set that form has one
// descriptor split (splitOne at edit's high bits).
func checkNormal(t *testing.T, data []byte, edit uint8) {
	t.Helper()
	const split = normB
	l := fuzzList(data)
	if edit&normA != 0 {
		l = refFromRanks(refListRanks(l))
	}
	if edit&split != 0 {
		l = splitOne(l, int(edit>>2))
	}
	want := sameDescriptors(refFromRanks(refListRanks(l)), l)
	if got := l.Normal(); got != want {
		t.Fatalf("%v.Normal() = %v; its ranks %v compact to %v", l, got, refListRanks(l), refFromRanks(refListRanks(l)))
	}
}

// normalSeeds are the lists randList draws, as fuzz inputs: raw, in
// normal form, and in normal form with one descriptor split.
func normalSeeds(n int) []unionSeed {
	rng := rand.New(rand.NewSource(37))
	seeds := make([]unionSeed, n)
	for i := range seeds {
		edit := []uint8{0, normA, normA | normB}[i%3]
		seeds[i] = unionSeed{a: listBytes(randList(rng)), norm: edit | uint8(rng.Intn(64))<<2}
	}
	return seeds
}

// FuzzNormalFormCheck holds Normal, which checks descriptors without
// expanding them, to the old compactor's expansion and re-compaction.
func FuzzNormalFormCheck(f *testing.F) {
	for _, s := range normalSeeds(64) {
		f.Add(s.a, s.norm)
	}
	f.Fuzz(checkNormal)
}

// TestNormalFormCheckSeeds runs the oracle over more lists than the fuzz
// seed corpus holds, over one hand-written list per rule Normal checks,
// and over normal forms wider than fuzzList can write: large strided
// grids and their splits.
func TestNormalFormCheckSeeds(t *testing.T) {
	for _, s := range normalSeeds(4000) {
		checkNormal(t, s.a, s.norm)
	}
	for _, c := range []struct {
		rls    []RL
		normal bool
	}{
		{[]RL{New(0, Dim{4, 1}, Dim{2, 5})}, true},
		{[]RL{New(0, Dim{4, 1}, Dim{2, 4})}, false}, // rows touch: one run of 8
		{[]RL{New(0, Dim{4, 1}, Dim{2, 3})}, false}, // rows overlap
		{[]RL{New(0, Dim{4, 1}, Dim{1, 9})}, false}, // one row
		{[]RL{Range(0, 3, 2), Single(6)}, false},    // the single extends the run
		{[]RL{Range(0, 3, 2), Single(7)}, true},
		{[]RL{Single(0), Range(3, 2, 1)}, false}, // a single not at the end
		{[]RL{Range(0, 2, 1), Range(5, 2, 1)}, false},
		{[]RL{New(0, Dim{2, 1}, Dim{2, 5}), Range(10, 2, 1)}, false}, // a third row
		{[]RL{New(0, Dim{2, 1}, Dim{2, 5}), Range(11, 2, 1)}, true},
	} {
		l := List{rls: c.rls}
		_, kept := Normalize(c.rls, nil)
		if got, want := l.Normal(), sameDescriptors(refFromRanks(refListRanks(l)), l); got != c.normal || want != c.normal || kept != c.normal {
			t.Fatalf("%v.Normal() = %v, Normalize keeps it: %v, the compactor says %v, want %v", l, got, kept, want, c.normal)
		}
	}
	rng := rand.New(rand.NewSource(38))
	for i := 0; i < 500; i++ {
		var in []int
		for r := rng.Intn(6); r >= 0; r-- {
			base, stride, iters := rng.Intn(400), 1+rng.Intn(5), 1+rng.Intn(6)
			for c := 0; c < iters; c++ {
				in = append(in, base+c*stride)
			}
		}
		l := refFromRanks(in)
		if !l.Normal() {
			t.Fatalf("the normal form %v of %v fails Normal", l, in)
		}
		for k := range 2 * len(l.rls) {
			if s := splitOne(l, k); !sameDescriptors(s, l) && s.Normal() {
				t.Fatalf("%v, split from the normal form %v, passes Normal", s, l)
			}
		}
	}
}
