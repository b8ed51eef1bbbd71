// Package ranklist implements ScalaTrace's communication-group encoding.
//
// A rank list is the EBNF tuple <dimension, start_rank, iteration_length,
// stride>: it names the set of MPI ranks that share a trace entry without
// enumerating them. One dimension covers a strided run (start, start+s,
// ..., start+(n-1)*s); higher dimensions nest, so a 2D list describes a
// sub-grid of a process mesh. Irregular sets that no single descriptor
// covers are held as a union of descriptors (a List).
package ranklist

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Dim is one <iterations, stride> level of a rank list descriptor.
type Dim struct {
	Iters  int // number of ranks along this dimension (>= 1)
	Stride int // distance between consecutive ranks along this dimension
}

// RL is a single rank-list descriptor: a start rank plus nested
// dimensions. The zero value is invalid; use New or FromRanks.
type RL struct {
	Start int
	Dims  []Dim
}

// New builds a descriptor. Dims may be empty for a singleton rank.
func New(start int, dims ...Dim) RL {
	return RL{Start: start, Dims: dims}
}

// Single returns the descriptor for one rank.
func Single(rank int) RL { return RL{Start: rank} }

// Range returns a 1D descriptor covering iters ranks with the given stride.
func Range(start, iters, stride int) RL {
	if iters <= 1 {
		return Single(start)
	}
	return RL{Start: start, Dims: []Dim{{Iters: iters, Stride: stride}}}
}

// Size returns the number of ranks the descriptor covers.
func (r RL) Size() int {
	n := 1
	for _, d := range r.Dims {
		n *= d.Iters
	}
	return n
}

// Ranks expands the descriptor into an explicit sorted rank slice.
func (r RL) Ranks() []int {
	out := r.appendRanks(make([]int, 0, r.Size()))
	sort.Ints(out)
	return out
}

// appendRanks appends every rank the descriptor covers to out, in
// dimension order: each dimension repeats the block built so far at
// every further iteration.
func (r RL) appendRanks(out []int) []int {
	from := len(out)
	out = append(out, r.Start)
	for _, d := range r.Dims {
		if d.Iters < 1 {
			return out[:from]
		}
		n := len(out)
		for i := 1; i < d.Iters; i++ {
			for _, base := range out[from:n] {
				out = append(out, base+i*d.Stride)
			}
		}
	}
	return out
}

// Contains reports whether rank is a member of the descriptor.
func (r RL) Contains(rank int) bool {
	return contains(rank-r.Start, r.Dims)
}

// ForEach calls fn for every rank the descriptor covers, without
// allocating. Ranks are produced in dimension order, not sorted.
func (r RL) ForEach(fn func(rank int)) {
	forEachDim(r.Start, r.Dims, fn)
}

func forEachDim(base int, dims []Dim, fn func(int)) {
	if len(dims) == 0 {
		fn(base)
		return
	}
	d := dims[0]
	for i := 0; i < d.Iters; i++ {
		forEachDim(base+i*d.Stride, dims[1:], fn)
	}
}

// contains reports whether offset is a sum of one step along each
// dimension. The longest dimension is solved arithmetically and the
// others are stepped through, so a 1D descriptor costs O(1) and a 2D one
// O(its shorter dimension).
func contains(offset int, dims []Dim) bool {
	long := -1
	for i, d := range dims {
		if d.Iters < 1 {
			return false // covers no rank, as in appendRanks
		}
		if long < 0 || d.Iters > dims[long].Iters {
			long = i
		}
	}
	if long < 0 {
		return offset == 0
	}
	return stepDims(offset, dims, 0, long)
}

// stepDims tries every step along dims[k:] but dims[long], then solves
// dims[long] for what is left of offset.
func stepDims(offset int, dims []Dim, k, long int) bool {
	if k == len(dims) {
		d := dims[long]
		if d.Stride == 0 {
			return offset == 0
		}
		i := offset / d.Stride
		return offset%d.Stride == 0 && i >= 0 && i < d.Iters
	}
	d := dims[k]
	if k == long || d.Stride == 0 {
		return stepDims(offset, dims, k+1, long)
	}
	for i := 0; i < d.Iters; i++ {
		if stepDims(offset-i*d.Stride, dims, k+1, long) {
			return true
		}
	}
	return false
}

// String renders the descriptor in the paper's EBNF-ish notation.
func (r RL) String() string {
	if len(r.Dims) == 0 {
		return fmt.Sprintf("<0,%d>", r.Start)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "<%d,%d", len(r.Dims), r.Start)
	for _, d := range r.Dims {
		fmt.Fprintf(&b, ",%d,%d", d.Iters, d.Stride)
	}
	b.WriteString(">")
	return b.String()
}

// List is a union of descriptors — the representation carried on trace
// events. FromRanks, Union, Normalize and SingleRank build it in normal
// form (Normal). Shift and Classes build disjoint descriptors of at most
// two dimensions whose rows do not interleave, in order of their first
// rank, but not always the normal form's. UnmarshalJSON keeps what
// MarshalJSON wrote.
type List struct {
	rls []RL
}

// Scratch that FromRanks and Union keep on the stack: expanded ranks and
// descriptors under construction. A rank set over stackRanks takes one
// heap slice; one that folds into more than stackRuns runs grows its
// runs onto the heap as they come.
const (
	stackRanks = 256
	stackRuns  = 32
)

// FromRanks compacts an explicit rank set into a List, greedily detecting
// strided 1D runs and then stacking equal runs into a second dimension
// when they recur at a constant stride (the common case for sub-grids of
// a 2D process mesh).
func FromRanks(ranks []int) List {
	if len(ranks) == 0 {
		return List{}
	}
	var stack [stackRanks]int
	return fromSorted(sortedSet(append(stack[:0], ranks...)))
}

// sortedSet sorts rs in place and drops its duplicates.
func sortedSet(rs []int) []int {
	sort.Ints(rs)
	return dedup(rs)
}

// run is a descriptor of at most two dimensions under construction.
type run struct {
	start int
	nd    int
	dims  [2]Dim
}

// fromSorted compacts a sorted, duplicate-free rank set. Up to
// stackRuns runs, it allocates only the result: the descriptors and one
// slab their Dims share, each capped so an append to one cannot reach
// the next. The run count, not the rank count, decides: 256 ranks in
// one run cost what 2 do.
func fromSorted(rs []int) List {
	var stack [stackRuns]run
	runs := stack[:0]
	// Pass 1: fold into maximal 1D strided runs. Every run covers at
	// least two ranks, except a single rank left over at the end.
	for i := 0; i < len(rs); {
		if i+1 == len(rs) {
			runs = append(runs, run{start: rs[i]})
			break
		}
		j, stride := i+1, rs[i+1]-rs[i]
		for j+1 < len(rs) && rs[j+1]-rs[j] == stride {
			j++
		}
		runs = append(runs, run{start: rs[i], nd: 1, dims: [2]Dim{{Iters: j - i + 1, Stride: stride}}})
		i = j + 1
	}

	// Pass 2: stack identical consecutive runs recurring at a constant
	// outer stride into a 2D descriptor, compacting runs in place (a
	// descriptor is written at or before the first run it consumed).
	out, ndims := runs[:0], 0
	for i := 0; i < len(runs); {
		base, j := runs[i], i+1
		if base.nd == 1 {
			outer := -1 // run starts strictly increase, so no stride is -1
			for j < len(runs) && runs[j].nd == 1 && runs[j].dims[0] == base.dims[0] {
				s := runs[j].start - runs[j-1].start
				if outer == -1 {
					outer = s
				}
				if s != outer {
					break
				}
				j++
			}
			if j-i >= 2 {
				base.nd, base.dims[1] = 2, Dim{Iters: j - i, Stride: outer}
			}
		}
		out = append(out, base)
		ndims += base.nd
		i = j
	}

	b := builder{runs: out, ndims: ndims}
	return b.list()
}

func dedup(sorted []int) []int {
	out := sorted[:0]
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// Normalize returns the list of the ranks rls cover in normal form
// (Normal): the one constructor for descriptors that arrive from
// outside, as a decoder reads them. Descriptors already in normal form
// are kept as written — the list holds rls — in O(descriptors), never
// expanded. Any others are expanded and compacted again, which takes
// their rank count from *budget; ok is false, and nothing is taken,
// when the count is over it. A nil budget is 0.
func Normalize(rls []RL, budget *int) (l List, ok bool) {
	if len(rls) == 0 {
		return List{}, true
	}
	l = List{rls: rls}
	if l.Normal() {
		return l, true
	}
	n := l.Size()
	if budget == nil || n < 1 || n > *budget {
		return List{}, false
	}
	*budget -= n
	return fromSorted(l.Ranks()), true
}

// Normal reports whether the list holds exactly the descriptors
// FromRanks builds for the ranks it covers, without expanding them.
// FromRanks folds the sorted ranks into maximal strided runs, then
// stacks equal runs recurring at a constant stride into 2D descriptors.
// So each check is between a run and the next one, and the rows of a 2D
// descriptor are alike, which makes the check O(descriptors):
//   - every run covers at least two ranks at a positive stride, but a
//     single rank, which only the last descriptor may be;
//   - a 2D descriptor has at least two rows, and the gap from each row's
//     last rank to the next row's start is positive and not the row's
//     stride (or the runs would have been one);
//   - so is the gap from one descriptor's last rank to the next start;
//   - a 1D run is never followed by a run of the same shape, and a 2D
//     descriptor's rows never by one more at its row stride (either
//     would have been stacked in).
func (l List) Normal() bool {
	var prev Dim        // the previous descriptor's runs (Iters 0: none yet)
	var last, outer int // its last row's start, and its row stride (0: 1D)
	for i, r := range l.rls {
		var run Dim
		rows, rowStride := 1, 0
		switch len(r.Dims) {
		case 0:
			if i != len(l.rls)-1 {
				return false
			}
		case 2:
			rows, rowStride = r.Dims[1].Iters, r.Dims[1].Stride
			if rows < 2 {
				return false
			}
			fallthrough
		case 1:
			run = r.Dims[0]
			if run.Iters < 2 || run.Stride <= 0 {
				return false
			}
			if rows > 1 {
				if gap := rowStride - (run.Iters-1)*run.Stride; gap <= 0 || gap == run.Stride {
					return false
				}
			}
		default:
			return false
		}
		if prev.Iters > 0 {
			if gap := r.Start - (last + (prev.Iters-1)*prev.Stride); gap <= 0 || gap == prev.Stride {
				return false
			}
			if run == prev && (outer == 0 || r.Start-last == outer) {
				return false
			}
		}
		prev, last, outer = run, r.Start+(rows-1)*rowStride, rowStride
	}
	return true
}

// SingleRank returns a list covering exactly one rank.
func SingleRank(rank int) List { return List{rls: []RL{Single(rank)}} }

// Empty reports whether the list covers no ranks.
func (l List) Empty() bool { return len(l.rls) == 0 }

// Descriptors returns the underlying descriptors (do not mutate).
func (l List) Descriptors() []RL { return l.rls }

// Size returns the number of ranks covered.
func (l List) Size() int {
	n := 0
	for _, r := range l.rls {
		n += r.Size()
	}
	return n
}

// Ranks expands the list into a sorted, deduplicated rank slice.
func (l List) Ranks() []int {
	if l.Empty() {
		return nil
	}
	return sortedSet(l.appendRanks(make([]int, 0, l.Size())))
}

// appendRanks appends every rank of every descriptor to out, unsorted.
func (l List) appendRanks(out []int) []int {
	for _, r := range l.rls {
		out = r.appendRanks(out)
	}
	return out
}

// ForEach calls fn for every rank in the list, without allocating — the
// hot iteration path of the compressed-domain analysis engine. A list's
// descriptors are disjoint, so fn runs exactly once per covered rank.
// Order follows the descriptors, not global rank order.
func (l List) ForEach(fn func(rank int)) {
	for _, r := range l.rls {
		r.ForEach(fn)
	}
}

// Contains reports membership.
func (l List) Contains(rank int) bool {
	for _, r := range l.rls {
		if r.Contains(rank) {
			return true
		}
	}
	return false
}

// Union merges two lists and re-compacts the result; a list united with
// the same descriptors (or nothing) is returned as it is. Both operands
// expand into one scratch buffer, on the stack when they fit, so the
// result is the only allocation.
func (l List) Union(o List) List {
	if l.Empty() {
		return o
	}
	if o.Empty() || l.Equal(o) {
		return l
	}
	var stack [stackRanks]int
	rs := stack[:0]
	if n := l.Size() + o.Size(); n > len(stack) {
		rs = make([]int, 0, n)
	}
	return fromSorted(sortedSet(o.appendRanks(l.appendRanks(rs))))
}

// Equal reports whether the two lists hold the same descriptor
// sequence, without allocating. Two lists in normal form are equal
// exactly when they cover the same ranks.
func (l List) Equal(o List) bool {
	if len(l.rls) != len(o.rls) {
		return false
	}
	for i, r := range l.rls {
		if r.Start != o.rls[i].Start || !slices.Equal(r.Dims, o.rls[i].Dims) {
			return false
		}
	}
	return true
}

// Min returns the smallest rank in the list (or -1 when empty): the
// first descriptor's start, since descriptors come in order of their
// first rank and step upwards.
func (l List) Min() int {
	if l.Empty() {
		return -1
	}
	return l.rls[0].Start
}

// SizeBytes approximates the in-memory footprint for the space ledger.
func (l List) SizeBytes() int {
	n := 24 // slice header
	for _, r := range l.rls {
		n += 8 + 24 + len(r.Dims)*16
	}
	return n
}

// String renders the union of descriptors.
func (l List) String() string {
	if l.Empty() {
		return "<>"
	}
	parts := make([]string, len(l.rls))
	for i, r := range l.rls {
		parts[i] = r.String()
	}
	return strings.Join(parts, "+")
}
