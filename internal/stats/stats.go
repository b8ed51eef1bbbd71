// Package stats provides the small statistical kernels the tracing stack
// relies on: overflow-safe running averages (the paper's "estimation
// function"), Welford mean/variance accumulators, and log2-bucket
// histograms used to summarize inter-event computation times.
package stats

import (
	"fmt"
	"math"
	"math/bits"
)

// Running keeps an overflow-safe running mean of a stream of uint64
// samples. The paper notes that "aggregating event values and then taking
// the average could result in an overflow, [so] we utilized an estimation
// function"; Running is that function: it folds each sample into the mean
// incrementally so no sum is ever materialized.
type Running struct {
	mean  float64
	count uint64
}

// Add folds one sample into the running mean.
func (r *Running) Add(v uint64) {
	r.count++
	r.mean += (float64(v) - r.mean) / float64(r.count)
}

// AddN folds a sample observed n times.
func (r *Running) AddN(v uint64, n uint64) {
	if n == 0 {
		return
	}
	total := r.count + n
	r.mean += (float64(v) - r.mean) * float64(n) / float64(total)
	r.count = total
}

// Merge combines another running mean into this one.
func (r *Running) Merge(o Running) {
	if o.count == 0 {
		return
	}
	total := r.count + o.count
	r.mean += (o.mean - r.mean) * float64(o.count) / float64(total)
	r.count = total
}

// Mean returns the current estimate. A fresh Running reports 0.
func (r *Running) Mean() float64 { return r.mean }

// Sig returns the mean collapsed to a 64-bit signature value.
func (r *Running) Sig() uint64 {
	if math.IsNaN(r.mean) || r.mean < 0 {
		return 0
	}
	return uint64(r.mean)
}

// Count returns how many samples have been folded in.
func (r *Running) Count() uint64 { return r.count }

// Welford accumulates mean and variance in a single pass.
type Welford struct {
	n    uint64
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// AddConst folds n observations of the same value x in O(1): the block
// has mean x and zero internal variance, so it merges as a synthetic
// accumulator. The compressed-domain analysis engine relies on this to
// weight a loop body's contribution by its iteration count without
// expanding the loop.
func (w *Welford) AddConst(x float64, n uint64) {
	if n == 0 {
		return
	}
	w.Merge(Welford{n: n, mean: x})
}

// MergeScaled folds k copies of another accumulator in O(1): k disjoint
// copies of o's sample set share o's mean, and their pooled
// sum-of-squared-deviations is k times o's, so the union merges as one
// synthetic accumulator — exact in real arithmetic, not an
// approximation.
func (w *Welford) MergeScaled(o Welford, k uint64) {
	if k == 0 || o.n == 0 {
		return
	}
	w.Merge(Welford{n: o.n * k, mean: o.mean, m2: o.m2 * float64(k)})
}

// Merge combines another accumulator into this one (Chan et al. parallel
// variance update), so per-rank accumulators can be reduced over a tree.
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	w.mean += d * float64(o.n) / float64(n)
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.n = n
}

// N returns the number of observations.
func (w *Welford) N() uint64 { return w.n }

// Mean returns the sample mean (0 if empty).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the population variance (0 if fewer than 2 observations).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Std returns the population standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Histogram is a log2-bucket histogram over non-negative int64 samples
// (nanoseconds in practice): 64 buckets (see BucketOf), of which it
// stores only what it holds. ScalaTrace stores inter-event delta times in
// histograms so repetitive signatures with noisy timing still compress;
// replay draws the mean back out.
//
// Almost every histogram of a trace holds one or two non-empty buckets,
// so up to two are kept inline as (index, count) pairs in ascending
// index order; writing a third distinct bucket allocates a [64]uint64
// that from then on holds every bucket. Buckets are read through Bucket
// and EachBucket and written through SetBucket.
type Histogram struct {
	Min int64
	Max int64
	sum Welford
	// cnt[:n] are the counts of buckets idx[:n], all non-zero, while
	// spill is nil. Once it is not, spill holds every bucket and n is 0;
	// Reset clears the array and keeps it.
	cnt   [2]uint64
	spill *[64]uint64
	idx   [2]uint8
	n     uint8
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	h := new(Histogram)
	h.Reset()
	return h
}

func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v)) // at most 63: v is a positive int64
}

func checkBucket(i int) {
	if uint(i) >= 64 {
		panic(fmt.Sprintf("stats: bucket %d out of range", i))
	}
}

// slot returns the inline slot holding bucket i, or -1.
func (h *Histogram) slot(i int) int {
	for k := 0; k < int(h.n); k++ {
		if int(h.idx[k]) == i {
			return k
		}
	}
	return -1
}

// store writes count c to inline slot k, freeing the slot when c is 0.
func (h *Histogram) store(k int, c uint64) {
	if c != 0 {
		h.cnt[k] = c
		return
	}
	h.n--
	if k == 0 {
		h.idx[0], h.cnt[0] = h.idx[1], h.cnt[1]
	}
	h.idx[1], h.cnt[1] = 0, 0
}

// insert writes bucket i, held by no inline slot, with count c > 0:
// into a free slot, or, with both taken, into a new spill array.
func (h *Histogram) insert(i int, c uint64) {
	switch {
	case h.n == 2:
		h.spill = new([64]uint64)
		h.spill[h.idx[0]], h.spill[h.idx[1]], h.spill[i] = h.cnt[0], h.cnt[1], c
		h.idx, h.cnt, h.n = [2]uint8{}, [2]uint64{}, 0
		return
	case h.n == 1 && i < int(h.idx[0]):
		h.idx[1], h.cnt[1] = h.idx[0], h.cnt[0]
		h.idx[0], h.cnt[0] = uint8(i), c
	default:
		h.idx[h.n], h.cnt[h.n] = uint8(i), c
	}
	h.n++
}

// addBucket adds c to bucket i's count.
func (h *Histogram) addBucket(i int, c uint64) {
	if h.spill != nil {
		h.spill[i] += c
	} else if k := h.slot(i); k >= 0 {
		h.store(k, h.cnt[k]+c)
	} else if c != 0 {
		h.insert(i, c)
	}
}

// SetBucket sets bucket i's count directly; it is how the decoders
// restore bucket detail. A count of 0 empties the bucket. It panics when
// i is not a bucket index.
func (h *Histogram) SetBucket(i int, count uint64) {
	checkBucket(i)
	if h.spill != nil {
		h.spill[i] = count
	} else if k := h.slot(i); k >= 0 {
		h.store(k, count)
	} else if count != 0 {
		h.insert(i, count)
	}
}

// Bucket returns bucket i's count. It panics when i is not a bucket
// index.
func (h *Histogram) Bucket(i int) uint64 {
	checkBucket(i)
	if h.spill != nil {
		return h.spill[i]
	}
	if k := h.slot(i); k >= 0 {
		return h.cnt[k]
	}
	return 0
}

// EachBucket calls fn with the index and count of every non-empty
// bucket in ascending index order, until fn returns false.
func (h *Histogram) EachBucket(fn func(i int, c uint64) bool) {
	if h.spill != nil {
		for i, c := range h.spill {
			if c != 0 && !fn(i, c) {
				return
			}
		}
		return
	}
	for k := 0; k < int(h.n); k++ {
		if !fn(int(h.idx[k]), h.cnt[k]) {
			return
		}
	}
}

// addBuckets adds k times every bucket of o to h's. o may be h.
func (h *Histogram) addBuckets(o *Histogram, k uint64) {
	if o.spill != nil {
		for i, c := range o.spill {
			if c != 0 {
				h.addBucket(i, c*k)
			}
		}
		return
	}
	n, idx, cnt := o.n, o.idx, o.cnt
	for j := 0; j < int(n); j++ {
		h.addBucket(int(idx[j]), cnt[j]*k)
	}
}

// BucketOf returns the index of the log2 bucket that holds v: bucket 0
// holds all v <= 0 and bucket i (1 <= i <= 63) holds the values of bit
// length i, i.e. [2^(i-1), 2^i - 1].
func BucketOf(v int64) int { return bucketOf(v) }

// BucketBounds returns the inclusive [low, high] value range of bucket i.
func BucketBounds(i int) (low, high int64) {
	if i <= 0 {
		return 0, 0
	}
	if i >= 63 {
		return 1 << 62, math.MaxInt64
	}
	return 1 << uint(i-1), 1<<uint(i) - 1
}

// Add records one sample.
func (h *Histogram) Add(v int64) {
	h.addBucket(bucketOf(v), 1)
	if v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
	h.sum.Add(float64(v))
}

// AddN records a sample observed n times, in O(1) regardless of n (the
// n identical observations fold in as one constant block).
func (h *Histogram) AddN(v int64, n uint64) {
	if n == 0 {
		return
	}
	h.addBucket(bucketOf(v), n)
	if v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
	h.sum.AddConst(float64(v), n)
}

// Merge folds another histogram into this one.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.Count() == 0 {
		return
	}
	h.addBuckets(o, 1)
	if o.Min < h.Min {
		h.Min = o.Min
	}
	if o.Max > h.Max {
		h.Max = o.Max
	}
	h.sum.Merge(o.sum)
}

// MergeScaled folds k copies of another histogram into this one in
// O(1): bucket counts scale exactly, extrema are unchanged by
// duplication, and the summary accumulator merges via
// Welford.MergeScaled. It is how compressed-domain analysis aggregates
// a leaf's delta-time histogram across loop iterations and rank-list
// members without expanding either.
func (h *Histogram) MergeScaled(o *Histogram, k uint64) {
	if o == nil || k == 0 || o.Count() == 0 {
		return
	}
	h.addBuckets(o, k)
	if o.Min < h.Min {
		h.Min = o.Min
	}
	if o.Max > h.Max {
		h.Max = o.Max
	}
	h.sum.MergeScaled(o.sum, k)
}

// Count returns the number of samples recorded.
func (h *Histogram) Count() uint64 { return h.sum.N() }

// Mean returns the mean sample value (0 if empty).
func (h *Histogram) Mean() int64 { return int64(h.sum.Mean()) }

// FMean returns the mean without integer truncation.
func (h *Histogram) FMean() float64 { return h.sum.Mean() }

// Std returns the population standard deviation of the samples (0 for
// restored summaries, which do not persist variance).
func (h *Histogram) Std() float64 { return h.sum.Std() }

// Quantile estimates the q-quantile (q in [0, 1]) of the recorded
// samples by locating the log2 bucket containing the target rank and
// interpolating linearly inside it. The estimate is clamped to the
// observed [Min, Max] range, so exact-extreme queries (q = 0 or 1) are
// exact. A histogram rehydrated via Restore has no bucket detail; it
// falls back to the preserved mean.
func (h *Histogram) Quantile(q float64) int64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	var inBuckets uint64
	h.EachBucket(func(_ int, c uint64) bool {
		inBuckets += c
		return true
	})
	if inBuckets == 0 {
		// Restored summary (see Restore): only scalar state survives.
		return h.Mean()
	}
	// Target rank in [1, inBuckets].
	rank := uint64(math.Ceil(q * float64(inBuckets)))
	if rank == 0 {
		rank = 1
	}
	v := h.Max
	var cum uint64
	h.EachBucket(func(i int, c uint64) bool {
		if rank > cum+c {
			cum += c
			return true
		}
		low, high := BucketBounds(i)
		// Position of the target inside the bucket, in (0, 1].
		frac := float64(rank-cum) / float64(c)
		v = clampInt64(low+int64(frac*float64(high-low)), h.Min, h.Max)
		return false
	})
	return v
}

func clampInt64(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Clone returns an independent copy.
func (h *Histogram) Clone() *Histogram {
	c := *h
	if h.spill != nil {
		s := *h.spill
		c.spill = &s
	}
	return &c
}

// Reset returns the histogram to its freshly-constructed state so pooled
// trace nodes can reuse the allocation (a spill array included).
func (h *Histogram) Reset() {
	if h.spill != nil {
		*h.spill = [64]uint64{}
	}
	h.idx, h.cnt, h.n = [2]uint8{}, [2]uint64{}, 0
	h.Min, h.Max, h.sum = math.MaxInt64, math.MinInt64, Welford{}
}

// SizeBytes is the footprint the trace-space ledger (Table IV) charges a
// histogram: a full 64-bucket array plus the scalar fields, whatever the
// histogram holds. It models the histogram, not this representation, so
// the ledger and every virtual-time cost derived from it stay fixed.
func (h *Histogram) SizeBytes() int {
	return 64*8 + 8 + 8 + 24
}

// String renders a compact summary.
func (h *Histogram) String() string {
	if h.Count() == 0 {
		return "hist{empty}"
	}
	return fmt.Sprintf("hist{n=%d min=%d mean=%d max=%d}", h.Count(), h.Min, h.Mean(), h.Max)
}

// Restore rehydrates a histogram's scalar summary from serialized state
// (variance is not persisted; see the JSON codec note).
func (h *Histogram) Restore(min, max int64, mean float64, count uint64) {
	h.Min, h.Max = min, max
	h.sum = Welford{n: count, mean: mean}
}
