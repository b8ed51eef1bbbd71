// Package stats provides the small statistical kernels the tracing stack
// relies on: overflow-safe running averages (the paper's "estimation
// function"), Welford mean/variance accumulators, and fixed-bucket
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

// RelStd returns the standard deviation as a fraction of the mean
// (the paper reports "standard deviation is less than x% of the average").
func (w *Welford) RelStd() float64 {
	if w.mean == 0 {
		return 0
	}
	return w.Std() / math.Abs(w.mean)
}

// Histogram is a fixed-bucket log-scale histogram over non-negative
// int64 samples (nanoseconds in practice). ScalaTrace stores inter-event
// delta times in histograms so repetitive signatures with noisy timing
// still compress; replay draws the mean back out.
type Histogram struct {
	// Buckets may be read freely; write a bucket only through SetBucket,
	// which keeps the span below covering it.
	Buckets [64]uint64
	Min     int64
	Max     int64
	sum     Welford
	// lo..hi covers every bucket ever written (lo > hi: none yet; the
	// zero value spans bucket 0, merely loose), so Merge, MergeScaled and
	// Reset walk it instead of all 64. It is not derived from Min/Max:
	// decoded input may set buckets outside them.
	lo, hi int8
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

// widen grows the span to cover buckets lo..hi.
func (h *Histogram) widen(lo, hi int8) {
	if lo < h.lo {
		h.lo = lo
	}
	if hi > h.hi {
		h.hi = hi
	}
}

// SetBucket sets bucket i's count directly; it is how the decoders
// restore bucket detail. It panics when i is not a bucket index.
func (h *Histogram) SetBucket(i int, count uint64) {
	h.Buckets[i] = count
	h.widen(int8(i), int8(i))
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
	b := bucketOf(v)
	h.Buckets[b]++
	h.widen(int8(b), int8(b))
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
	b := bucketOf(v)
	h.Buckets[b] += n
	h.widen(int8(b), int8(b))
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
	for i := int(o.lo); i <= int(o.hi); i++ {
		h.Buckets[i] += o.Buckets[i]
	}
	h.widen(o.lo, o.hi)
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
	for i := int(o.lo); i <= int(o.hi); i++ {
		h.Buckets[i] += o.Buckets[i] * k
	}
	h.widen(o.lo, o.hi)
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
	for _, c := range h.Buckets {
		inBuckets += c
	}
	if inBuckets == 0 {
		// Restored summary (see Restore): only scalar state survives.
		return h.Mean()
	}
	// Target rank in [1, inBuckets].
	rank := uint64(math.Ceil(q * float64(inBuckets)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.Buckets {
		if c == 0 {
			continue
		}
		if rank > cum+c {
			cum += c
			continue
		}
		low, high := BucketBounds(i)
		// Position of the target inside the bucket, in (0, 1].
		frac := float64(rank-cum) / float64(c)
		v := low + int64(frac*float64(high-low))
		return clampInt64(v, h.Min, h.Max)
	}
	return h.Max
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
	return &c
}

// Reset returns the histogram to its freshly-constructed state so pooled
// trace nodes can reuse the allocation.
func (h *Histogram) Reset() {
	for i := int(h.lo); i <= int(h.hi); i++ {
		h.Buckets[i] = 0
	}
	h.Min, h.Max, h.sum = math.MaxInt64, math.MinInt64, Welford{}
	h.lo, h.hi = int8(len(h.Buckets)-1), 0
}

// SizeBytes approximates the in-memory footprint of the histogram, used
// by the trace-space ledger (Table IV).
func (h *Histogram) SizeBytes() int {
	// Fixed arrays plus scalar fields; matches unsafe.Sizeof within noise
	// but keeps the package free of unsafe.
	return 64*8 + 8 + 8 + 24
}

// String renders a compact summary.
func (h *Histogram) String() string {
	if h.Count() == 0 {
		return "hist{empty}"
	}
	return fmt.Sprintf("hist{n=%d min=%d mean=%d max=%d}", h.Count(), h.Min, h.Mean(), h.Max)
}

// MeanStd reports mean and standard deviation of a float64 slice; it is
// the helper the experiment harness uses for "average of five runs".
func MeanStd(xs []float64) (mean, std float64) {
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	return w.Mean(), w.Std()
}

// Restore rehydrates a histogram's scalar summary from serialized state
// (variance is not persisted; see the JSON codec note).
func (h *Histogram) Restore(min, max int64, mean float64, count uint64) {
	h.Min, h.Max = min, max
	h.sum = Welford{n: count, mean: mean}
}
