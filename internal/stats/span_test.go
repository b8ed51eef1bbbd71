package stats

import (
	"math"
	"testing"
)

// The full-width folds: every one of the 64 buckets, whatever the
// histogram holds. The sparse Merge, MergeScaled and Reset must be
// indistinguishable from them in everything a caller can read.

func refMerge(h, o *Histogram) *Histogram {
	out := h.Clone()
	if o == nil || o.Count() == 0 {
		return out
	}
	for i := 0; i < 64; i++ {
		out.SetBucket(i, out.Bucket(i)+o.Bucket(i))
	}
	out.Min, out.Max = min(out.Min, o.Min), max(out.Max, o.Max)
	out.sum.Merge(o.sum)
	return out
}

func refMergeScaled(h, o *Histogram, k uint64) *Histogram {
	out := h.Clone()
	if o == nil || k == 0 || o.Count() == 0 {
		return out
	}
	for i := 0; i < 64; i++ {
		out.SetBucket(i, out.Bucket(i)+o.Bucket(i)*k)
	}
	out.Min, out.Max = min(out.Min, o.Min), max(out.Max, o.Max)
	out.sum.MergeScaled(o.sum, k)
	return out
}

// bucketsOf returns every bucket of h as one array.
func bucketsOf(h *Histogram) [64]uint64 {
	var b [64]uint64
	for i := range b {
		b[i] = h.Bucket(i)
	}
	return b
}

// sameReadable compares what callers can observe; how the buckets are
// held (inline, or a spill array a Reset kept) may legitimately differ.
func sameReadable(a, b *Histogram) bool {
	return bucketsOf(a) == bucketsOf(b) && a.Min == b.Min && a.Max == b.Max && a.sum == b.sum
}

// spanDocs are JSON histograms with bucket detail outside
// [bucketOf(Min), bucketOf(Max)], which the decoder accepts, and one with
// none.
var spanDocs = []string{
	`{"min":100,"max":200,"mean":150,"count":4,"buckets":{"0":1,"7":1,"8":1,"63":1}}`,
	`{"min":5,"max":5,"mean":5,"count":2,"buckets":{"40":2}}`,
	`{"min":1,"max":9,"mean":3,"count":3}`,
}

// spanCorpus builds histograms the three ways they come to exist: by
// Add/AddN, by the JSON decoder (spanDocs) and as bare zero values —
// through spanPrograms, so the fold tests and the reference oracle run
// on one corpus.
func spanCorpus(t *testing.T) []*Histogram {
	t.Helper()
	var hs []*Histogram
	for _, p := range spanPrograms() {
		hs = append(hs, runHistProg(t, p)[0])
	}
	return hs
}

func TestSpanLimitedFoldsMatchFullWidth(t *testing.T) {
	hs := spanCorpus(t)
	for i, a := range hs {
		for j, b := range hs {
			got := a.Clone()
			got.Merge(b)
			if want := refMerge(a, b); !sameReadable(got, want) {
				t.Fatalf("corpus[%d].Merge(corpus[%d]) = %+v, full-width %+v", i, j, got, want)
			}
			// A second fold lands on a destination the first one may have
			// spilled.
			c := hs[(i+j)%len(hs)]
			want := refMergeScaled(got, c, 3)
			got.MergeScaled(c, 3)
			if !sameReadable(got, want) {
				t.Fatalf("(%d+%d).MergeScaled(%d, 3) = %+v, full-width %+v", i, j, (i+j)%len(hs), got, want)
			}
			got.Reset()
			if !sameReadable(got, NewHistogram()) {
				t.Fatalf("Reset after folding %d, %d left %+v", i, j, got)
			}
		}
	}
}

func TestCloneKeepsSpan(t *testing.T) {
	for i, h := range spanCorpus(t) {
		c := h.Clone()
		into := NewHistogram()
		into.Merge(c)
		if h.Count() > 0 && bucketsOf(into) != bucketsOf(h) {
			t.Fatalf("corpus[%d]: merging its clone moved %v of %v", i, bucketsOf(into), bucketsOf(h))
		}
		c.Reset()
		if bucketsOf(c) != [64]uint64{} {
			t.Fatalf("corpus[%d]: Reset of a clone left %v", i, bucketsOf(c))
		}
	}
}

func TestBucketOfMatchesBitScan(t *testing.T) {
	// The 64-step scan bucketOf used before bits.Len64.
	scan := func(v int64) int {
		if v <= 0 {
			return 0
		}
		for i := 63; i >= 0; i-- {
			if uint64(v)&(1<<uint(i)) != 0 {
				return min(i+1, 63)
			}
		}
		return 0
	}
	for i := 0; i < 64; i++ {
		for _, v := range []int64{1<<uint(i) - 1, 1 << uint(i), 1<<uint(i) + 1} {
			if got, want := bucketOf(v), scan(v); got != want {
				t.Fatalf("bucketOf(%d) = %d, bit scan %d", v, got, want)
			}
		}
	}
	for _, v := range []int64{math.MinInt64, -1, 0, math.MaxInt64} {
		if got, want := bucketOf(v), scan(v); got != want {
			t.Fatalf("bucketOf(%d) = %d, bit scan %d", v, got, want)
		}
	}
}
