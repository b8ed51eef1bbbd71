package stats

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// The full-width folds as they stood before histograms tracked their
// span: every one of the 64 buckets, whatever the histogram holds. The
// span-limited Merge, MergeScaled and Reset must be indistinguishable
// from them in everything a caller can read.

func refMerge(h, o *Histogram) *Histogram {
	out := *h
	if o == nil || o.Count() == 0 {
		return &out
	}
	for i := range out.Buckets {
		out.Buckets[i] += o.Buckets[i]
	}
	out.Min, out.Max = min(out.Min, o.Min), max(out.Max, o.Max)
	out.sum.Merge(o.sum)
	return &out
}

func refMergeScaled(h, o *Histogram, k uint64) *Histogram {
	out := *h
	if o == nil || k == 0 || o.Count() == 0 {
		return &out
	}
	for i := range out.Buckets {
		out.Buckets[i] += o.Buckets[i] * k
	}
	out.Min, out.Max = min(out.Min, o.Min), max(out.Max, o.Max)
	out.sum.MergeScaled(o.sum, k)
	return &out
}

// sameReadable compares what callers can observe; the span is private
// bookkeeping and may legitimately differ (a reference copy keeps the
// destination's).
func sameReadable(a, b *Histogram) bool {
	return a.Buckets == b.Buckets && a.Min == b.Min && a.Max == b.Max && a.sum == b.sum
}

// spanCorpus builds histograms the three ways they come to exist: by
// Add/AddN, by the JSON decoder — including bucket detail outside
// [bucketOf(Min), bucketOf(Max)], which the decoder accepts, so a span
// derived from Min/Max would lose counts — and as bare zero values.
func spanCorpus(t *testing.T) []*Histogram {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	var hs []*Histogram
	for i := 0; i < 12; i++ {
		h := NewHistogram()
		for n := rng.Intn(6); n > 0; n-- {
			v := rng.Int63() >> uint(rng.Intn(64))
			if rng.Intn(3) == 0 {
				h.AddN(v, uint64(1+rng.Intn(5)))
			} else {
				h.Add(v - int64(rng.Intn(2)))
			}
		}
		hs = append(hs, h)
	}
	for _, doc := range []string{
		`{"min":100,"max":200,"mean":150,"count":4,"buckets":{"0":1,"7":1,"8":1,"63":1}}`,
		`{"min":5,"max":5,"mean":5,"count":2,"buckets":{"40":2}}`,
		`{"min":1,"max":9,"mean":3,"count":3}`,
	} {
		h := new(Histogram)
		if err := json.Unmarshal([]byte(doc), h); err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	zero := &Histogram{}
	touched := &Histogram{}
	touched.Add(1 << 20)
	return append(hs, zero, touched)
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
			// A second fold lands on a destination whose span the first
			// one had to widen.
			c := hs[(i+j)%len(hs)]
			want := refMergeScaled(got, c, 3)
			got.MergeScaled(c, 3)
			if !sameReadable(got, want) {
				t.Fatalf("(%d+%d).MergeScaled(%d, 3) = %+v, full-width %+v", i, j, (i+j)%len(hs), got, want)
			}
			got.Reset()
			if *got != *NewHistogram() {
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
		if h.Count() > 0 && into.Buckets != h.Buckets {
			t.Fatalf("corpus[%d]: merging its clone moved %v of %v", i, into.Buckets, h.Buckets)
		}
		c.Reset()
		if c.Buckets != [64]uint64{} {
			t.Fatalf("corpus[%d]: Reset of a clone left %v", i, c.Buckets)
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
