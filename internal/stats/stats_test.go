package stats

import (
	"encoding/json"
	"math"
	"testing"
	"testing/quick"
)

func TestRunningMean(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Sig() != 0 {
		t.Fatalf("zero Running: mean=%v sig=%v", r.Mean(), r.Sig())
	}
	for _, v := range []uint64{10, 20, 30} {
		r.Add(v)
	}
	if got := r.Mean(); math.Abs(got-20) > 1e-9 {
		t.Fatalf("mean = %v, want 20", got)
	}
	if r.Count() != 3 {
		t.Fatalf("count = %d, want 3", r.Count())
	}
	if r.Sig() != 20 {
		t.Fatalf("sig = %d, want 20", r.Sig())
	}
}

func TestRunningNoOverflow(t *testing.T) {
	// The estimation function must survive values whose sum overflows.
	var r Running
	const big = math.MaxUint64 / 2
	for i := 0; i < 100; i++ {
		r.Add(big)
	}
	if got := r.Mean(); math.Abs(got-float64(big))/float64(big) > 1e-9 {
		t.Fatalf("mean drifted: %v", got)
	}
}

func TestRunningAddN(t *testing.T) {
	var a, b Running
	for i := 0; i < 7; i++ {
		a.Add(42)
	}
	b.AddN(42, 7)
	if a.Mean() != b.Mean() || a.Count() != b.Count() {
		t.Fatalf("AddN mismatch: %v/%d vs %v/%d", a.Mean(), a.Count(), b.Mean(), b.Count())
	}
	b.AddN(10, 0) // no-op
	if b.Count() != 7 {
		t.Fatalf("AddN(_,0) changed count")
	}
}

func TestRunningMergeMatchesSequential(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		var all, a, b Running
		for _, x := range xs {
			all.Add(uint64(x))
			a.Add(uint64(x))
		}
		for _, y := range ys {
			all.Add(uint64(y))
			b.Add(uint64(y))
		}
		a.Merge(b)
		return math.Abs(all.Mean()-a.Mean()) < 1e-6 && all.Count() == a.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWelford(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if got := w.Mean(); got != 5 {
		t.Fatalf("mean = %v, want 5", got)
	}
	if got := w.Std(); math.Abs(got-2) > 1e-9 {
		t.Fatalf("std = %v, want 2", got)
	}
}

func TestWelfordMergeMatchesSequential(t *testing.T) {
	f := func(xs, ys []int8) bool {
		var all, a, b Welford
		for _, x := range xs {
			all.Add(float64(x))
			a.Add(float64(x))
		}
		for _, y := range ys {
			all.Add(float64(y))
			b.Add(float64(y))
		}
		a.Merge(b)
		return math.Abs(all.Mean()-a.Mean()) < 1e-6 &&
			math.Abs(all.Var()-a.Var()) < 1e-6 &&
			all.N() == a.N()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWelfordMergeEmpty(t *testing.T) {
	var a, b Welford
	a.Add(3)
	a.Merge(b) // merging empty is a no-op
	if a.N() != 1 || a.Mean() != 3 {
		t.Fatalf("merge empty changed state: n=%d mean=%v", a.N(), a.Mean())
	}
	b.Merge(a) // merging into empty copies
	if b.N() != 1 || b.Mean() != 3 {
		t.Fatalf("merge into empty: n=%d mean=%v", b.N(), b.Mean())
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 {
		t.Fatalf("fresh histogram not empty")
	}
	h.Add(100)
	h.Add(200)
	h.Add(300)
	if h.Min != 100 || h.Max != 300 {
		t.Fatalf("min/max = %d/%d", h.Min, h.Max)
	}
	if h.Mean() != 200 {
		t.Fatalf("mean = %d, want 200", h.Mean())
	}
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestHistogramAddN(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 0; i < 5; i++ {
		a.Add(64)
	}
	b.AddN(64, 5)
	if a.Mean() != b.Mean() || a.Count() != b.Count() || bucketsOf(a) != bucketsOf(b) {
		t.Fatalf("AddN differs from repeated Add")
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	a.Add(10)
	b.Add(1000)
	b.Add(2000)
	a.Merge(b)
	if a.Count() != 3 || a.Min != 10 || a.Max != 2000 {
		t.Fatalf("merge: n=%d min=%d max=%d", a.Count(), a.Min, a.Max)
	}
	if got := a.Mean(); got != (10+1000+2000)/3 {
		t.Fatalf("merged mean = %d", got)
	}
	// Merging nil or empty is a no-op.
	before := *a
	a.Merge(nil)
	a.Merge(NewHistogram())
	if a.Count() != before.Count() {
		t.Fatalf("empty merge changed count")
	}
}

func TestHistogramClone(t *testing.T) {
	h := NewHistogram()
	h.Add(5)
	c := h.Clone()
	c.Add(50)
	if h.Count() != 1 || c.Count() != 2 {
		t.Fatalf("clone not independent: %d/%d", h.Count(), c.Count())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram()
	h.Add(0) // non-positive lands in bucket 0
	h.Add(-5)
	if h.Bucket(0) != 2 {
		t.Fatalf("bucket0 = %d", h.Bucket(0))
	}
	h2 := NewHistogram()
	h2.Add(1 << 40)
	h2.Add(math.MaxInt64)
	if h2.Count() != 2 {
		t.Fatalf("large values dropped")
	}
}

func TestHistogramJSONRoundTrip(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int64{1, 5, 1024, 88, 7_000_000} {
		h.Add(v)
	}
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var back Histogram
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Count() != h.Count() || back.Min != h.Min || back.Max != h.Max ||
		back.Mean() != h.Mean() || bucketsOf(&back) != bucketsOf(h) {
		t.Fatalf("round trip mismatch: %v vs %v", back.String(), h.String())
	}
}

func TestHistogramJSONEmpty(t *testing.T) {
	h := NewHistogram()
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var back Histogram
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Count() != 0 {
		t.Fatalf("empty round trip has count %d", back.Count())
	}
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram()
	if h.String() != "hist{empty}" {
		t.Fatalf("empty string: %q", h.String())
	}
	h.Add(10)
	if h.String() == "hist{empty}" {
		t.Fatalf("non-empty histogram renders empty")
	}
}

func TestBucketMonotone(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return bucketOf(x) <= bucketOf(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBucketBoundsCoverBucketOf(t *testing.T) {
	for _, v := range []int64{1, 2, 3, 4, 7, 8, 1000, 1 << 20, 1<<62 + 1} {
		b := BucketOf(v)
		low, high := BucketBounds(b)
		if v < low || v > high {
			t.Fatalf("v=%d bucket=%d bounds=[%d,%d]", v, b, low, high)
		}
	}
	if b := BucketOf(-5); b != 0 {
		t.Fatalf("negative bucket = %d", b)
	}
}

func TestQuantileEmptyAndSingle(t *testing.T) {
	h := NewHistogram()
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %d", q)
	}
	h.Add(42)
	for _, q := range []float64{0, 0.5, 1} {
		if got := h.Quantile(q); got != 42 {
			t.Fatalf("single-sample Quantile(%v) = %d", q, got)
		}
	}
}

func TestQuantileExtremesExact(t *testing.T) {
	h := NewHistogram()
	for v := int64(1); v <= 1000; v++ {
		h.Add(v)
	}
	if got := h.Quantile(0); got != 1 {
		t.Fatalf("p0 = %d", got)
	}
	if got := h.Quantile(1); got != 1000 {
		t.Fatalf("p100 = %d", got)
	}
}

func TestQuantileUniformWithinBucketError(t *testing.T) {
	// Uniform 1..4096: the log2 interpolation should land each quantile
	// within its bucket, i.e. within a factor of 2 of the exact value.
	h := NewHistogram()
	for v := int64(1); v <= 4096; v++ {
		h.Add(v)
	}
	for _, q := range []float64{0.25, 0.5, 0.9, 0.99} {
		exact := float64(4096) * q
		got := float64(h.Quantile(q))
		if got < exact/2 || got > exact*2 {
			t.Fatalf("Quantile(%v) = %v, exact %v (off by more than 2x)", q, got, exact)
		}
	}
}

func TestQuantileMonotone(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 500; i++ {
		h.Add(int64(i*i) % 100000)
	}
	prev := int64(math.MinInt64)
	for q := 0.0; q <= 1.0; q += 0.05 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone at q=%v: %d < %d", q, v, prev)
		}
		prev = v
	}
}

func TestQuantileRestoredFallsBackToMean(t *testing.T) {
	h := NewHistogram()
	h.Restore(10, 90, 40, 7)
	if got := h.Quantile(0.99); got != 40 {
		t.Fatalf("restored quantile = %d, want mean 40", got)
	}
}

// TestMergeScaledMatchesRepeatedMerge proves the O(1) scaled fold
// against the linear reference: merging a histogram k times one by one.
func TestMergeScaledMatchesRepeatedMerge(t *testing.T) {
	src := NewHistogram()
	for _, v := range []int64{10, 70, 70, 500, 9000} {
		src.Add(v)
	}
	const k = 7
	scaled, repeated := NewHistogram(), NewHistogram()
	scaled.Add(3) // pre-existing content on both sides
	repeated.Add(3)
	scaled.MergeScaled(src, k)
	for i := 0; i < k; i++ {
		repeated.Merge(src)
	}
	if scaled.Count() != repeated.Count() || bucketsOf(scaled) != bucketsOf(repeated) ||
		scaled.Min != repeated.Min || scaled.Max != repeated.Max {
		t.Fatalf("scaled fold diverges: %v vs %v", scaled, repeated)
	}
	if math.Abs(float64(scaled.Mean()-repeated.Mean())) > 1 {
		t.Fatalf("mean: scaled %d vs repeated %d", scaled.Mean(), repeated.Mean())
	}
	sm, rm := scaled.sum.Std(), repeated.sum.Std()
	if rm != 0 && math.Abs(sm-rm)/rm > 1e-9 {
		t.Fatalf("std: scaled %v vs repeated %v", sm, rm)
	}
	// k = 0 and empty sources are no-ops.
	before := scaled.Count()
	scaled.MergeScaled(src, 0)
	scaled.MergeScaled(NewHistogram(), 5)
	scaled.MergeScaled(nil, 5)
	if scaled.Count() != before {
		t.Fatalf("no-op MergeScaled changed count")
	}
}

func TestWelfordAddConst(t *testing.T) {
	var a, b Welford
	a.Add(5)
	b.Add(5)
	for i := 0; i < 1000; i++ {
		a.Add(42)
	}
	b.AddConst(42, 1000)
	if a.N() != b.N() {
		t.Fatalf("n: %d vs %d", a.N(), b.N())
	}
	if math.Abs(a.Mean()-b.Mean()) > 1e-9 {
		t.Fatalf("mean: %v vs %v", a.Mean(), b.Mean())
	}
	if math.Abs(a.Std()-b.Std()) > 1e-6 {
		t.Fatalf("std: %v vs %v", a.Std(), b.Std())
	}
}
