package stats

// The histogram exactly as it stood before it went sparse (a fixed
// [64]uint64 with a lo..hi span), kept here — only in a test file — as
// the oracle the sparse form answers to: driven through the same
// operations, both must agree on everything a caller can read. Its
// identifiers carry a ref prefix; the bodies are otherwise the
// pre-change code, verbatim. bucketOf, BucketBounds, clampInt64 and
// Welford did not change and are shared.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refHistogram is a fixed-bucket log-scale histogram over non-negative
// int64 samples (nanoseconds in practice). ScalaTrace stores inter-event
// delta times in histograms so repetitive signatures with noisy timing
// still compress; replay draws the mean back out.
type refHistogram struct {
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

// refNewHistogram returns an empty histogram.
func refNewHistogram() *refHistogram {
	h := new(refHistogram)
	h.Reset()
	return h
}

// widen grows the span to cover buckets lo..hi.
func (h *refHistogram) widen(lo, hi int8) {
	if lo < h.lo {
		h.lo = lo
	}
	if hi > h.hi {
		h.hi = hi
	}
}

// SetBucket sets bucket i's count directly; it is how the decoders
// restore bucket detail. It panics when i is not a bucket index.
func (h *refHistogram) SetBucket(i int, count uint64) {
	h.Buckets[i] = count
	h.widen(int8(i), int8(i))
}

// Add records one sample.
func (h *refHistogram) Add(v int64) {
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
func (h *refHistogram) AddN(v int64, n uint64) {
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
func (h *refHistogram) Merge(o *refHistogram) {
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
func (h *refHistogram) MergeScaled(o *refHistogram, k uint64) {
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
func (h *refHistogram) Count() uint64 { return h.sum.N() }

// Mean returns the mean sample value (0 if empty).
func (h *refHistogram) Mean() int64 { return int64(h.sum.Mean()) }

// FMean returns the mean without integer truncation.
func (h *refHistogram) FMean() float64 { return h.sum.Mean() }

// Std returns the population standard deviation of the samples (0 for
// restored summaries, which do not persist variance).
func (h *refHistogram) Std() float64 { return h.sum.Std() }

// Quantile estimates the q-quantile (q in [0, 1]) of the recorded
// samples by locating the log2 bucket containing the target rank and
// interpolating linearly inside it. The estimate is clamped to the
// observed [Min, Max] range, so exact-extreme queries (q = 0 or 1) are
// exact. A histogram rehydrated via Restore has no bucket detail; it
// falls back to the preserved mean.
func (h *refHistogram) Quantile(q float64) int64 {
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

// Clone returns an independent copy.
func (h *refHistogram) Clone() *refHistogram {
	c := *h
	return &c
}

// Reset returns the histogram to its freshly-constructed state so pooled
// trace nodes can reuse the allocation.
func (h *refHistogram) Reset() {
	for i := int(h.lo); i <= int(h.hi); i++ {
		h.Buckets[i] = 0
	}
	h.Min, h.Max, h.sum = math.MaxInt64, math.MinInt64, Welford{}
	h.lo, h.hi = int8(len(h.Buckets)-1), 0
}

// SizeBytes approximates the in-memory footprint of the histogram, used
// by the trace-space ledger (Table IV).
func (h *refHistogram) SizeBytes() int {
	// Fixed arrays plus scalar fields; matches unsafe.Sizeof within noise
	// but keeps the package free of unsafe.
	return 64*8 + 8 + 8 + 24
}

// String renders a compact summary.
func (h *refHistogram) String() string {
	if h.Count() == 0 {
		return "hist{empty}"
	}
	return fmt.Sprintf("hist{n=%d min=%d mean=%d max=%d}", h.Count(), h.Min, h.Mean(), h.Max)
}

// Restore rehydrates a histogram's scalar summary from serialized state
// (variance is not persisted; see the JSON codec note).
func (h *refHistogram) Restore(min, max int64, mean float64, count uint64) {
	h.Min, h.Max = min, max
	h.sum = Welford{n: count, mean: mean}
}

// refHistJSON is the serialized form of a refHistogram. Variance is not
// persisted (the replayer only consumes counts, extrema and the mean),
// so a round-tripped histogram reports Std()==0; this matches
// ScalaTrace's on-disk delta-time summaries.
type refHistJSON struct {
	Min     int64          `json:"min"`
	Max     int64          `json:"max"`
	Mean    float64        `json:"mean"`
	Count   uint64         `json:"count"`
	Buckets map[int]uint64 `json:"buckets,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (h *refHistogram) MarshalJSON() ([]byte, error) {
	j := refHistJSON{Min: h.Min, Max: h.Max, Mean: h.sum.Mean(), Count: h.Count()}
	if h.Count() > 0 {
		j.Buckets = make(map[int]uint64)
		for i, c := range h.Buckets {
			if c > 0 {
				j.Buckets[i] = c
			}
		}
	}
	return json.Marshal(j)
}

// UnmarshalJSON implements json.Unmarshaler.
func (h *refHistogram) UnmarshalJSON(data []byte) error {
	var j refHistJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*h = *refNewHistogram()
	h.Min, h.Max = j.Min, j.Max
	for i, c := range j.Buckets {
		if i >= 0 && i < len(h.Buckets) {
			h.SetBucket(i, c)
		}
	}
	h.sum = Welford{n: j.Count, mean: j.Mean}
	return nil
}

// Histogram operations as bytes, for FuzzHistogramMatchesReference: an
// op byte, then its operands — a slot byte (of histSlots) and integers
// read little-endian, 0 past the end of the input.
const (
	opNew = iota
	opAdd
	opAddN
	opSetBucket
	opMerge
	opMergeScaled
	opReset
	opClone
	opJSON
	opDoc
	numOps
)

const histSlots = 3

type histProg struct{ b []byte }

func (p *histProg) u8(v byte) *histProg { p.b = append(p.b, v); return p }
func (p *histProg) u64(v uint64) *histProg {
	p.b = binary.LittleEndian.AppendUint64(p.b, v)
	return p
}

func (p *histProg) newHist(s byte) *histProg      { return p.u8(opNew).u8(s) }
func (p *histProg) add(s byte, v int64) *histProg { return p.u8(opAdd).u8(s).u64(uint64(v)) }
func (p *histProg) reset(s byte) *histProg        { return p.u8(opReset).u8(s) }
func (p *histProg) clone(d, s byte) *histProg     { return p.u8(opClone).u8(d).u8(s) }
func (p *histProg) jsonTrip(s byte) *histProg     { return p.u8(opJSON).u8(s) }
func (p *histProg) doc(s byte, i int) *histProg   { return p.u8(opDoc).u8(s).u8(byte(i)) }
func (p *histProg) merge(d, s byte) *histProg     { return p.u8(opMerge).u8(d).u8(s) }
func (p *histProg) addN(s byte, v int64, n uint64) *histProg {
	return p.u8(opAddN).u8(s).u64(uint64(v)).u64(n)
}
func (p *histProg) set(s byte, i int, c uint64) *histProg {
	return p.u8(opSetBucket).u8(s).u8(byte(i)).u64(c)
}
func (p *histProg) mergeScaled(d, s byte, k uint64) *histProg {
	return p.u8(opMergeScaled).u8(d).u8(s).u64(k)
}

// spanPrograms build spanCorpus, each into slot 0.
func spanPrograms() [][]byte {
	rng := rand.New(rand.NewSource(21))
	var progs [][]byte
	for i := 0; i < 12; i++ {
		p := new(histProg).newHist(0)
		for n := rng.Intn(6); n > 0; n-- {
			v := rng.Int63() >> uint(rng.Intn(64))
			if rng.Intn(3) == 0 {
				p.addN(0, v, uint64(1+rng.Intn(5)))
			} else {
				p.add(0, v-int64(rng.Intn(2)))
			}
		}
		progs = append(progs, p.b)
	}
	for i := range spanDocs {
		progs = append(progs, new(histProg).doc(0, i).b)
	}
	// Slots start as zero values: the empty program leaves one, and one
	// more is touched without NewHistogram.
	return append(progs, nil, new(histProg).add(0, 1<<20).b)
}

// histSeeds pairs every corpus program with every other as
// TestSpanLimitedFoldsMatchFullWidth does — one in slot 0, one in slot 1,
// fold, fold scaled, clone, reset, round-trip — plus the edges a sparse
// form has to get right: a third bucket, a count of 0 taking a slot or
// emptying one, a bucket count wrapping to 0, a self-merge, and a clone
// of a spilled histogram written after the copy.
func histSeeds() [][]byte {
	progs := spanPrograms()
	var seeds [][]byte
	for _, a := range progs {
		for _, b := range progs {
			p := &histProg{b: append([]byte(nil), a...)}
			p.u8(opClone).u8(1).u8(0) // keep a in slot 1 while b is built into 0
			p.b = append(p.b, b...)
			p.merge(1, 0).mergeScaled(1, 0, 3).clone(2, 1).reset(1).jsonTrip(2)
			seeds = append(seeds, p.b)
		}
	}
	edges := []*histProg{
		new(histProg).newHist(0).add(0, 1).add(0, 1000).add(0, 5).add(0, 1<<40),
		new(histProg).newHist(0).set(0, 9, 0).set(0, 9, 4).set(0, 3, 0).set(0, 9, 0).add(0, 2),
		new(histProg).newHist(0).set(0, 40, 1<<63).set(0, 2, 1).add(0, 1).merge(0, 0).merge(0, 0),
		new(histProg).newHist(0).add(0, 3).add(0, 300).add(0, 30000).clone(1, 0).add(1, 7).reset(0).add(0, 1).set(1, 63, 0),
		new(histProg).newHist(0).add(0, 8).set(0, 1, 2).set(0, 60, 5).mergeScaled(0, 0, 1<<62).jsonTrip(0).reset(0).add(0, 9),
		new(histProg).doc(0, 0).doc(1, 1).merge(1, 0).set(1, 7, 0).set(1, 8, 0).set(1, 63, 0).mergeScaled(2, 1, 5),
	}
	for _, e := range edges {
		seeds = append(seeds, e.b)
	}
	return seeds
}

// runHistProg drives a Histogram and a refHistogram through one program,
// failing at the first step after which they disagree, and returns the
// Histograms it ends with.
func runHistProg(t testing.TB, data []byte) [histSlots]*Histogram {
	var got [histSlots]*Histogram
	var want [histSlots]*refHistogram
	for s := range got {
		got[s], want[s] = &Histogram{}, &refHistogram{}
	}
	off := 0
	u8 := func() byte {
		if off >= len(data) {
			return 0
		}
		off++
		return data[off-1]
	}
	u64 := func() uint64 {
		var b [8]byte
		for i := range b {
			b[i] = u8()
		}
		return binary.LittleEndian.Uint64(b[:])
	}
	slot := func() int { return int(u8() % histSlots) }
	for step := 0; off < len(data); step++ {
		op := u8() % numOps
		var desc string
		switch op {
		case opNew:
			s := slot()
			got[s], want[s] = NewHistogram(), refNewHistogram()
			desc = fmt.Sprintf("[%d] = New", s)
		case opAdd:
			s, v := slot(), int64(u64())
			got[s].Add(v)
			want[s].Add(v)
			desc = fmt.Sprintf("[%d].Add(%d)", s, v)
		case opAddN:
			s, v, n := slot(), int64(u64()), u64()
			got[s].AddN(v, n)
			want[s].AddN(v, n)
			desc = fmt.Sprintf("[%d].AddN(%d, %d)", s, v, n)
		case opSetBucket:
			s, i, c := slot(), int(u8()%64), u64()
			got[s].SetBucket(i, c)
			want[s].SetBucket(i, c)
			desc = fmt.Sprintf("[%d].SetBucket(%d, %d)", s, i, c)
		case opMerge:
			d, s := slot(), slot()
			got[d].Merge(got[s])
			want[d].Merge(want[s])
			desc = fmt.Sprintf("[%d].Merge([%d])", d, s)
		case opMergeScaled:
			d, s, k := slot(), slot(), u64()
			got[d].MergeScaled(got[s], k)
			want[d].MergeScaled(want[s], k)
			desc = fmt.Sprintf("[%d].MergeScaled([%d], %d)", d, s, k)
		case opReset:
			s := slot()
			got[s].Reset()
			want[s].Reset()
			desc = fmt.Sprintf("[%d].Reset", s)
		case opClone:
			d, s := slot(), slot()
			got[d], want[d] = got[s].Clone(), want[s].Clone()
			desc = fmt.Sprintf("[%d] = [%d].Clone", d, s)
		case opJSON:
			s := slot()
			gb, gerr := json.Marshal(got[s])
			wb, werr := json.Marshal(want[s])
			if gerr != nil || werr != nil || !bytes.Equal(gb, wb) {
				t.Fatalf("step %d: [%d] marshals to %s (%v), reference %s (%v)", step, s, gb, gerr, wb, werr)
			}
			got[s], want[s] = new(Histogram), new(refHistogram)
			gerr, werr = json.Unmarshal(gb, got[s]), json.Unmarshal(wb, want[s])
			if gerr != nil || werr != nil {
				t.Fatalf("step %d: [%d] unmarshal: %v, reference %v", step, s, gerr, werr)
			}
			desc = fmt.Sprintf("[%d] = JSON round trip", s)
		case opDoc:
			s, i := slot(), int(u8())%len(spanDocs)
			got[s], want[s] = new(Histogram), new(refHistogram)
			gerr, werr := json.Unmarshal([]byte(spanDocs[i]), got[s]), json.Unmarshal([]byte(spanDocs[i]), want[s])
			if gerr != nil || werr != nil {
				t.Fatalf("step %d: doc %d: %v, reference %v", step, i, gerr, werr)
			}
			desc = fmt.Sprintf("[%d] = doc %d", s, i)
		}
		for s := range got {
			if msg := histDiff(got[s], want[s]); msg != "" {
				t.Fatalf("step %d, after %s: slot %d %s", step, desc, s, msg)
			}
		}
	}
	return got
}

// histDiff reports the first readable difference between h and the
// reference r, or "".
func histDiff(h *Histogram, r *refHistogram) string {
	for i := 0; i < 64; i++ {
		if h.Bucket(i) != r.Buckets[i] {
			return fmt.Sprintf("bucket %d = %d, reference %d", i, h.Bucket(i), r.Buckets[i])
		}
	}
	var each [64]uint64
	last := -1
	h.EachBucket(func(i int, c uint64) bool {
		if i <= last || c == 0 {
			last = 64
		} else {
			last, each[i] = i, c
		}
		return true
	})
	if last == 64 || each != r.Buckets {
		return fmt.Sprintf("EachBucket not the ascending non-empty buckets of %v", r.Buckets)
	}
	fbits := math.Float64bits
	switch {
	case h.Min != r.Min || h.Max != r.Max:
		return fmt.Sprintf("extrema [%d, %d], reference [%d, %d]", h.Min, h.Max, r.Min, r.Max)
	case h.Count() != r.Count():
		return fmt.Sprintf("count %d, reference %d", h.Count(), r.Count())
	case fbits(h.FMean()) != fbits(r.FMean()) || fbits(h.Std()) != fbits(r.Std()):
		return fmt.Sprintf("mean/std %v/%v, reference %v/%v", h.FMean(), h.Std(), r.FMean(), r.Std())
	case h.String() != r.String():
		return fmt.Sprintf("String %s, reference %s", h, r)
	}
	for _, q := range []float64{0, .5, .9, 1} {
		if h.Quantile(q) != r.Quantile(q) {
			return fmt.Sprintf("Quantile(%v) = %d, reference %d", q, h.Quantile(q), r.Quantile(q))
		}
	}
	return ""
}

// FuzzHistogramMatchesReference: through any sequence of operations the
// sparse histogram reads exactly as the array one does.
func FuzzHistogramMatchesReference(f *testing.F) {
	for _, s := range histSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runHistProg(t, data) })
}

// TestHistogramMatchesReferenceSeeds runs the fuzz seeds as a plain test.
func TestHistogramMatchesReferenceSeeds(t *testing.T) {
	for _, s := range histSeeds() {
		runHistProg(t, s)
	}
}
