package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"chameleon/internal/stats"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; a nil *Counter (metrics disabled) ignores updates.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic value. A nil *Gauge ignores updates.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by d.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// SetMax raises the gauge to v if v is larger.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a lock-free log2-bucketed histogram over int64 samples
// (virtual nanoseconds in practice). It mirrors stats.Histogram's
// bucketing so snapshots can reuse its quantile interpolation, but every
// field is atomic: Observe is a handful of uncontended atomic adds, safe
// from any goroutine. A nil *Histogram ignores observations.
type Histogram struct {
	buckets [64]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64
	min     atomic.Int64
	max     atomic.Int64
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.buckets[stats.BucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the number of samples recorded so far.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Stats materializes the histogram into a stats.Histogram snapshot
// (quantiles, mean, bounds). Concurrent Observe calls may land between
// field loads; the snapshot is internally consistent enough for
// reporting, which is all it serves.
func (h *Histogram) Stats() *stats.Histogram {
	out := stats.NewHistogram()
	if h == nil {
		return out
	}
	var n uint64
	var sum int64
	for i := range h.buckets {
		c := h.buckets[i].Load()
		out.SetBucket(i, c)
		n += c
	}
	sum = h.sum.Load()
	mean := 0.0
	if n > 0 {
		mean = float64(sum) / float64(n)
	}
	min, max := h.min.Load(), h.max.Load()
	if n == 0 {
		min, max = math.MaxInt64, math.MinInt64
	}
	out.Restore(min, max, mean, n)
	return out
}

// Registry is a name-keyed collection of metric handles. Handle lookup
// takes a mutex (call sites fetch handles once, at setup); updates on
// the returned handles are lock-free. A nil *Registry returns nil
// handles, whose update methods are no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns (registering on first use) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (registering on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (registering on first use) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram()
		r.hists[name] = h
	}
	return h
}

// HistogramSnapshot is the reported state of one histogram.
type HistogramSnapshot struct {
	Count uint64 `json:"count"`
	Min   int64  `json:"min"`
	Max   int64  `json:"max"`
	Mean  int64  `json:"mean"`
	P50   int64  `json:"p50"`
	P90   int64  `json:"p90"`
	P99   int64  `json:"p99"`
}

// Snapshot is a point-in-time copy of every registered metric.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the registry's current state. It is safe to call
// concurrently with updates.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	for k, v := range counters {
		s.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Value()
	}
	for k, v := range hists {
		hs := v.Stats()
		snap := HistogramSnapshot{Count: hs.Count()}
		if snap.Count > 0 {
			snap.Min, snap.Max, snap.Mean = hs.Min, hs.Max, hs.Mean()
			snap.P50 = hs.Quantile(0.50)
			snap.P90 = hs.Quantile(0.90)
			snap.P99 = hs.Quantile(0.99)
		}
		s.Histograms[k] = snap
	}
	return s
}

// WriteJSON renders the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteText renders the snapshot as sorted "name value" lines, one
// metric per line (histograms expand to count/mean/p50/p99).
func (s Snapshot) WriteText(w io.Writer) error {
	var lines []string
	for k, v := range s.Counters {
		lines = append(lines, fmt.Sprintf("%s %d", k, v))
	}
	for k, v := range s.Gauges {
		lines = append(lines, fmt.Sprintf("%s %d", k, v))
	}
	for k, h := range s.Histograms {
		lines = append(lines,
			fmt.Sprintf("%s_count %d", k, h.Count),
			fmt.Sprintf("%s_mean %d", k, h.Mean),
			fmt.Sprintf("%s_p50 %d", k, h.P50),
			fmt.Sprintf("%s_p99 %d", k, h.P99))
	}
	sort.Strings(lines)
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	return nil
}
