package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"sync"
	"testing"
	"testing/iotest"

	"chameleon/internal/vtime"
)

// TestRegistryConcurrent hammers one registry from 64 goroutines —
// handle registration, counter/gauge/histogram updates, and snapshots
// all racing — and checks the aggregate totals. Run under -race this is
// the package's memory-safety proof.
func TestRegistryConcurrent(t *testing.T) {
	const (
		workers = 64
		iters   = 1000
	)
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Handles are fetched inside the loop on purpose: lookup
			// races with lookup and with updates.
			for i := 0; i < iters; i++ {
				r.Counter("shared_total").Inc()
				r.Counter("bytes_total").Add(8)
				r.Gauge("level").Set(int64(i))
				r.Gauge("high_water").SetMax(int64(w*iters + i))
				r.Histogram("latency_ns").Observe(int64(i + 1))
				if i%97 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()

	s := r.Snapshot()
	if got := s.Counters["shared_total"]; got != workers*iters {
		t.Fatalf("shared_total = %d, want %d", got, workers*iters)
	}
	if got := s.Counters["bytes_total"]; got != workers*iters*8 {
		t.Fatalf("bytes_total = %d, want %d", got, workers*iters*8)
	}
	if got := s.Gauges["high_water"]; got != workers*iters-1 {
		t.Fatalf("high_water = %d, want %d", got, workers*iters-1)
	}
	h := s.Histograms["latency_ns"]
	if h.Count != workers*iters {
		t.Fatalf("histogram count = %d, want %d", h.Count, workers*iters)
	}
	if h.Min != 1 || h.Max != iters {
		t.Fatalf("histogram bounds = [%d, %d], want [1, %d]", h.Min, h.Max, iters)
	}
	if h.P50 <= 0 || h.P50 > h.P99 || h.P99 > h.Max {
		t.Fatalf("quantiles out of order: %+v", h)
	}
}

// TestJournalConcurrent races 64 emitters into one journal and checks
// every line survives as valid JSON.
func TestJournalConcurrent(t *testing.T) {
	const (
		workers = 64
		iters   = 100
	)
	var buf bytes.Buffer
	var mu sync.Mutex
	j := NewJournal(lockedWriter{&mu, &buf})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				j.Emit(Event{Kind: KindFinalize, Rank: w, VT: int64(i), Count: uint64(i)})
			}
		}(w)
	}
	wg.Wait()
	if err := j.Err(); err != nil {
		t.Fatalf("journal error: %v", err)
	}
	if j.Events() != workers*iters {
		t.Fatalf("events = %d, want %d", j.Events(), workers*iters)
	}
	evs, err := ReadJournal(&buf)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if len(evs) != workers*iters {
		t.Fatalf("read %d events, want %d", len(evs), workers*iters)
	}
}

// TestReadJournalNamesItsLine: a refusal names the line it stopped at,
// a bad line and a failed read alike.
func TestReadJournalNamesItsLine(t *testing.T) {
	good := `{"kind":"finalize","rank":0}` + "\n"
	for _, tc := range []struct {
		r    io.Reader
		want string
	}{
		{strings.NewReader(good + "\n" + "{\n"), "journal line 3: "},
		{io.MultiReader(strings.NewReader(good), iotest.ErrReader(errors.New("disk gone"))), "journal line 2: disk gone"},
	} {
		evs, err := ReadJournal(tc.r)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("err = %v, want it to name %q", err, tc.want)
		}
		if len(evs) != 1 {
			t.Errorf("kept %d events before the refusal, want 1", len(evs))
		}
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// TestTimelineConcurrentPerRank exercises the ownership contract: each
// rank's track is written by its own goroutine only.
func TestTimelineConcurrentPerRank(t *testing.T) {
	const ranks = 64
	tl := NewTimeline(ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				start := vtime.Time(i * 10)
				tl.Add(r, "compute", CatCompute, start, start+5)
			}
		}(r)
	}
	wg.Wait()
	if got := tl.SpanCount(); got != ranks*100 {
		t.Fatalf("spans = %d, want %d", got, ranks*100)
	}
	var buf bytes.Buffer
	if err := tl.WriteChromeTraceFlows(&buf, nil); err != nil {
		t.Fatalf("write: %v", err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph  string `json:"ph"`
			Tid int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	spans := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			spans++
		}
	}
	if spans != ranks*100 {
		t.Fatalf("trace spans = %d, want %d", spans, ranks*100)
	}
}

// TestNilSafety: a nil Observer and nil handles must absorb every call.
func TestNilSafety(t *testing.T) {
	var o *Observer
	if o.Enabled() {
		t.Fatal("nil observer reports enabled")
	}
	o.Counter("x").Add(1)
	o.Gauge("x").Set(1)
	o.Gauge("x").SetMax(2)
	o.Histogram("x").Observe(1)
	o.Emit(Event{Kind: KindVote})
	o.Span(0, "x", CatCompute, 0, 1)
	if o.Counter("x").Value() != 0 || o.Gauge("x").Value() != 0 || o.Histogram("x").Count() != 0 {
		t.Fatal("nil handles returned nonzero values")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Fatal("nil registry returned live handles")
	}
	var j *Journal
	j.Emit(Event{})
	if j.Events() != 0 || j.Err() != nil {
		t.Fatal("nil journal misbehaved")
	}
	var tl *Timeline
	tl.Add(0, "x", CatCompute, 0, 1)
	if tl.SpanCount() != 0 || tl.Dropped() != 0 {
		t.Fatal("nil timeline misbehaved")
	}
}

// TestNewDisabled: all-off options collapse to the nil Observer.
func TestNewDisabled(t *testing.T) {
	if o := New(Options{}); o != nil {
		t.Fatalf("New(Options{}) = %v, want nil", o)
	}
	if o := New(Options{Metrics: true}); o == nil || o.Reg == nil {
		t.Fatal("metrics-only observer missing registry")
	}
}

// TestTimelineDrop: spans beyond the per-rank cap are counted, not kept.
func TestTimelineDrop(t *testing.T) {
	tl := NewTimeline(1)
	for i := 0; i < defaultSpanCap+10; i++ {
		start := vtime.Time(i)
		tl.Add(0, "s", CatCompute, start, start+1)
	}
	if tl.SpanCount() != defaultSpanCap {
		t.Fatalf("spans = %d, want %d", tl.SpanCount(), defaultSpanCap)
	}
	if tl.Dropped() != 10 {
		t.Fatalf("dropped = %d, want 10", tl.Dropped())
	}
}

// TestSnapshotWriteText checks the flat rendering used by chamrun
// -metrics.
func TestSnapshotWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Add(3)
	r.Gauge("b").Set(-2)
	r.Histogram("c_ns").Observe(100)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteText(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"a_total 3\n", "b -2\n", "c_ns_count 1\n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text snapshot missing %q:\n%s", want, out)
		}
	}
}
