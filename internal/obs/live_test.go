package obs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chameleon/internal/clock"
)

// TestJournalRingTail checks the shipper-facing tail contract: absolute
// indexing, eviction accounting, and cursor advancement.
func TestJournalRingTail(t *testing.T) {
	j := NewJournalRing(nil, 8)
	for i := 0; i < 4; i++ {
		j.Emit(Event{Kind: KindFinalize, Rank: i})
	}
	evs, next, dropped := j.Tail(0)
	if len(evs) != 4 || next != 4 || dropped != 0 {
		t.Fatalf("tail(0) = %d events, next %d, dropped %d", len(evs), next, dropped)
	}
	if evs[0].Rank != 0 || evs[3].Rank != 3 {
		t.Fatalf("tail order wrong: %+v", evs)
	}
	// No new events: empty tail, cursor stays put.
	evs, next, dropped = j.Tail(next)
	if len(evs) != 0 || next != 4 || dropped != 0 {
		t.Fatalf("idle tail = %d events, next %d, dropped %d", len(evs), next, dropped)
	}
	// Overflow the ring: capacity 8 evicts the oldest half on the 9th
	// emit, so events 0..3 (already consumed) plus some unconsumed ones
	// are gone.
	for i := 4; i < 20; i++ {
		j.Emit(Event{Kind: KindFinalize, Rank: i})
	}
	evs, next2, dropped := j.Tail(next)
	if next2 != 20 {
		t.Fatalf("next = %d, want 20", next2)
	}
	if dropped == 0 {
		t.Fatal("expected dropped events after ring overflow")
	}
	if uint64(len(evs))+dropped != 20-next {
		t.Fatalf("events (%d) + dropped (%d) != requested range (%d)", len(evs), dropped, 20-next)
	}
	// Returned events are the most recent, contiguous with the end.
	if evs[len(evs)-1].Rank != 19 {
		t.Fatalf("last tailed rank = %d, want 19", evs[len(evs)-1].Rank)
	}
	// The JSONL writer still sees everything when attached.
	var buf bytes.Buffer
	jw := NewJournalRing(&buf, 4)
	for i := 0; i < 10; i++ {
		jw.Emit(Event{Kind: KindFinalize, Rank: i})
	}
	all, err := ReadJournal(&buf)
	if err != nil || len(all) != 10 {
		t.Fatalf("writer side kept %d events (err %v), want 10", len(all), err)
	}
	if jw.Events() != 10 {
		t.Fatalf("Events() = %d, want 10", jw.Events())
	}
}

// TestProgressBoard exercises the per-rank slots and snapshot.
func TestProgressBoard(t *testing.T) {
	p := NewProgress(4)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for w := uint64(1); w <= 10; w++ {
				p.Window(r, w, int64(w)*100*int64(r+1))
				p.AddCompute(r, int64(r+1)*50)
				p.Op(r)
			}
		}(r)
	}
	wg.Wait()
	p.Depart(3)
	snap := p.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot len = %d, want 4", len(snap))
	}
	for r, rp := range snap {
		if rp.Rank != r || rp.Windows != 10 || rp.Ops != 10 {
			t.Fatalf("rank %d snapshot wrong: %+v", r, rp)
		}
		if rp.ComputeVT != int64(r+1)*500 {
			t.Fatalf("rank %d computeVT = %d, want %d", r, rp.ComputeVT, (r+1)*500)
		}
	}
	if !snap[3].Departed || snap[0].Departed {
		t.Fatalf("departed flags wrong: %+v", snap)
	}
	// Out-of-range and nil are absorbed.
	p.Window(99, 1, 1)
	p.Op(-1)
	var nilP *Progress
	nilP.Window(0, 1, 1)
	nilP.AddCompute(0, 1)
	nilP.Op(0)
	nilP.Depart(0)
	if nilP.Ranks() != 0 || nilP.Snapshot() != nil {
		t.Fatal("nil progress misbehaved")
	}
}

// TestWritePrometheus checks the exposition format: type lines, sorted
// families, summary quantiles.
func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total").Add(3)
	r.Counter("aa_total").Inc()
	r.Gauge("level").Set(-2)
	for i := 1; i <= 100; i++ {
		r.Histogram("lat_ns").Observe(int64(i))
	}
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE aa_total counter\naa_total 1\n",
		"# TYPE zz_total counter\nzz_total 3\n",
		"# TYPE level gauge\nlevel -2\n",
		"# TYPE lat_ns summary\n",
		"lat_ns{quantile=\"0.5\"} ",
		"lat_ns{quantile=\"0.99\"} ",
		"lat_ns_count 100\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Index(out, "aa_total") > strings.Index(out, "zz_total") {
		t.Fatalf("families not sorted:\n%s", out)
	}
}

// A labelled family (the mesh's per-peer counters) gets one TYPE line
// over all its samples, even where another family's name sorts between
// its bare and its labelled names.
func TestWritePrometheusLabelledFamily(t *testing.T) {
	r := NewRegistry()
	r.Counter(`peer_requests{peer="http://b"}`).Add(2)
	r.Counter(`peer_requests{peer="http://a"}`).Inc()
	r.Counter("peer_requests_total").Add(5)
	r.Counter("peer_requests").Add(3)
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE peer_requests counter\n" +
		"peer_requests 3\n" +
		"peer_requests{peer=\"http://a\"} 1\n" +
		"peer_requests{peer=\"http://b\"} 2\n" +
		"# TYPE peer_requests_total counter\n" +
		"peer_requests_total 5\n"
	if got := buf.String(); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

// liveSink is a minimal in-test chamd: it accepts delta batches and
// remembers what it saw.
type liveSink struct {
	mu      sync.Mutex
	posted  sync.Cond // signalled on every request
	reqs    int
	deltas  []Delta
	maxSeen uint64
	fail    atomic.Bool // reject requests while set
}

func newLiveSink() *liveSink {
	ls := &liveSink{}
	ls.posted.L = &ls.mu
	return ls
}

func (ls *liveSink) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ls.mu.Lock()
		ls.reqs++
		ls.posted.Broadcast()
		ls.mu.Unlock()
		if ls.fail.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		var batch []Delta
		if err := json.NewDecoder(r.Body).Decode(&batch); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		ls.mu.Lock()
		for _, d := range batch {
			if d.Seq > ls.maxSeen {
				ls.maxSeen = d.Seq
				ls.deltas = append(ls.deltas, d)
			}
		}
		max := ls.maxSeen
		ls.mu.Unlock()
		json.NewEncoder(w).Encode(Ack{AckSeq: max})
	})
}

func (ls *liveSink) snapshot() []Delta {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return append([]Delta(nil), ls.deltas...)
}

func (ls *liveSink) requests() int {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.reqs
}

// waitRequests returns once the sink has seen at least n requests.
func (ls *liveSink) waitRequests(n int) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	for ls.reqs < n {
		ls.posted.Wait()
	}
}

// newFakeShipper builds a shipper on a clock.Fake. Once started, its
// loop has shipped a tick when clk.BlockUntil(1) returns: the loop arms
// its next wait only after the tick.
func newFakeShipper(t *testing.T, o *Observer, opts ShipperOptions) (*Shipper, *clock.Fake) {
	t.Helper()
	sh, err := NewShipper(o, opts)
	if err != nil {
		t.Fatalf("NewShipper: %v", err)
	}
	clk := clock.NewFake(time.Unix(1_700_000_000, 0))
	sh.clk = clk
	return sh, clk
}

// step advances the shipper's clock by d and waits for the tick that
// fires to finish.
func step(clk *clock.Fake, d time.Duration) {
	clk.Advance(d)
	clk.BlockUntil(1)
}

// TestShipperHappyPath runs a shipper against an httptest sink and
// checks sequencing, payload contents, and the final flush.
func TestShipperHappyPath(t *testing.T) {
	sink := newLiveSink()
	srv := httptest.NewServer(sink.handler())
	defer srv.Close()

	o := New(Options{Metrics: true, JournalRing: 64, ProgressRanks: 2})
	o.Counter("widgets_total").Add(7)
	o.Emit(Event{Kind: KindFinalize, Rank: 0})
	o.Progress.Window(0, 3, 1000)
	o.Progress.Window(1, 3, 4000)
	o.Progress.Op(0)

	const interval = 5 * time.Millisecond
	sh, clk := newFakeShipper(t, o, ShipperOptions{
		URL:       srv.URL,
		Benchmark: "TEST",
		P:         2,
		Interval:  interval,
	})
	if sh.Session() == "" {
		t.Fatal("no session id generated")
	}
	sh.Start()
	clk.BlockUntil(1)
	step(clk, interval)
	o.Counter("widgets_total").Add(1)
	o.Emit(Event{Kind: KindFinalize, Rank: 1})
	if err := sh.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}

	got := sink.snapshot()
	if len(got) != 3 {
		t.Fatalf("sink saw %d deltas, want the first, one tick's and the final", len(got))
	}
	for i, d := range got {
		if d.Seq != uint64(i+1) {
			t.Fatalf("delta %d has seq %d (gap or reorder)", i, d.Seq)
		}
		if d.Session != sh.Session() || d.Benchmark != "TEST" || d.P != 2 {
			t.Fatalf("delta header wrong: %+v", d)
		}
	}
	if got[0].SentUnixMs != 1_700_000_000_000 || got[1].SentUnixMs != 1_700_000_000_005 {
		t.Fatalf("send stamps %d, %d do not read the shipper's clock", got[0].SentUnixMs, got[1].SentUnixMs)
	}
	last := got[len(got)-1]
	if !last.Final {
		t.Fatalf("last delta not final: %+v", last)
	}
	var finalSnap Snapshot
	if err := json.Unmarshal(last.Metrics, &finalSnap); err != nil || finalSnap.Counters["widgets_total"] != 8 {
		t.Fatalf("final metrics wrong (err %v): %s", err, last.Metrics)
	}
	if len(last.Ranks) != 2 || last.Ranks[1].Windows != 3 {
		t.Fatalf("final ranks wrong: %+v", last.Ranks)
	}
	// Journal events arrive exactly once across the stream.
	events := 0
	for _, d := range got {
		events += len(d.Events)
	}
	if events != 2 {
		t.Fatalf("journal events shipped %d times, want 2", events)
	}
	st := sh.Stats()
	if st.Deltas != uint64(len(got)) || st.Errors != 0 || st.Dropped != 0 {
		t.Fatalf("stats wrong: %+v", st)
	}
}

// TestShipperRetry makes the sink fail for a while and checks the
// shipper buffers, backs off, and delivers everything once the sink
// recovers — without duplicating sequence numbers.
func TestShipperRetry(t *testing.T) {
	sink := newLiveSink()
	sink.fail.Store(true)
	srv := httptest.NewServer(sink.handler())
	defer srv.Close()

	o := New(Options{Metrics: true, ProgressRanks: 1})
	sh, clk := newFakeShipper(t, o, ShipperOptions{URL: srv.URL, Interval: 2 * time.Millisecond})
	sh.Start()
	clk.BlockUntil(1)
	if st := sh.Stats(); st.Errors != 1 {
		t.Fatalf("want one transport error while the sink is down, got %+v", st)
	}
	sink.fail.Store(false)
	step(clk, 100*time.Millisecond) // the first backoff window
	if err := sh.Stop(); err != nil {
		t.Fatalf("Stop after recovery: %v", err)
	}
	got := sink.snapshot()
	if len(got) != 3 {
		t.Fatalf("sink saw %d deltas after recovery, want 3", len(got))
	}
	for i, d := range got {
		if d.Seq != uint64(i+1) {
			t.Fatalf("delta %d has seq %d", i, d.Seq)
		}
	}
	if !got[len(got)-1].Final {
		t.Fatal("final delta missing after recovery")
	}
}

// TestShipperDropOldest bounds the pending buffer.
func TestShipperDropOldest(t *testing.T) {
	sink := newLiveSink()
	sink.fail.Store(true)
	srv := httptest.NewServer(sink.handler())
	defer srv.Close()

	o := New(Options{ProgressRanks: 1})
	sh, clk := newFakeShipper(t, o, ShipperOptions{URL: srv.URL, Interval: time.Millisecond})
	sh.Start()
	clk.BlockUntil(1)
	// Every tick enqueues one delta whether or not the POST is backing
	// off, so the 65th pushes the oldest out of the buffer.
	for i := 0; i < maxPending; i++ {
		step(clk, time.Millisecond)
	}
	if st := sh.Stats(); st.Dropped != 1 {
		t.Fatalf("%d deltas dropped after %d ticks with the daemon away, want 1", st.Dropped, maxPending+1)
	}
	sink.fail.Store(false)
	step(clk, 5*time.Second) // past any backoff
	if err := sh.Stop(); err != nil {
		t.Fatalf("Stop after recovery: %v", err)
	}
	got, st := sink.snapshot(), sh.Stats()
	if len(got) != maxPending+1 || got[0].Seq != st.Dropped+1 {
		t.Fatalf("sink holds %d deltas from seq %d with %d dropped; want the newest %d and the final",
			len(got), got[0].Seq, st.Dropped, maxPending)
	}
}

// TestShipperBackoff pins the retry schedule against a daemon that is
// down: POSTs 100ms apart, doubling, capped at 5s; a success resets it;
// Stop's final flush retries each interval whatever it says.
func TestShipperBackoff(t *testing.T) {
	const interval = 10 * time.Millisecond
	sink := newLiveSink()
	sink.fail.Store(true)
	srv := httptest.NewServer(sink.handler())
	defer srv.Close()
	sh, clk := newFakeShipper(t, nil, ShipperOptions{URL: srv.URL, Interval: interval})
	sh.Start() // its first tick POSTs at once
	clk.BlockUntil(1)

	// next checks that the POST after the last comes exactly gap later:
	// not at the tick an interval before, and at the tick on time.
	next := func(gap time.Duration) {
		t.Helper()
		n := sink.requests()
		step(clk, gap-interval)
		if sink.requests() != n {
			t.Fatalf("POST %v after the last, want %v", gap-interval, gap)
		}
		step(clk, interval)
		if sink.requests() != n+1 {
			t.Fatalf("no POST %v after the last", gap)
		}
	}
	for _, gap := range []time.Duration{100, 200, 400, 800, 1600, 3200, 5000, 5000} {
		next(gap * time.Millisecond)
	}
	sink.fail.Store(false)
	next(5 * time.Second) // delivered
	sink.fail.Store(true)
	next(interval) // the tick after a success POSTs at once...
	next(100 * time.Millisecond)
	sink.fail.Store(false)
	next(200 * time.Millisecond) // ...and a failure backs off from 100ms again

	// Stop's final flush: the final delta fails, and each retry comes one
	// interval after the last although the backoff asks for 100ms+.
	sink.fail.Store(true)
	n := sink.requests()
	stopped := make(chan error, 1)
	go func() { stopped <- sh.Stop() }()
	sink.waitRequests(n + 1) // the final delta: the loop has returned
	for i := 1; i <= finalRetries; i++ {
		clk.BlockUntil(1)
		clk.Advance(interval)
		sink.waitRequests(n + 1 + i)
	}
	if err := <-stopped; err == nil {
		t.Fatal("Stop reported the undelivered final delta as shipped")
	}
	if got := sink.requests(); got != n+1+finalRetries {
		t.Fatalf("Stop made %d POSTs, want the final and %d retries", got-n, finalRetries)
	}
}

// TestValidateSessionID pins the shared charset.
func TestValidateSessionID(t *testing.T) {
	for _, ok := range []string{"a", "run-1", "A.b_c-9", strings.Repeat("x", 64)} {
		if err := ValidateSessionID(ok); err != nil {
			t.Fatalf("ValidateSessionID(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []string{"", "a/b", "a b", "セ", strings.Repeat("x", 65)} {
		if err := ValidateSessionID(bad); err == nil {
			t.Fatalf("ValidateSessionID(%q) accepted", bad)
		}
	}
}

// BenchmarkNilObserver proves the PR-1 wart fix: every Observer entry
// point on a nil receiver costs a pointer test and nothing else — zero
// allocations, sub-nanosecond-scale per call.
func BenchmarkNilObserver(b *testing.B) {
	var o *Observer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Counter("x").Inc()
		o.Gauge("x").Set(1)
		o.Histogram("x").Observe(1)
		o.Span(0, "s", CatCompute, 0, 1)
		o.Window(0, 1, 1)
		o.ProgressBoard().Op(0)
		o.Emit(Event{})
	}
}

// BenchmarkNilProgress isolates the progress hooks (the new hot-path
// sites in mpi/core).
func BenchmarkNilProgress(b *testing.B) {
	var p *Progress
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Op(0)
		p.AddCompute(0, 10)
		p.Window(0, 1, 1)
	}
}
