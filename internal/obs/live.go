package obs

// Live telemetry: the delta shipper that turns a running Observer into
// a stream a chamd daemon can watch. A Shipper goroutine wakes on a
// wall-clock interval, snapshots the metrics registry, drains the
// journal ring tail, and copies the per-rank Progress board into one
// sequence-numbered Delta; deltas batch into a single POST to the
// daemon's live-session endpoint, with bounded buffering, retry, and
// exponential backoff when the daemon is slow or away. The simulated
// run never blocks on the network: every hot-path cost is an atomic
// update into Progress, and shipping happens entirely off to the side.

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"chameleon/internal/clock"
	"chameleon/internal/httpx"
)

// Delta is one shipped telemetry increment. Seq starts at 1 and
// increases by 1 per delta built; the server applies deltas
// idempotently by sequence number, so retried batches are harmless.
type Delta struct {
	Session   string `json:"session"`
	Benchmark string `json:"benchmark,omitempty"`
	P         int    `json:"p"`
	// Part distinguishes independent shippers feeding one session — the
	// fleet case, where every rank process ships its own deltas with
	// its own sequence numbers. Empty for single-process runs; the
	// server dedups sequence numbers per part.
	Part string `json:"part,omitempty"`
	Seq  uint64 `json:"seq"`
	// SentUnixMs is the sender's wall clock at build time.
	SentUnixMs int64 `json:"sent_unix_ms"`
	// Final marks the run's last delta (sent by Stop).
	Final bool `json:"final,omitempty"`
	// Metrics is the full registry snapshot, pre-marshaled (nil when
	// metrics are disabled or thinned off this delta). Snapshots are
	// cumulative; the server keeps the latest and never looks inside,
	// so shipping raw JSON spares it a typed decode per delta.
	Metrics json.RawMessage `json:"metrics,omitempty"`
	// Events is the journal tail since the previous delta.
	Events []Event `json:"events,omitempty"`
	// EventsDropped counts journal events evicted from the ring before
	// this delta could ship them.
	EventsDropped uint64 `json:"events_dropped,omitempty"`
	// Ranks is the per-rank progress board.
	Ranks []RankProgress `json:"ranks,omitempty"`
}

// Ack is the server's response to a delta batch.
type Ack struct {
	AckSeq uint64 `json:"ack_seq"`
}

const (
	shipTimeout  = 5 * time.Second // one POST
	finalRetries = 3               // Stop's retries of the final flush
	// maxPending caps the unshipped delta buffer; when the daemon is
	// unreachable the oldest deltas are dropped (and counted) beyond it.
	maxPending = 64
	// metricsEvery thins the metrics payload: the full registry
	// snapshot (the bulk of a delta's bytes, and of the server's decode
	// time) rides only on every Nth delta, plus always the first and
	// final ones. Events and rank progress ship on every delta.
	metricsEvery = 4
	// maxEventsPerDelta bounds the journal tail one delta carries; a
	// chatty run keeps only its newest events per tick (the excess is
	// counted in EventsDropped, same as ring eviction). The server caps
	// its per-session event log anyway, so shipping an unbounded tail
	// buys nothing.
	maxEventsPerDelta = 64
)

// ShipperOptions configures a live telemetry shipper.
type ShipperOptions struct {
	// URL is the chamd base URL (e.g. "http://host:8321").
	URL string
	// Session identifies the run; a random ID is generated when empty.
	Session string
	// Part labels this shipper within the session (fleet member index);
	// empty for single-process runs.
	Part string
	// Ranks limits the shipped progress board to these world ranks (a
	// fleet member only speaks for the ranks it hosts); nil ships all.
	Ranks []int
	// Benchmark and P label the session on the server.
	Benchmark string
	P         int
	// Interval is the snapshot/ship period (default 250ms).
	Interval time.Duration
	// Client overrides the HTTP client (tests). The default rides the
	// process's one transport (httpx.Transport).
	Client *http.Client
}

// Shipper streams an Observer's state to a chamd live session.
type Shipper struct {
	o    *Observer
	opts ShipperOptions
	url  string
	clk  clock.Clock // the ship period, send stamps, backoff and Stop's retry wait

	cancel context.CancelFunc // stops the loop Start launched
	done   chan struct{}      // closed when that loop has returned

	// loop-goroutine state (no locking needed).
	seq       uint64
	eventNext uint64
	pending   []Delta
	backoff   time.Duration
	nextTry   time.Time

	mu       sync.Mutex
	shipped  uint64 // deltas acknowledged by the server
	posts    uint64 // successful POSTs
	bytesOut int64  // JSON bytes successfully POSTed
	errors   uint64 // failed POSTs
	dropped  uint64 // deltas evicted from the pending buffer
	lastErr  error
}

// NewShipper builds a shipper for the observer (which may be nil: the
// shipper then streams heartbeat-only deltas with no metrics, events,
// or progress — still enough for the server to track the session).
func NewShipper(o *Observer, opts ShipperOptions) (*Shipper, error) {
	if opts.URL == "" {
		return nil, fmt.Errorf("obs: shipper needs a URL")
	}
	if opts.Interval <= 0 {
		opts.Interval = 250 * time.Millisecond
	}
	if opts.Client == nil {
		opts.Client = httpx.Client(shipTimeout)
	}
	if opts.Session == "" {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			return nil, fmt.Errorf("obs: session id: %w", err)
		}
		opts.Session = hex.EncodeToString(b[:])
	}
	if err := ValidateSessionID(opts.Session); err != nil {
		return nil, err
	}
	base := strings.TrimSuffix(opts.URL, "/")
	return &Shipper{
		o:    o,
		opts: opts,
		url:  base + "/live/sessions/" + opts.Session + "/deltas",
		clk:  clock.Real{},
		done: make(chan struct{}),
	}, nil
}

// ValidateSessionID enforces the session ID charset shared by shipper
// and server: 1-64 characters of [A-Za-z0-9._-].
func ValidateSessionID(id string) error {
	if len(id) == 0 || len(id) > 64 {
		return fmt.Errorf("obs: session id must be 1-64 chars, got %d", len(id))
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("obs: session id contains %q (allowed: [A-Za-z0-9._-])", c)
		}
	}
	return nil
}

// Session returns the (possibly generated) session ID.
func (s *Shipper) Session() string { return s.opts.Session }

// Start launches the shipping goroutine. It ships one delta
// immediately so the session exists on the server before the first
// interval elapses.
func (s *Shipper) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	go func() {
		defer close(s.done)
		s.tick(false)
		clock.Every(ctx, s.clk, s.opts.Interval, func() { s.tick(false) })
	}()
}

// Stop flushes the final delta (retrying a few times) and shuts the
// shipper down. It returns the last transport error if the final
// delta never landed.
func (s *Shipper) Stop() error {
	s.cancel()
	<-s.done
	s.tick(true)
	for i := 0; i < finalRetries && len(s.pending) > 0; i++ {
		wait, _ := s.clk.After(s.opts.Interval)
		<-wait
		s.nextTry = time.Time{} // final flush overrides backoff
		s.send()
	}
	if len(s.pending) > 0 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return fmt.Errorf("obs: %d live deltas unshipped: %w", len(s.pending), s.lastErr)
	}
	return nil
}

// tick builds one delta, enqueues it, and attempts a send.
func (s *Shipper) tick(final bool) {
	s.enqueue(s.build(final))
	s.send()
}

// build snapshots the observer into the next sequence-numbered delta.
func (s *Shipper) build(final bool) Delta {
	s.seq++
	d := Delta{
		Session:    s.opts.Session,
		Benchmark:  s.opts.Benchmark,
		P:          s.opts.P,
		Part:       s.opts.Part,
		Seq:        s.seq,
		SentUnixMs: s.clk.Now().UnixMilli(),
		Final:      final,
	}
	if s.o != nil {
		// Metrics snapshots are cumulative and dominate the delta's size,
		// so thin them to every Nth delta; the first establishes the
		// session's metrics and the final one is always exact.
		if s.o.Reg != nil && (final || s.seq == 1 || (s.seq-1)%metricsEvery == 0) {
			if b, err := json.Marshal(s.o.Reg.Snapshot()); err == nil {
				d.Metrics = b
			}
		}
		d.Events, s.eventNext, d.EventsDropped = s.o.Journal.Tail(s.eventNext)
		if over := len(d.Events) - maxEventsPerDelta; over > 0 {
			d.Events = d.Events[over:]
			d.EventsDropped += uint64(over)
		}
		d.Ranks = s.o.Progress.Snapshot()
		if s.opts.Ranks != nil {
			// A fleet member only speaks for the ranks it hosts: its
			// board rows for remote ranks are empty and would clobber
			// the other members' progress on the server.
			keep := d.Ranks[:0]
			for _, rp := range d.Ranks {
				for _, r := range s.opts.Ranks {
					if rp.Rank == r {
						keep = append(keep, rp)
						break
					}
				}
			}
			d.Ranks = keep
		}
		if d.P == 0 {
			d.P = s.o.Progress.Ranks()
		}
	}
	return d
}

// enqueue appends to the bounded pending buffer, evicting the oldest
// deltas when the daemon has been away too long.
func (s *Shipper) enqueue(d Delta) {
	if over := len(s.pending) + 1 - maxPending; over > 0 {
		s.pending = append(s.pending[:0], s.pending[over:]...)
		s.mu.Lock()
		s.dropped += uint64(over)
		s.mu.Unlock()
	}
	s.pending = append(s.pending, d)
}

// send POSTs the whole pending batch, honoring the backoff window.
func (s *Shipper) send() {
	if len(s.pending) == 0 || s.clk.Now().Before(s.nextTry) {
		return
	}
	body, err := json.Marshal(s.pending)
	if err != nil {
		s.fail(err)
		return
	}
	req, err := httpx.NewRequest(http.MethodPost, s.url, body, nil)
	if err != nil {
		s.fail(err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.opts.Client.Do(req)
	if err != nil {
		s.fail(err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		s.fail(fmt.Errorf("POST %s: %s: %s", s.url, resp.Status, strings.TrimSpace(string(msg))))
		return
	}
	var ack Ack
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		s.fail(fmt.Errorf("POST %s: decode ack: %w", s.url, err))
		return
	}
	// Drain the encoder's trailing newline so the keep-alive connection
	// is reusable; otherwise every POST dials a fresh one.
	io.Copy(io.Discard, resp.Body)
	n := uint64(len(s.pending))
	s.pending = s.pending[:0]
	s.backoff = 0
	s.nextTry = time.Time{}
	s.mu.Lock()
	s.shipped += n
	s.posts++
	s.bytesOut += int64(len(body))
	s.lastErr = nil
	s.mu.Unlock()
}

// fail records a transport error and arms exponential backoff
// (100ms..5s) so a dead daemon costs one connection attempt per window,
// not one per tick.
func (s *Shipper) fail(err error) {
	if s.backoff == 0 {
		s.backoff = 100 * time.Millisecond
	} else if s.backoff *= 2; s.backoff > 5*time.Second {
		s.backoff = 5 * time.Second
	}
	s.nextTry = s.clk.Now().Add(s.backoff)
	s.mu.Lock()
	s.errors++
	s.lastErr = err
	s.mu.Unlock()
}

// Stats reports the shipper's transport totals.
type ShipperStats struct {
	Session  string `json:"session"`
	Deltas   uint64 `json:"deltas"`
	Posts    uint64 `json:"posts"`
	BytesOut int64  `json:"bytes_out"`
	Errors   uint64 `json:"errors"`
	Dropped  uint64 `json:"dropped"`
}

// Stats snapshots the shipper's counters.
func (s *Shipper) Stats() ShipperStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ShipperStats{
		Session:  s.opts.Session,
		Deltas:   s.shipped,
		Posts:    s.posts,
		BytesOut: s.bytesOut,
		Errors:   s.errors,
		Dropped:  s.dropped,
	}
}
