package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"chameleon/internal/clock"
	"chameleon/internal/obs"
)

// newFakeLive builds a tracker on a clock.Fake.
func newFakeLive(opts LiveOptions) (*Live, *clock.Fake) {
	l := NewLive(opts)
	clk := clock.NewFake(time.Unix(1700000000, 0))
	l.clk = clk
	return l, clk
}

func ranksDelta(seq uint64, ranks ...obs.RankProgress) obs.Delta {
	return obs.Delta{Seq: seq, P: len(ranks), Ranks: ranks}
}

// TestLiveSlowFlag: a rank with >2x the median cumulative compute is
// flagged slow and produces one straggler event.
func TestLiveSlowFlag(t *testing.T) {
	l, _ := newFakeLive(LiveOptions{})
	d := ranksDelta(1,
		obs.RankProgress{Rank: 0, Windows: 5, ComputeVT: 100, Ops: 50},
		obs.RankProgress{Rank: 1, Windows: 5, ComputeVT: 110, Ops: 50},
		obs.RankProgress{Rank: 2, Windows: 5, ComputeVT: 105, Ops: 50},
		obs.RankProgress{Rank: 3, Windows: 5, ComputeVT: 420, Ops: 50},
	)
	if _, err := l.Apply(DefaultTenant, "s1", []obs.Delta{d}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	v, err := l.View(DefaultTenant, "s1", false)
	if err != nil {
		t.Fatalf("View: %v", err)
	}
	if len(v.Stragglers) != 1 || v.Stragglers[0] != 3 {
		t.Fatalf("stragglers = %v, want [3]", v.Stragglers)
	}
	if !hasFlag(v.Ranks[3].Flags, FlagSlow) {
		t.Fatalf("rank 3 flags = %v, want slow", v.Ranks[3].Flags)
	}
	if n := countEvents(v.LiveEvents, LiveEventStraggler, FlagSlow); n != 1 {
		t.Fatalf("straggler(slow) events = %d, want 1", n)
	}
	// Re-reads don't duplicate the sticky event.
	v, _ = l.View(DefaultTenant, "s1", false)
	if n := countEvents(v.LiveEvents, LiveEventStraggler, FlagSlow); n != 1 {
		t.Fatalf("straggler events duplicated on re-read: %d", n)
	}
}

// TestLiveBehindAndDeparted: a crash-frozen rank falls behind the
// median window count; a departed rank is flagged departed.
func TestLiveBehindAndDeparted(t *testing.T) {
	l, _ := newFakeLive(LiveOptions{})
	if _, err := l.Apply(DefaultTenant, "s2", []obs.Delta{ranksDelta(1,
		obs.RankProgress{Rank: 0, Windows: 10, ComputeVT: 100, Ops: 99},
		obs.RankProgress{Rank: 1, Windows: 10, ComputeVT: 100, Ops: 99},
		obs.RankProgress{Rank: 2, Windows: 4, ComputeVT: 40, Ops: 30},
		obs.RankProgress{Rank: 3, Windows: 3, ComputeVT: 30, Ops: 20, Departed: true},
	)}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	v, err := l.View(DefaultTenant, "s2", false)
	if err != nil {
		t.Fatalf("View: %v", err)
	}
	if !hasFlag(v.Ranks[2].Flags, FlagBehind) {
		t.Fatalf("rank 2 flags = %v, want behind", v.Ranks[2].Flags)
	}
	if !hasFlag(v.Ranks[3].Flags, FlagDeparted) {
		t.Fatalf("rank 3 flags = %v, want departed", v.Ranks[3].Flags)
	}
	// The departed rank is excluded from the medians: with ranks 0/1 at
	// 10 and rank 2 at 4, the median over the living is 10.
	if len(v.Stragglers) != 2 {
		t.Fatalf("stragglers = %v, want two", v.Stragglers)
	}
}

// TestLiveMissedHeartbeat: a rank whose ops counter freezes is flagged
// stalled after HeartbeatTimeout of fake wall-clock, and produces a
// missed_heartbeat event — detected on read, with no shipper traffic.
func TestLiveMissedHeartbeat(t *testing.T) {
	l, clk := newFakeLive(LiveOptions{HeartbeatTimeout: 2 * time.Second})
	apply := func(seq uint64, ops1 uint64) {
		if _, err := l.Apply(DefaultTenant, "s3", []obs.Delta{ranksDelta(seq,
			obs.RankProgress{Rank: 0, Windows: seq, Ops: 10 * seq},
			obs.RankProgress{Rank: 1, Windows: 1, Ops: ops1},
		)}); err != nil {
			t.Fatalf("Apply(%d): %v", seq, err)
		}
	}
	apply(1, 7)
	clk.Advance(time.Second)
	apply(2, 7) // rank 1's ops frozen, but only 1s elapsed: not yet stalled
	v, _ := l.View(DefaultTenant, "s3", false)
	if hasFlag(v.Ranks[1].Flags, FlagStalled) {
		t.Fatalf("rank 1 stalled too early: %v", v.Ranks[1].Flags)
	}
	clk.Advance(3 * time.Second)
	apply(3, 7)
	v, _ = l.View(DefaultTenant, "s3", false)
	if !hasFlag(v.Ranks[1].Flags, FlagStalled) {
		t.Fatalf("rank 1 flags = %v, want stalled", v.Ranks[1].Flags)
	}
	if hasFlag(v.Ranks[0].Flags, FlagStalled) {
		t.Fatalf("rank 0 wrongly stalled: %v", v.Ranks[0].Flags)
	}
	if n := countEvents(v.LiveEvents, LiveEventMissedHeartbeat, FlagStalled); n != 1 {
		t.Fatalf("missed_heartbeat events = %d, want 1", n)
	}
	// A final session stops stalling (the run is over, silence is fine).
	if _, err := l.Apply(DefaultTenant, "s3", []obs.Delta{{Seq: 4, Final: true}}); err != nil {
		t.Fatalf("final: %v", err)
	}
	clk.Advance(time.Minute)
	v, _ = l.View(DefaultTenant, "s3", false)
	if !v.Final {
		t.Fatal("session not final")
	}
	if hasFlag(v.Ranks[0].Flags, FlagStalled) {
		t.Fatalf("final session still stalling: %v", v.Ranks[0].Flags)
	}
}

// TestLiveSeqDedup: retried batches (duplicate seq) are applied once.
func TestLiveSeqDedup(t *testing.T) {
	l, _ := newFakeLive(LiveOptions{})
	d1 := ranksDelta(1, obs.RankProgress{Rank: 0, Windows: 1, Ops: 1})
	d2 := ranksDelta(2, obs.RankProgress{Rank: 0, Windows: 2, Ops: 2})
	ack, err := l.Apply(DefaultTenant, "s4", []obs.Delta{d1, d2})
	if err != nil || ack != 2 {
		t.Fatalf("Apply = %d, %v", ack, err)
	}
	ack, err = l.Apply(DefaultTenant, "s4", []obs.Delta{d1, d2}) // retry
	if err != nil || ack != 2 {
		t.Fatalf("retry Apply = %d, %v", ack, err)
	}
	v, _ := l.View(DefaultTenant, "s4", false)
	if v.Deltas != 2 {
		t.Fatalf("deltas = %d, want 2 (dedup failed)", v.Deltas)
	}
}

// fillLive applies one delta to maxLiveSessions sessions: "old" first,
// then after 30s "new" and the rest, so the tracker is at capacity with
// "old" the stalest.
func fillLive(t *testing.T, l *Live, clk *clock.Fake) {
	t.Helper()
	one := ranksDelta(1, obs.RankProgress{Rank: 0, Windows: 1, Ops: 1})
	ids := []string{"old", "new"}
	for i := len(ids); i < maxLiveSessions; i++ {
		ids = append(ids, fmt.Sprintf("fill-%d", i))
	}
	for i, id := range ids {
		if _, err := l.Apply(DefaultTenant, id, []obs.Delta{one}); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			clk.Advance(30 * time.Second)
		}
	}
}

// TestLiveEviction: sessions idle past the TTL vanish on the next
// lazily-swept call; the session cap evicts the stalest.
func TestLiveEviction(t *testing.T) {
	l, clk := newFakeLive(LiveOptions{SessionTTL: time.Minute})
	fillLive(t, l, clk)
	if _, err := l.View(DefaultTenant, "old", false); err != nil {
		t.Fatalf("stalest session gone at the cap, before it is exceeded: %v", err)
	}
	// Cap eviction: one session more pushes out the stalest ("old").
	one := ranksDelta(1, obs.RankProgress{Rank: 0, Windows: 1, Ops: 1})
	if _, err := l.Apply(DefaultTenant, "one-more", []obs.Delta{one}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.View(DefaultTenant, "old", false); err == nil {
		t.Fatal("cap eviction kept the stalest session")
	}
	if _, err := l.View(DefaultTenant, "new", false); err != nil {
		t.Fatalf("cap eviction took more than the stalest: %v", err)
	}
	// TTL eviction.
	clk.Advance(2 * time.Minute)
	if got := l.List(DefaultTenant); len(got) != 0 {
		t.Fatalf("TTL sweep left %d sessions", len(got))
	}
}

// TestLiveApplyRejectsWholeBatch: a batch with a delta addressed to
// another session is refused before anything is touched — at capacity it
// neither evicts a real session to make room for an empty one, nor
// applies the deltas ahead of the bad one.
func TestLiveApplyRejectsWholeBatch(t *testing.T) {
	good := ranksDelta(2, obs.RankProgress{Rank: 0, Windows: 2, Ops: 2})
	bad := obs.Delta{Seq: 3, Session: "someone-else"}
	for _, tc := range []struct {
		name, id string
		batch    []obs.Delta
	}{
		{"fresh ID, bad delta alone", "fresh", []obs.Delta{bad}},
		{"fresh ID, bad delta behind a good one", "fresh", []obs.Delta{good, bad}},
		{"tracked ID, bad delta behind a good one", "new", []obs.Delta{good, bad}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			l, clk := newFakeLive(LiveOptions{Reg: reg})
			fillLive(t, l, clk)
			if _, err := l.Apply(DefaultTenant, tc.id, tc.batch); err == nil {
				t.Fatal("mismatched batch accepted")
			}
			if n := len(l.List(DefaultTenant)); n != maxLiveSessions {
				t.Errorf("%d sessions after the rejected batch, want %d", n, maxLiveSessions)
			}
			if n := reg.Counter("chamd_live_sessions_evicted").Value(); n != 0 {
				t.Errorf("rejected batch evicted %d sessions", n)
			}
			for _, id := range []string{"old", "new"} {
				v, err := l.View(DefaultTenant, id, false)
				if err != nil {
					t.Errorf("session %q lost to a rejected batch: %v", id, err)
				} else if v.Deltas != 1 {
					t.Errorf("session %q applied %d deltas, want 1", id, v.Deltas)
				}
			}
			if _, err := l.View(DefaultTenant, "fresh", false); err == nil {
				t.Error("rejected batch left a session behind")
			}
		})
	}
}

// watchLive runs Watch in the background; the channel yields its view.
func watchLive(t *testing.T, l *Live, id string, after uint64, timeout time.Duration) <-chan *SessionView {
	done := make(chan *SessionView, 1)
	go func() {
		v, err := l.Watch(DefaultTenant, id, after, timeout)
		if err != nil {
			t.Errorf("Watch: %v", err)
		}
		done <- v
	}()
	return done
}

// TestLiveWatchWakes: a blocked watch returns once a delta bumps the
// version.
func TestLiveWatchWakes(t *testing.T) {
	l, clk := newFakeLive(LiveOptions{})
	if _, err := l.Apply(DefaultTenant, "s5", []obs.Delta{ranksDelta(1, obs.RankProgress{Rank: 0, Windows: 1, Ops: 1})}); err != nil {
		t.Fatal(err)
	}
	v, err := l.View(DefaultTenant, "s5", false)
	if err != nil {
		t.Fatal(err)
	}
	done := watchLive(t, l, "s5", v.Version, 5*time.Second)
	clk.BlockUntil(2) // the deadline and the heartbeat re-check: blocked
	if _, err := l.Apply(DefaultTenant, "s5", []obs.Delta{ranksDelta(2, obs.RankProgress{Rank: 0, Windows: 2, Ops: 2})}); err != nil {
		t.Fatal(err)
	}
	if w := <-done; w == nil || w.Version <= v.Version {
		t.Fatalf("watch returned stale view: %+v", w)
	}
}

// TestLiveWatchDetectsStall: a watch blocked on a session with no
// traffic at all re-runs detection each heartbeat, so it returns with
// the frozen rank flagged stalled once the clock passes
// HeartbeatTimeout — and not before.
func TestLiveWatchDetectsStall(t *testing.T) {
	const beat = 2 * time.Second
	l, clk := newFakeLive(LiveOptions{HeartbeatTimeout: beat})
	if _, err := l.Apply(DefaultTenant, "s6", []obs.Delta{ranksDelta(1,
		obs.RankProgress{Rank: 0, Windows: 1, Ops: 1},
		obs.RankProgress{Rank: 1, Windows: 1, Ops: 1},
	)}); err != nil {
		t.Fatal(err)
	}
	v, err := l.View(DefaultTenant, "s6", false)
	if err != nil {
		t.Fatal(err)
	}
	done := watchLive(t, l, "s6", v.Version, time.Minute)
	clk.BlockUntil(2)
	clk.Advance(beat - time.Millisecond)
	select {
	case w := <-done:
		t.Fatalf("watch returned before a heartbeat passed: %+v", w)
	default:
	}
	clk.Advance(2 * time.Millisecond)
	w := <-done
	if w == nil || w.Version <= v.Version {
		t.Fatalf("watch returned stale view: %+v", w)
	}
	for _, r := range w.Ranks {
		if !hasFlag(r.Flags, FlagStalled) {
			t.Errorf("rank %d flags = %v, want stalled", r.Rank, r.Flags)
		}
	}
	if n := countEvents(w.LiveEvents, LiveEventMissedHeartbeat, FlagStalled); n != 2 {
		t.Errorf("missed_heartbeat events = %d, want 2", n)
	}
}

// TestLiveEndpoints drives the HTTP surface end to end: POST deltas,
// GET view, GET list, long-poll watch, Prometheus /metrics.
func TestLiveEndpoints(t *testing.T) {
	a := newTestArchive(t)
	reg := obs.NewRegistry()
	srv := httptest.NewServer(NewServer(a, ServerOptions{Metrics: true, Reg: reg}))
	defer srv.Close()

	batch := []obs.Delta{ranksDelta(1,
		obs.RankProgress{Rank: 0, Windows: 5, ComputeVT: 100, Ops: 10},
		obs.RankProgress{Rank: 1, Windows: 5, ComputeVT: 400, Ops: 10},
	)}
	body, _ := json.Marshal(batch)
	resp, err := http.Post(srv.URL+"/live/sessions/e2e/deltas", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST deltas: %v", err)
	}
	var ack obs.Ack
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil || ack.AckSeq != 1 {
		t.Fatalf("ack = %+v, err %v", ack, err)
	}
	resp.Body.Close()

	v, err := FetchLiveView(srv.URL, "e2e")
	if err != nil {
		t.Fatalf("FetchLiveView: %v", err)
	}
	if len(v.Stragglers) != 1 || v.Stragglers[0] != 1 {
		t.Fatalf("stragglers = %v, want [1]", v.Stragglers)
	}
	sums, err := FetchLiveSessions(srv.URL)
	if err != nil || len(sums) != 1 || sums[0].Session != "e2e" || sums[0].Stragglers != 1 {
		t.Fatalf("FetchLiveSessions = %+v, err %v", sums, err)
	}
	w, err := WatchLiveView(srv.URL, "e2e", 0, 50*time.Millisecond)
	if err != nil || w.Session != "e2e" {
		t.Fatalf("WatchLiveView = %+v, err %v", w, err)
	}

	// Bad session IDs are rejected.
	resp, err = http.Post(srv.URL+"/live/sessions/bad%2Fid/deltas", "application/json", strings.NewReader("[]"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusNotFound &&
		resp.StatusCode != http.StatusMovedPermanently {
		t.Fatalf("slash session id: status %d", resp.StatusCode)
	}

	// Prometheus exposition with the live gauges.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("metrics content type = %q", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	out := buf.String()
	for _, want := range []string{
		"# TYPE chamd_live_sessions gauge",
		"chamd_live_sessions 1",
		"chamd_live_deltas 1",
		"# TYPE chamd_latency_ns summary",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
	// The text renderer handles a straggler view.
	var frame bytes.Buffer
	RenderSessionView(&frame, v)
	if !strings.Contains(frame.String(), "stragglers: 1") {
		t.Fatalf("render missing straggler line:\n%s", frame.String())
	}
}

// TestLivePushStorm: the ISSUE's -race storm — 64 concurrent pushers,
// each its own session, against one chamd.
func TestLivePushStorm(t *testing.T) {
	a := newTestArchive(t)
	reg := obs.NewRegistry()
	srv := httptest.NewServer(NewServer(a, ServerOptions{Reg: reg}))
	defer srv.Close()

	const pushers = 64
	const deltasEach = 20
	var wg sync.WaitGroup
	errs := make(chan error, pushers)
	for g := 0; g < pushers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("storm-%02d", g)
			for seq := uint64(1); seq <= deltasEach; seq++ {
				batch := []obs.Delta{ranksDelta(seq,
					obs.RankProgress{Rank: 0, Windows: seq, ComputeVT: int64(seq) * 100, Ops: seq * 3},
					obs.RankProgress{Rank: 1, Windows: seq, ComputeVT: int64(seq) * 250, Ops: seq * 3},
				)}
				body, _ := json.Marshal(batch)
				resp, err := http.Post(srv.URL+"/live/sessions/"+id+"/deltas", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- fmt.Errorf("%s seq %d: %w", id, seq, err)
					return
				}
				var ack obs.Ack
				err = json.NewDecoder(resp.Body).Decode(&ack)
				resp.Body.Close()
				if err != nil || ack.AckSeq != seq {
					errs <- fmt.Errorf("%s seq %d: ack %+v err %v", id, seq, ack, err)
					return
				}
			}
			errs <- nil
		}(g)
	}
	// Concurrent watchers hammer views and lists while pushers run.
	stop := make(chan struct{})
	var watchWG sync.WaitGroup
	for g := 0; g < 8; g++ {
		watchWG.Add(1)
		go func(g int) {
			defer watchWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				FetchLiveSessions(srv.URL)                             //nolint:errcheck
				FetchLiveView(srv.URL, fmt.Sprintf("storm-%02d", g*7)) //nolint:errcheck
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	watchWG.Wait()
	for g := 0; g < pushers; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	sums, err := FetchLiveSessions(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != pushers {
		t.Fatalf("sessions = %d, want %d", len(sums), pushers)
	}
	for _, s := range sums {
		if s.Version == 0 {
			t.Fatalf("session %s never advanced", s.Session)
		}
	}
}

func newTestArchive(t *testing.T) *Archive {
	t.Helper()
	a, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatalf("open archive: %v", err)
	}
	return a
}

func hasFlag(flags []string, f string) bool {
	for _, x := range flags {
		if x == f {
			return true
		}
	}
	return false
}

func countEvents(evs []LiveEvent, kind, flag string) int {
	n := 0
	for _, ev := range evs {
		if ev.Kind == kind && ev.Flag == flag {
			n++
		}
	}
	return n
}

// TestLiveDesync: a contiguous band of ranks arriving late at the
// marker barrier fires a desync event; the event re-fires only when the
// band moves (a traveling front), not while it sits still.
func TestLiveDesync(t *testing.T) {
	reg := obs.NewRegistry()
	l, _ := newFakeLive(LiveOptions{Reg: reg})
	arrive := func(seq uint64, win uint64, vt [6]int64) obs.Delta {
		ranks := make([]obs.RankProgress, 6)
		for r := range ranks {
			ranks[r] = obs.RankProgress{Rank: r, Windows: win, ArriveVT: vt[r], Ops: 10 * win}
		}
		return ranksDelta(seq, ranks...)
	}
	ms := int64(time.Millisecond)

	// Window 1: healthy — skew below the 1ms default.
	if _, err := l.Apply(DefaultTenant, "sd", []obs.Delta{arrive(1, 1, [6]int64{0, 100, 200, 100, 50, 0})}); err != nil {
		t.Fatal(err)
	}
	// Window 2: ranks 2,3 late by 40ms — a qualified band.
	if _, err := l.Apply(DefaultTenant, "sd", []obs.Delta{arrive(2, 2, [6]int64{10 * ms, 10 * ms, 50 * ms, 50 * ms, 10 * ms, 10 * ms})}); err != nil {
		t.Fatal(err)
	}
	// Window 3: same band — no new event.
	if _, err := l.Apply(DefaultTenant, "sd", []obs.Delta{arrive(3, 3, [6]int64{20 * ms, 20 * ms, 60 * ms, 60 * ms, 20 * ms, 20 * ms})}); err != nil {
		t.Fatal(err)
	}
	// Window 4: band moved to ranks 3,4 — the front traveled.
	if _, err := l.Apply(DefaultTenant, "sd", []obs.Delta{arrive(4, 4, [6]int64{30 * ms, 30 * ms, 30 * ms, 70 * ms, 70 * ms, 30 * ms})}); err != nil {
		t.Fatal(err)
	}
	v, err := l.View(DefaultTenant, "sd", false)
	if err != nil {
		t.Fatal(err)
	}
	var desyncs []LiveEvent
	for _, ev := range v.LiveEvents {
		if ev.Kind == LiveEventDesync {
			desyncs = append(desyncs, ev)
		}
	}
	if len(desyncs) != 2 {
		t.Fatalf("desync events = %d (%v), want 2", len(desyncs), desyncs)
	}
	if desyncs[0].Rank != 2 || desyncs[1].Rank != 3 {
		t.Errorf("desync band heads = %d,%d, want 2,3", desyncs[0].Rank, desyncs[1].Rank)
	}
	if got := reg.Counter("chamd_live_desync_events").Value(); got != 2 {
		t.Errorf("chamd_live_desync_events = %d, want 2", got)
	}
	// The window summaries carry the band.
	last := v.Windows[len(v.Windows)-1]
	if len(last.LateRanks) != 2 || last.LateRanks[0] != 3 || last.LateRanks[1] != 4 {
		t.Errorf("window late ranks = %v, want [3 4]", last.LateRanks)
	}
	if last.LateNs != 40*ms {
		t.Errorf("window late ns = %d, want %d", last.LateNs, 40*ms)
	}
}

// TestLiveDesyncRejectsNonWave: lone stragglers, scattered late ranks,
// and whole-machine lag never fire desync.
func TestLiveDesyncRejectsNonWave(t *testing.T) {
	l, _ := newFakeLive(LiveOptions{})
	ms := int64(time.Millisecond)
	apply := func(seq, win uint64, vt []int64) {
		t.Helper()
		ranks := make([]obs.RankProgress, len(vt))
		for r := range ranks {
			ranks[r] = obs.RankProgress{Rank: r, Windows: win, ArriveVT: vt[r], Ops: 10 * win}
		}
		if _, err := l.Apply(DefaultTenant, "sn", []obs.Delta{ranksDelta(seq, ranks...)}); err != nil {
			t.Fatal(err)
		}
	}
	apply(1, 1, []int64{0, 50 * ms, 0, 0, 0, 0})             // lone straggler
	apply(2, 2, []int64{0, 60 * ms, 0, 70 * ms, 0, 80 * ms}) // scattered, no adjacency
	// Uniform lag: everyone moved together, nobody is late relative to
	// the window's earliest rank.
	apply(3, 3, []int64{50 * ms, 50 * ms, 50 * ms, 50 * ms, 50 * ms, 50 * ms})
	v, err := l.View(DefaultTenant, "sn", false)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range v.LiveEvents {
		if ev.Kind == LiveEventDesync {
			t.Fatalf("unexpected desync event: %+v", ev)
		}
	}
	// Disabled detector records no band at all.
	ld, _ := newFakeLive(LiveOptions{DesyncSkewNs: -1})
	ranks := []obs.RankProgress{
		{Rank: 0, Windows: 1, ArriveVT: 0, Ops: 10},
		{Rank: 1, Windows: 1, ArriveVT: 90 * ms, Ops: 10},
		{Rank: 2, Windows: 1, ArriveVT: 90 * ms, Ops: 10},
	}
	if _, err := ld.Apply(DefaultTenant, "off", []obs.Delta{ranksDelta(1, ranks...)}); err != nil {
		t.Fatal(err)
	}
	v, _ = ld.View(DefaultTenant, "off", false)
	if len(v.Windows) != 1 || v.Windows[0].LateRanks != nil {
		t.Errorf("disabled detector recorded band: %+v", v.Windows)
	}
}
