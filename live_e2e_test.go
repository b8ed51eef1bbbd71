package chameleon_test

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"chameleon"
	"chameleon/internal/store"
)

// newLiveDaemon stands up an in-process chamd: archive + live session
// tracker behind the real HTTP handler stack.
func newLiveDaemon(t testing.TB) *httptest.Server {
	t.Helper()
	a, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatalf("open archive: %v", err)
	}
	srv := httptest.NewServer(store.NewServer(a, store.ServerOptions{}))
	t.Cleanup(func() {
		srv.Close()
		a.Close()
	})
	return srv
}

// runPhaseLive traces PHASE with a live shipper attached through the
// library API and returns the final session view and the run's output
// (chamrun -live itself is driven by internal/cli's TestToolChain). The wire budget is checked on every such run:
// at least one delta shipped, at most 16 KiB per delta on average.
func runPhaseLive(t *testing.T, srv *httptest.Server, session, plan string, p int, during func()) (*store.SessionView, *chameleon.Output) {
	t.Helper()
	var injector *chameleon.FaultInjector
	if plan != "" {
		parsed, err := chameleon.ParseFaultPlan(plan)
		if err != nil {
			t.Fatalf("plan: %v", err)
		}
		injector, err = chameleon.NewFaultInjector(parsed, 1, p)
		if err != nil {
			t.Fatalf("injector: %v", err)
		}
	}
	o := chameleon.NewObserver(chameleon.ObsOptions{
		Metrics:       true,
		ProgressRanks: p,
		JournalRing:   256,
	})
	shipper, err := chameleon.NewLiveShipper(o, chameleon.LiveShipperOptions{
		URL:       srv.URL,
		Session:   session,
		Benchmark: "PHASE",
		P:         p,
		Interval:  time.Millisecond,
	})
	if err != nil {
		t.Fatalf("shipper: %v", err)
	}
	shipper.Start()

	var out *chameleon.Output
	done := make(chan error, 1)
	go func() {
		var err error
		out, err = chameleon.RunBenchmark("PHASE", "A", p, chameleon.TracerChameleon,
			&chameleon.Config{Obs: o, Fault: injector})
		done <- err
	}()
	if during != nil {
		during()
	}
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := shipper.Stop(); err != nil {
		t.Fatalf("shipper stop: %v", err)
	}
	st := shipper.Stats()
	if st.Deltas == 0 || st.Posts == 0 {
		t.Fatalf("shipper shipped nothing: %+v", st)
	}
	if perDelta := st.BytesOut / int64(st.Deltas); perDelta > 16<<10 {
		t.Errorf("shipper sent %d bytes per delta, over the 16 KiB budget: %+v", perDelta, st)
	}

	v, err := store.FetchLiveView(srv.URL, session)
	if err != nil {
		t.Fatalf("final view: %v", err)
	}
	return v, out
}

// TestLiveShipperLeavesRunUnchanged: attaching the live pipeline to a
// PHASE P=32 run changes neither its virtual makespan nor a byte of its
// merged trace — shipping happens beside the run, not in it.
func TestLiveShipperLeavesRunUnchanged(t *testing.T) {
	const p = 32
	base, err := chameleon.RunBenchmark("PHASE", "A", p, chameleon.TracerChameleon, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	_, live := runPhaseLive(t, newLiveDaemon(t), "e2e-unchanged", "", p, nil)
	if base.Time != live.Time {
		t.Errorf("makespan changed under the live shipper: %v vs %v", base.Time, live.Time)
	}
	if !bytes.Equal(traceJSON(t, base), traceJSON(t, live)) {
		t.Error("trace bytes changed under the live shipper")
	}
}

// TestLiveSlowRankFlaggedInFlight is the acceptance criterion: a PHASE
// run with rank 5 slowed 4x, streamed through chamrun -live's pipeline
// to an in-process chamd, must show rank 5 flagged as a straggler in
// the chamtop -follow rendering BEFORE the run finalizes.
func TestLiveSlowRankFlaggedInFlight(t *testing.T) {
	const p, session = 8, "e2e-slow"
	srv := newLiveDaemon(t)

	var liveFrame string // a -follow frame rendered while the run was in flight
	v, _ := runPhaseLive(t, srv, session, "slow rank=5 factor=4x", p, func() {
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			v, err := store.FetchLiveView(srv.URL, session)
			if err != nil {
				// The first delta may not have landed yet.
				time.Sleep(time.Millisecond) // the run ships on the wall clock; only polling sees it
				continue
			}
			if v.Final {
				return
			}
			if hasStraggler(v, 5) {
				var b bytes.Buffer
				store.RenderSessionView(&b, v)
				liveFrame = b.String()
				return
			}
			time.Sleep(500 * time.Microsecond) // likewise: poll the in-flight run, not a clock
		}
	})

	// In-flight observation: the frame must carry the straggler line and
	// the slow flag while the session was still live.
	if liveFrame != "" {
		if !strings.Contains(liveFrame, "stragglers: 5") {
			t.Errorf("live frame missing 'stragglers: 5':\n%s", liveFrame)
		}
		if !strings.Contains(liveFrame, "[live]") {
			t.Errorf("frame rendered after finalize:\n%s", liveFrame)
		}
	}

	// Deterministic backstop (robust to poll timing): the server's sticky
	// event log must show the straggler event raised strictly before the
	// final event — i.e. the flag went up while the run was in flight.
	straggler, final := -1, -1
	for i, ev := range v.LiveEvents {
		switch {
		case ev.Kind == store.LiveEventStraggler && ev.Rank == 5 && straggler < 0:
			straggler = i
		case ev.Kind == store.LiveEventFinal:
			final = i
		}
	}
	if straggler < 0 {
		t.Fatalf("no straggler event for rank 5 in %+v", v.LiveEvents)
	}
	if final < 0 {
		t.Fatalf("no final event in %+v", v.LiveEvents)
	}
	if straggler > final {
		t.Fatalf("straggler event (idx %d) not before final (idx %d)", straggler, final)
	}
	if liveFrame == "" && straggler >= 0 {
		t.Log("poller never caught a live frame (run outpaced it); event order proves in-flight flagging")
	}

	if !v.Final {
		t.Fatal("final view not marked final after shipper Stop")
	}
	if !hasStraggler(v, 5) {
		t.Fatalf("final stragglers = %v, want rank 5", v.Stragglers)
	}
	for _, rs := range v.Ranks {
		slow := containsFlag(rs.Flags, store.FlagSlow)
		if rs.Rank == 5 && !slow {
			t.Errorf("rank 5 flags = %v, want slow", rs.Flags)
		}
		if rs.Rank != 5 && slow {
			t.Errorf("rank %d spuriously flagged slow: %v", rs.Rank, rs.Flags)
		}
	}
}

// TestLiveCrashRankDeparts: a crash-stopped rank must surface live as
// departed (and behind in windows), and the final view must record it.
func TestLiveCrashRankDeparts(t *testing.T) {
	const p, session = 8, "e2e-crash"
	srv := newLiveDaemon(t)

	v, _ := runPhaseLive(t, srv, session, "crash rank=2 at marker=50", p, nil)

	if !v.Final {
		t.Fatal("final view not marked final")
	}
	if !hasStraggler(v, 2) {
		t.Fatalf("stragglers = %v, want rank 2", v.Stragglers)
	}
	var crashed *store.RankStatus
	for i := range v.Ranks {
		if v.Ranks[i].Rank == 2 {
			crashed = &v.Ranks[i]
		}
	}
	if crashed == nil || !containsFlag(crashed.Flags, store.FlagDeparted) {
		t.Fatalf("rank 2 status = %+v, want departed flag", crashed)
	}
	// Departed short-circuits the other flags, but the window freeze must
	// still be visible in the progress columns: the crashed rank stops at
	// its crash marker while the survivors run to the end.
	var maxWindows uint64
	for _, rs := range v.Ranks {
		if rs.Rank != 2 && rs.Windows > maxWindows {
			maxWindows = rs.Windows
		}
	}
	if crashed.Windows >= maxWindows {
		t.Errorf("crashed rank windows = %d, want frozen below survivors' %d", crashed.Windows, maxWindows)
	}
	if found := countLiveEvents(v, store.LiveEventStraggler, 2); found != 1 {
		t.Errorf("straggler events for rank 2 = %d, want exactly 1 (sticky)", found)
	}
}

func hasStraggler(v *store.SessionView, rank int) bool {
	for _, r := range v.Stragglers {
		if r == rank {
			return true
		}
	}
	return false
}

func containsFlag(flags []string, want string) bool {
	for _, f := range flags {
		if f == want {
			return true
		}
	}
	return false
}

func countLiveEvents(v *store.SessionView, kind string, rank int) int {
	n := 0
	for _, ev := range v.LiveEvents {
		if ev.Kind == kind && ev.Rank == rank {
			n++
		}
	}
	return n
}
