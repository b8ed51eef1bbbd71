package chameleon_test

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"chameleon/internal/store"
)

// TestLiveSlowRankFlaggedInFlight is the acceptance criterion: a PHASE
// run with rank 5 slowed 4x, streamed through chamrun -live's pipeline
// to an in-process chamd, must show rank 5 flagged as a straggler in
// the chamtop -follow rendering BEFORE the run finalizes.
func TestLiveSlowRankFlaggedInFlight(t *testing.T) {
	const p, session = 8, "e2e-slow"

	var liveFrame string // a -follow frame rendered while the run was in flight
	v := runE2E(t, e2e{Spec: benchSpec(t, "PHASE", "A", p), Plan: "slow rank=5 factor=4x", Seed: 1,
		Live: session, During: func(url string) {
			deadline := time.Now().Add(30 * time.Second)
			for time.Now().Before(deadline) {
				v, err := store.FetchLiveView(url, session)
				if err != nil {
					// The first delta may not have landed yet.
					time.Sleep(time.Millisecond) // the run ships on the wall clock; only polling sees it
					continue
				}
				if v.Final {
					return
				}
				if slices.Contains(v.Stragglers, 5) {
					var b bytes.Buffer
					store.RenderSessionView(&b, v)
					liveFrame = b.String()
					return
				}
				time.Sleep(500 * time.Microsecond) // likewise: poll the in-flight run, not a clock
			}
		}}).View

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
	if !slices.Contains(v.Stragglers, 5) {
		t.Fatalf("final stragglers = %v, want rank 5", v.Stragglers)
	}
	for _, rs := range v.Ranks {
		slow := slices.Contains(rs.Flags, store.FlagSlow)
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
	const p = 8
	v := runE2E(t, e2e{Spec: benchSpec(t, "PHASE", "A", p), Plan: "crash rank=2 at marker=50", Seed: 1, Live: "e2e-crash"}).View

	if !v.Final {
		t.Fatal("final view not marked final")
	}
	if !slices.Contains(v.Stragglers, 2) {
		t.Fatalf("stragglers = %v, want rank 2", v.Stragglers)
	}
	var crashed *store.RankStatus
	for i := range v.Ranks {
		if v.Ranks[i].Rank == 2 {
			crashed = &v.Ranks[i]
		}
	}
	if crashed == nil || !slices.Contains(crashed.Flags, store.FlagDeparted) {
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

func countLiveEvents(v *store.SessionView, kind string, rank int) int {
	n := 0
	for _, ev := range v.LiveEvents {
		if ev.Kind == kind && ev.Rank == rank {
			n++
		}
	}
	return n
}
