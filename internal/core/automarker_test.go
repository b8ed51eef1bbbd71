package core

import (
	"testing"

	"chameleon/internal/mpi"
	"chameleon/internal/vtime"
)

// anchoredApp is a marker-free iterative kernel with a per-timestep
// residual all-reduce — the recurring collective AutoMarker should
// discover and anchor on.
func anchoredApp(steps int) func(*mpi.Proc) {
	return func(p *mpi.Proc) {
		w := p.World()
		next := (p.Rank() + 1) % p.Size()
		prev := (p.Rank() + p.Size() - 1) % p.Size()
		for it := 0; it < steps; it++ {
			p.Compute(100 * vtime.Microsecond)
			w.Sendrecv(next, 1, 256, nil, prev, 1)
			w.Allreduce(8, uint64(it), mpi.OpSum)
		}
	}
}

func runAuto(t *testing.T, p int, opt AutoOptions, body func(*mpi.Proc)) *Collector {
	t.Helper()
	col := NewCollector(p)
	if _, err := mpi.Run(mpi.Config{P: p, Hooks: NewAuto(col, opt)}, body); err != nil {
		t.Fatal(err)
	}
	return col
}

func TestAutoMarkerClusters(t *testing.T) {
	col := runAuto(t, 8, AutoOptions{Options: Options{K: 3}}, anchoredApp(60))
	if col.Reclusterings != 1 {
		t.Fatalf("reclusterings = %d", col.Reclusterings)
	}
	if col.StateCalls[StateC] != 1 || col.StateCalls[StateL] == 0 {
		t.Fatalf("states = %v", col.StateCalls)
	}
	if len(col.Online) == 0 {
		t.Fatalf("no online trace")
	}
	if len(col.LeadRanks) != 3 {
		t.Fatalf("leads = %v", col.LeadRanks)
	}
}

func TestAutoMarkerFrequency(t *testing.T) {
	every := runAuto(t, 4, AutoOptions{Options: Options{K: 2}, Frequency: 1}, anchoredApp(60))
	sparse := runAuto(t, 4, AutoOptions{Options: Options{K: 2}, Frequency: 10}, anchoredApp(60))
	calls := func(c *Collector) int {
		return c.StateCalls[StateAT] + c.StateCalls[StateC] + c.StateCalls[StateL]
	}
	if calls(sparse) >= calls(every) {
		t.Fatalf("frequency did not reduce calls: %d vs %d", calls(sparse), calls(every))
	}
	if sparse.Reclusterings != 1 {
		t.Fatalf("sparse reclusterings = %d", sparse.Reclusterings)
	}
}

func TestAutoMarkerDetectAfter(t *testing.T) {
	// The observation window delays anchoring: an app that ends inside
	// it never engages a marker, one that outlasts it engages one at
	// every anchor occurrence past the window.
	short := runAuto(t, 4, AutoOptions{Options: Options{K: 2}}, anchoredApp(observeFor-5))
	long := runAuto(t, 4, AutoOptions{Options: Options{K: 2}}, anchoredApp(observeFor+10))
	calls := func(c *Collector) int {
		return c.StateCalls[StateAT] + c.StateCalls[StateC] + c.StateCalls[StateL]
	}
	if calls(short) != 0 || calls(long) != 10 {
		t.Fatalf("engaged marker calls: %d inside the window, %d past it by 10; want 0 and 10", calls(short), calls(long))
	}
}

func TestAutoMarkerNoCollectives(t *testing.T) {
	// Without any collective, AutoMarker never engages — the run must
	// still complete and flush everything at Finalize.
	col := runAuto(t, 4, AutoOptions{Options: Options{K: 2}}, func(p *mpi.Proc) {
		w := p.World()
		next := (p.Rank() + 1) % p.Size()
		prev := (p.Rank() + p.Size() - 1) % p.Size()
		for it := 0; it < 20; it++ {
			w.Sendrecv(next, 1, 64, nil, prev, 1)
		}
	})
	if col.StateCalls[StateC] != 0 || col.StateCalls[StateF] != 1 {
		t.Fatalf("states = %v", col.StateCalls)
	}
	if len(col.Online) == 0 {
		t.Fatalf("finalize did not flush")
	}
	if col.EventsObserved != 4*20 {
		t.Fatalf("observed = %d", col.EventsObserved)
	}
}

func TestAutoMarkerMatchesManual(t *testing.T) {
	// The auto-anchored run must cover the same events as a manual
	// ScalaTrace-equivalent: per-rank dynamic counts in the online trace.
	const P = 8
	col := runAuto(t, P, AutoOptions{Options: Options{K: 3}}, anchoredApp(40))
	for r := 0; r < P; r++ {
		if got := dynamicFor(col.Online, r); got != 40*2 {
			t.Fatalf("rank %d covered %d events, want 80", r, got)
		}
	}
}
