package core

import (
	"testing"

	"chameleon/internal/apps"
	"chameleon/internal/mpi"
	"chameleon/internal/vtime"
)

// TestNeverRepetitive drives the transition graph with a different
// Call-Path at every marker: clustering must never engage ("if in every
// marker call there is a different Call-Path ... Chameleon stays in
// state AT") and the Finalize-time forced clustering must still flush
// everything.
func TestNeverRepetitive(t *testing.T) {
	col := runChameleon(t, 4, Options{K: 2}, func(p *mpi.Proc) {
		w := p.World()
		for it := 0; it < 12; it++ {
			// The window content varies per step: it+1 allreduces.
			for k := 0; k <= it; k++ {
				w.Allreduce(8, uint64(k), mpi.OpSum)
			}
			apps.Marker(p)
		}
	})
	if got := col.StateCalls[StateC]; got != 0 {
		t.Fatalf("clustered %d times on never-repetitive input", got)
	}
	if col.StateCalls[StateAT] != 12 {
		t.Fatalf("AT = %d", col.StateCalls[StateAT])
	}
	// Finalize still produces a complete online trace.
	total := uint64(0)
	for it := 0; it < 12; it++ {
		total += uint64(it + 1)
	}
	for r := 0; r < 4; r++ {
		if got := dynamicFor(col.Global, r); got != total {
			t.Fatalf("rank %d covered %d events, want %d", r, got, total)
		}
	}
}

// TestAlternatingPhases flips between two behaviors every other marker:
// the vote alternates match/mismatch, so the system oscillates without
// ever reaching a steady lead phase collapse, and no events are lost.
func TestAlternatingPhases(t *testing.T) {
	col := runChameleon(t, 4, Options{K: 2}, func(p *mpi.Proc) {
		w := p.World()
		next := (p.Rank() + 1) % p.Size()
		prev := (p.Rank() + p.Size() - 1) % p.Size()
		for it := 0; it < 20; it++ {
			if it%2 == 0 {
				w.Sendrecv(next, 1, 64, nil, prev, 1)
			} else {
				w.Allreduce(8, uint64(it), mpi.OpSum)
			}
			apps.Marker(p)
		}
	})
	for r := 0; r < 4; r++ {
		if got := dynamicFor(col.Global, r); got != 20 {
			t.Fatalf("rank %d covered %d events, want 20", r, got)
		}
	}
}

// TestSingleRank runs Chameleon degenerately on one rank.
func TestSingleRank(t *testing.T) {
	col := runChameleon(t, 1, Options{K: 1}, func(p *mpi.Proc) {
		for it := 0; it < 10; it++ {
			p.Compute(vtime.Microsecond)
			p.World().Barrier()
			apps.Marker(p)
		}
	})
	if col.StateCalls[StateC] != 1 {
		t.Fatalf("states: %v", col.StateCalls)
	}
	if dynamicFor(col.Global, 0) != 10 {
		t.Fatalf("events = %d", dynamicFor(col.Global, 0))
	}
}

// TestKOne clusters everything into a single lead.
func TestKOne(t *testing.T) {
	col := runChameleon(t, 8, Options{K: 1}, ringApp(60, 10))
	if len(col.LeadRanks) != 1 {
		t.Fatalf("leads = %v", col.LeadRanks)
	}
	for r := 0; r < 8; r++ {
		if got := dynamicFor(col.Global, r); got != 60 {
			t.Fatalf("rank %d covered %d events", r, got)
		}
	}
}

// TestMarkerOnlyApp traces a program whose only MPI activity is the
// marker itself: windows are empty, signatures are zero, and the run
// must not crash or cluster spuriously... it may cluster (empty windows
// match) but must produce an empty online trace without error.
func TestMarkerOnlyApp(t *testing.T) {
	col := runChameleon(t, 4, Options{K: 2}, func(p *mpi.Proc) {
		for it := 0; it < 5; it++ {
			apps.Marker(p)
		}
	})
	if got := dynamicFor(col.Global, 0); got != 0 {
		t.Fatalf("phantom events: %d", got)
	}
}

// TestTracerPanicSurfaced ensures a panic inside application code under
// tracing aborts the run with an error instead of deadlocking the
// tracing collectives.
func TestTracerPanicSurfaced(t *testing.T) {
	col := NewCollector(4)
	_, err := mpi.Run(mpi.Config{P: 4, Hooks: New(col, Options{K: 2})}, func(p *mpi.Proc) {
		w := p.World()
		for it := 0; it < 10; it++ {
			w.Allreduce(8, uint64(it), mpi.OpSum)
			if it == 5 && p.Rank() == 2 {
				panic("injected failure")
			}
			apps.Marker(p)
		}
	})
	if err == nil {
		t.Fatalf("injected failure not reported")
	}
}
