package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"chameleon/internal/fault"
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

func runAuto(t *testing.T, p int, opt Options, body func(*mpi.Proc)) *Collector {
	t.Helper()
	col := NewCollector(p)
	if _, err := mpi.Run(mpi.Config{P: p, Hooks: NewAuto(col, opt)}, body); err != nil {
		t.Fatal(err)
	}
	return col
}

func TestAutoMarkerClusters(t *testing.T) {
	col := runAuto(t, 8, Options{K: 3}, anchoredApp(60))
	if col.Reclusterings != 1 {
		t.Fatalf("reclusterings = %d", col.Reclusterings)
	}
	if col.StateCalls[StateC] != 1 || col.StateCalls[StateL] == 0 {
		t.Fatalf("states = %v", col.StateCalls)
	}
	if len(col.Global) == 0 {
		t.Fatalf("no online trace")
	}
	if len(col.LeadRanks) != 3 {
		t.Fatalf("leads = %v", col.LeadRanks)
	}
}

func TestAutoMarkerFrequency(t *testing.T) {
	every := runAuto(t, 4, Options{K: 2, CallFrequency: 1}, anchoredApp(60))
	sparse := runAuto(t, 4, Options{K: 2, CallFrequency: 10}, anchoredApp(60))
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
	short := runAuto(t, 4, Options{K: 2}, anchoredApp(observeFor-5))
	long := runAuto(t, 4, Options{K: 2}, anchoredApp(observeFor+10))
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
	col := runAuto(t, 4, Options{K: 2}, func(p *mpi.Proc) {
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
	if len(col.Global) == 0 {
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
	col := runAuto(t, P, Options{K: 3}, anchoredApp(40))
	for r := 0; r < P; r++ {
		if got := dynamicFor(col.Global, r); got != 40*2 {
			t.Fatalf("rank %d covered %d events, want 80", r, got)
		}
	}
}

// TestAutoMarkerIgnoresSubCommunicatorCollectives: ranks 0 and 1 run
// two all-reduces a step on a Split communicator of their own, beside
// the world all-reduce every rank runs. Counted, those would reach the
// election window steps earlier on ranks 0 and 1 and elect the
// sub-communicator site, whose markers ranks 2 and 3 never enter; the
// anchor is the world site on every rank. The run has a deadline of its
// own so that a hang fails the test instead of stalling the suite.
func TestAutoMarkerIgnoresSubCommunicatorCollectives(t *testing.T) {
	const p, steps = 4, observeFor + 10
	col := NewCollector(p)
	done := make(chan error, 1)
	go func() {
		_, err := mpi.Run(mpi.Config{P: p, Hooks: NewAuto(col, Options{K: 2})}, func(pr *mpi.Proc) {
			w := pr.World()
			color := -1
			if pr.Rank() < 2 {
				color = 0
			}
			sub := w.Split(color, pr.Rank())
			for it := 0; it < steps; it++ {
				pr.Compute(100 * vtime.Microsecond)
				if sub != nil {
					sub.Allreduce(8, uint64(it), mpi.OpSum)
					sub.Allreduce(8, uint64(it), mpi.OpMax)
				}
				w.Allreduce(8, uint64(it), mpi.OpSum)
			}
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("the run did not finish within 20 s: ranks anchored on different sites")
	}
	// The window closes on every rank at the world site's 50th call, so
	// the 10 steps after it engage 10 markers.
	if calls := col.StateCalls[StateAT] + col.StateCalls[StateC] + col.StateCalls[StateL]; calls != 10 {
		t.Fatalf("engaged marker calls = %d, want 10", calls)
	}
}

// survivorApp is anchoredApp made failure-aware: the ring closes over
// the survivors and the residual all-reduce runs on the shrunken world,
// so a crash at an automatically placed marker leaves a run that
// completes.
func survivorApp(steps int) func(*mpi.Proc) {
	return func(p *mpi.Proc) {
		for it := 0; it < steps; it++ {
			alive := p.AliveRanks()
			pos, n := mpi.TreePos(alive, p.Rank()), len(alive)
			p.Compute(100 * vtime.Microsecond)
			p.World().Sendrecv(alive[(pos+1)%n], 1, 256, nil, alive[(pos+n-1)%n], 1)
			p.ShrunkWorld().Allreduce(8, uint64(it), mpi.OpSum)
		}
	}
}

// TestAutoMarkerFiresCrashDirective: the automatically placed marker is
// the marker barrier, so a crash directive fires at the rank's N-th
// auto marker. With rank 5 of 8 crashing at marker 4, the run completes
// and lists rank 5 as departed, rank 5 processed three markers, every
// survivor processed all ten, and the final lead set names no departed
// rank.
func TestAutoMarkerFiresCrashDirective(t *testing.T) {
	const P, crashAt, steps = 8, 4, observeFor + 10
	plan, err := fault.Parse(fmt.Sprintf("crash rank=5 at marker=%d", crashAt))
	if err != nil {
		t.Fatal(err)
	}
	in, err := fault.NewInjector(plan, 1, P)
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector(P)
	newRank := NewAuto(col, Options{K: 3})
	ranks := make([]*AutoMarker, P)
	res, err := mpi.Run(mpi.Config{P: P, Fault: in, Hooks: func(p *mpi.Proc) mpi.Interposer {
		ranks[p.Rank()] = newRank(p).(*AutoMarker)
		return ranks[p.Rank()]
	}}, survivorApp(steps))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Departed, []int{5}) {
		t.Fatalf("departed %v, want [5]", res.Departed)
	}
	for r, a := range ranks {
		want := steps - observeFor
		if r == 5 {
			want = crashAt - 1
		}
		if a.markerCalls != want {
			t.Errorf("rank %d processed %d markers, want %d", r, a.markerCalls, want)
		}
	}
	if slices.Contains(col.LeadRanks, 5) {
		t.Errorf("leads %v still name the departed rank", col.LeadRanks)
	}
}

// TestAutoMarkerBooksOneTraversal: an auto firing is one marker
// barrier, so each rank books one tree traversal to CatMarker per
// firing, the vote riding on it, and nothing more.
func TestAutoMarkerBooksOneTraversal(t *testing.T) {
	const P, steps = 8, observeFor + 10
	col := NewCollector(P)
	res, err := mpi.Run(mpi.Config{P: P, Hooks: NewAuto(col, Options{K: 3})}, anchoredApp(steps))
	if err != nil {
		t.Fatal(err)
	}
	model := vtime.Default()
	traversal := vtime.Duration(vtime.Log2Ceil(P)) * (model.Alpha + model.CollectivePerLevel)
	for r, l := range res.Ledgers {
		if got, want := l.Spent(vtime.CatMarker), vtime.Duration(steps-observeFor)*traversal; got != want {
			t.Errorf("rank %d booked %v to CatMarker, want %d firings x %v", r, got, steps-observeFor, traversal)
		}
	}
}

// TestAutoMarkerElectionIgnoresSignatureValues: a count tie goes to
// the site seen first. Signatures fold program counters, so the same
// program relinked gives its sites other values; each row is elected
// under its sites' values, then under the same sites relabelled in
// reverse order of magnitude, and both must pick the same position.
func TestAutoMarkerElectionIgnoresSignatureValues(t *testing.T) {
	for _, row := range []struct {
		name   string
		counts []int // by first-seen position
		want   int   // elected position
	}{
		{"two_tied", []int{25, 25}, 0},
		{"tie_behind_a_leader", []int{10, 20, 20}, 1},
		{"three_tied_after_one_off", []int{2, 16, 16, 16}, 1},
		{"clear_winner_last", []int{1, 1, 48}, 2},
		{"all_once", []int{1, 1, 1, 1, 1}, 0},
	} {
		t.Run(row.name, func(t *testing.T) {
			for _, label := range []func(i int) uint64{
				func(i int) uint64 { return 0x1000 + uint64(i) },   // first seen is smallest
				func(i int) uint64 { return 0x9000 - uint64(i)*7 }, // first seen is largest
			} {
				a := &AutoMarker{counts: make(map[uint64]int)}
				for i, n := range row.counts {
					a.seen = append(a.seen, label(i))
					a.counts[label(i)] = n
				}
				a.electAnchor()
				if want := label(row.want); a.anchor != want {
					t.Errorf("elected %#x, want position %d (%#x)", a.anchor, row.want, want)
				}
			}
		})
	}
}
