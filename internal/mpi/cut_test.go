package mpi

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"chameleon/internal/clock"
	"chameleon/internal/vtime"
)

func row(gen uint64, sent, recvd []uint64) *ctlMsg {
	return &ctlMsg{T: "bresp", Gen: gen, Sent: sent, Recvd: recvd}
}

func TestCutBalanced(t *testing.T) {
	cases := []struct {
		name string
		rows map[int]*ctlMsg
		want bool
	}{
		{"every frame sent was received", map[int]*ctlMsg{
			0: row(1, []uint64{0, 3, 1}, []uint64{0, 2, 0}),
			1: row(1, []uint64{2, 0, 5}, []uint64{3, 0, 4}),
			2: row(1, []uint64{0, 4, 0}, []uint64{1, 5, 0}),
		}, true},
		{"frame in flight from 0 to 1", map[int]*ctlMsg{
			0: row(1, []uint64{0, 3, 0}, []uint64{0, 0, 0}),
			1: row(1, []uint64{0, 0, 0}, []uint64{2, 0, 0}),
			2: row(1, []uint64{0, 0, 0}, []uint64{0, 0, 0}),
		}, false},
		{"receiver ahead of the sender's count", map[int]*ctlMsg{
			0: row(1, []uint64{0, 1}, []uint64{0, 0}),
			1: row(1, []uint64{0, 0}, []uint64{2, 0}),
		}, false},
		// Member 2 left and drained: it is not in the sweep, and what the
		// others exchanged with it (3 sent, 1 received) no longer matters.
		{"left-and-drained member excluded", map[int]*ctlMsg{
			0: row(1, []uint64{0, 1, 3}, []uint64{0, 1, 1}),
			1: row(1, []uint64{1, 0, 0}, []uint64{1, 0, 9}),
		}, true},
		{"short counter vector rejected", map[int]*ctlMsg{
			0: row(1, []uint64{0, 0, 0}, []uint64{0, 0, 0}),
			1: row(1, []uint64{0, 0}, []uint64{0, 0, 0}),
		}, false},
		{"missing counter vector rejected", map[int]*ctlMsg{
			0: row(1, []uint64{0, 0, 0}, []uint64{0, 0, 0}),
			1: row(1, nil, nil),
		}, false},
		{"alone", map[int]*ctlMsg{0: row(1, []uint64{0, 7, 7}, []uint64{0, 0, 0})}, true},
	}
	for _, tc := range cases {
		if got := balanced(3, tc.rows); got != tc.want {
			t.Errorf("%s: balanced = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// scriptedCut is member 0 of a fleet of n, waiting on clk, whose peers
// answer every request at once from script: script(idx, sweep) is peer
// idx's row for the sweep-th sweep (1-based), nil for silence.
func scriptedCut(n int, clk clock.Clock, script func(idx int, sweep uint64) *ctlMsg) *cut {
	var c *cut
	c = newCut(0, n, func(idx int, req uint64) error {
		if r := script(idx, c.sweeps.Load()); r != nil {
			resp := *r
			resp.Req = req
			go c.answer(&resp)
		}
		return nil
	}, make(chan struct{}), clk)
	return c
}

// TestCutStableGenerationRule scripts the peers' snapshots: a cut is
// trusted only after two consecutive sweeps with equal generations
// everywhere (this member's own included) and a balanced matrix, and
// then the smallest bound decides.
func TestCutStableGenerationRule(t *testing.T) {
	zero := []uint64{0, 0, 0}
	quiet := func(gen uint64, bound int64) *ctlMsg {
		return &ctlMsg{Gen: gen, HasBound: bound >= 0, Bound: bound, Sent: zero, Recvd: zero}
	}
	cases := []struct {
		name       string
		script     func(idx int, sweep uint64) *ctlMsg
		at         vtime.Time
		want       bool
		wantSweeps uint64
	}{
		{"already stable: two sweeps", func(idx int, _ uint64) *ctlMsg { return quiet(5, 100) }, 50, true, 2},
		{"bound earlier than the match: unsafe", func(idx int, _ uint64) *ctlMsg { return quiet(5, 100) }, 150, false, 2},
		{"no peer bounded at all: safe", func(idx int, _ uint64) *ctlMsg { return quiet(5, -1) }, 150, true, 2},
		{"one peer still changing: waits for it", func(idx int, sweep uint64) *ctlMsg {
			if idx == 2 && sweep < 4 {
				return quiet(sweep, 10) // gens 1,2,3, then 9,9
			}
			return quiet(9, 100)
		}, 50, true, 5},
		{"the settled bound is the one that counts", func(idx int, sweep uint64) *ctlMsg {
			if sweep < 3 {
				return quiet(sweep, 100)
			}
			return quiet(7, 20)
		}, 50, false, 4},
		{"frame in flight: stable generations are not enough", func(idx int, sweep uint64) *ctlMsg {
			r := quiet(5, 100)
			if idx == 1 && sweep < 3 {
				r.Sent = []uint64{0, 0, 1} // 1 sent one to 2 that 2 has not counted yet
			} else if sweep >= 3 {
				r.Gen = 6
				if idx == 1 {
					r.Sent = []uint64{0, 0, 1}
				} else {
					r.Recvd = []uint64{0, 1, 0}
				}
			}
			return r
		}, 50, true, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := scriptedCut(3, clock.Real{}, tc.script)
			if got := c.safe(tc.at); got != tc.want {
				t.Errorf("safe(%v) = %v, want %v", tc.at, got, tc.want)
			}
			if got := c.sweeps.Load(); got != tc.wantSweeps {
				t.Errorf("took %d sweeps, want %d", got, tc.wantSweeps)
			}
		})
	}
	t.Run("a local change between sweeps restarts the count", func(t *testing.T) {
		var c *cut
		c = scriptedCut(2, clock.Real{}, func(_ int, sweep uint64) *ctlMsg {
			if sweep == 1 {
				c.gen.Add(1) // e.g. a deposit into a local mailbox during sweep 1
			}
			return &ctlMsg{Gen: 1, Sent: []uint64{0, 0}, Recvd: []uint64{0, 0}}
		})
		if !c.safe(50) || c.sweeps.Load() != 3 {
			t.Errorf("took %d sweeps, want 3 (the peer agrees on 1-2, we do not; 2-3 agree)", c.sweeps.Load())
		}
	})
}

// TestCutSweepLeavesNothingPending: every way a sweep can fail must
// take its requests out of the pending table. At the parent commit each
// sweep against an unresponsive peer left a map entry and a channel per
// outstanding request behind.
func TestCutSweepLeavesNothingPending(t *testing.T) {
	pending := func(c *cut) int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.pending)
	}
	t.Run("peer never answers", func(t *testing.T) {
		clk := clock.NewFake(time.Unix(0, 0))
		c := scriptedCut(3, clk, func(idx int, _ uint64) *ctlMsg {
			if idx == 1 {
				return nil // wedged: reads breq, never replies
			}
			return &ctlMsg{Sent: make([]uint64, 3), Recvd: make([]uint64, 3)}
		})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 25; i++ {
				if _, ok := c.sweep(); ok {
					t.Error("sweep succeeded without an answer from member 1")
				}
			}
		}()
		for i := 0; i < 25; i++ {
			clk.BlockUntil(1) // the sweep's deadline, its only wait
			clk.Advance(sweepTimeout)
		}
		<-done
		if n := pending(c); n != 0 {
			t.Fatalf("%d requests still pending after 25 timed-out sweeps", n)
		}
	})
	t.Run("ask fails midway", func(t *testing.T) {
		var asks atomic.Int64
		c := newCut(0, 4, func(int, uint64) error {
			if asks.Add(1)%2 == 0 {
				return errors.New("write: broken pipe")
			}
			return nil
		}, make(chan struct{}), clock.Real{})
		for i := 0; i < 10; i++ {
			if _, ok := c.sweep(); ok {
				t.Fatal("sweep succeeded over a broken link")
			}
		}
		if n := pending(c); n != 0 {
			t.Fatalf("%d requests still pending after failed asks", n)
		}
	})
	t.Run("run aborts mid-sweep", func(t *testing.T) {
		stop := make(chan struct{})
		c := newCut(0, 2, func(int, uint64) error { close(stop); return nil }, stop, clock.Real{})
		if _, ok := c.sweep(); ok {
			t.Fatal("sweep succeeded after the abort")
		}
		if n := pending(c); n != 0 {
			t.Fatalf("%d requests still pending after the abort", n)
		}
		if c.safe(1) {
			t.Fatal("safe after the abort")
		}
	})
	t.Run("peer mid-leave: not now, and nothing asked", func(t *testing.T) {
		c := newCut(0, 3, func(idx int, _ uint64) error {
			t.Errorf("asked member %d", idx)
			return nil
		}, make(chan struct{}), clock.Real{})
		c.left[1].Store(true)
		if _, ok := c.sweep(); ok {
			t.Fatal("sweep succeeded while member 1 is draining")
		}
	})
	t.Run("left-and-drained peer is skipped, late answer dropped", func(t *testing.T) {
		c := scriptedCut(3, clock.Real{}, func(idx int, _ uint64) *ctlMsg {
			if idx == 1 {
				t.Error("asked the member that left")
			}
			return &ctlMsg{Sent: make([]uint64, 3), Recvd: make([]uint64, 3)}
		})
		c.left[1].Store(true)
		c.eof[1].Store(true)
		rows, ok := c.sweep()
		if !ok || len(rows) != 2 || rows[0] == nil || rows[2] == nil {
			t.Fatalf("rows = %v, ok = %v; want members 0 and 2", rows, ok)
		}
		c.answer(&ctlMsg{T: "bresp", Req: 1}) // its sweep is long over: must not block or panic
	})
}

// tapClock is a clock.Fake that reports the length of every wait armed
// on it, in order, before arming it.
type tapClock struct {
	*clock.Fake
	armed chan time.Duration
}

func (c tapClock) After(d time.Duration) (<-chan time.Time, func()) {
	c.armed <- d
	return c.Fake.After(d)
}

// TestCutUnsafeVerdictWaitsRepoll: remote progress announces nothing to
// a wildcard matcher, so an unsafe verdict comes a repoll period late
// on the clock, and the matcher asks again as soon as it hears it. An
// abort cuts the pause short.
func TestCutUnsafeVerdictWaitsRepoll(t *testing.T) {
	for _, abort := range []bool{false, true} {
		clk := tapClock{clock.NewFake(time.Unix(0, 0)), make(chan time.Duration)}
		c := scriptedCut(2, clk, func(int, uint64) *ctlMsg {
			return &ctlMsg{Gen: 5, HasBound: true, Bound: 100, Sent: []uint64{0, 0}, Recvd: []uint64{0, 0}}
		})
		stop := make(chan struct{})
		c.stop = stop
		verdict := make(chan bool)
		go func() { verdict <- c.safe(150) }() // member 1 can still undercut 150
		next := func(want time.Duration) {
			t.Helper()
			select {
			case d := <-clk.armed:
				if d != want {
					t.Fatalf("armed a wait of %v, want %v", d, want)
				}
			case v := <-verdict:
				t.Fatalf("verdict %v before a wait of %v was armed", v, want)
			}
			if want != sweepTimeout {
				clk.BlockUntil(1) // the sweep's deadline is released: this pause is the one wait
			}
		}
		next(sweepTimeout)
		next(sweepInterval)
		clk.Advance(sweepInterval)
		next(sweepTimeout)
		next(repoll) // stable and balanced after two sweeps: the verdict is in, and waits
		if abort {
			close(stop)
		} else {
			clk.Advance(repoll - time.Nanosecond)
			select {
			case <-verdict:
				t.Fatal("the unsafe verdict came before the repoll period passed")
			default:
			}
			clk.Advance(time.Nanosecond)
		}
		if <-verdict {
			t.Fatalf("abort=%v: safe with an earlier remote bound", abort)
		}
		if n := c.sweeps.Load(); n != 2 {
			t.Fatalf("abort=%v: %d sweeps, want 2", abort, n)
		}
	}
}

// boundFixture is a hand-built runtime hosting ranks 0..4 of a world of
// 6 in one of each condition the conservative rule distinguishes. A
// rank's condition is what its mailbox says under the mailbox lock.
func boundFixture() (rt *Runtime, alpha vtime.Time) {
	rt = testRuntime(6, 5)
	// 0: active at 500.
	rt.procs[0].Clock.AdvanceTo(500)
	// 1: blocked at clock 100 in a wildcard receive on (world, tag 7);
	// its candidate arrives at 300, an earlier message on another tag
	// does not count. (Only a wildcard receive waits with its match
	// queued: a specific-source one is handed it.)
	rt.procs[1].Clock.AdvanceTo(100)
	block(rt.mailboxes[1], pattern{CommWorld, AnySource, 7})
	rt.mailboxes[1].deposit(message{comm: CommWorld, source: 0, tag: 9, arrive: 10})
	rt.mailboxes[1].deposit(message{comm: CommWorld, source: 0, tag: 7, arrive: 300})
	// 2: parked at clock 5 with nothing matching pending — waits on a
	// rank already accounted for.
	rt.procs[2].Clock.AdvanceTo(5)
	block(rt.mailboxes[2], pattern{CommInternal, 4, 1})
	rt.mailboxes[2].deposit(message{comm: CommWorld, source: 4, tag: 1, arrive: 1})
	// 3 finalizing, 4 done: exempt however early their clocks.
	rt.setState(3, stateFinalizing)
	rt.setState(4, stateDone)
	return rt, vtime.Time(rt.model.Alpha)
}

// TestInfluenceBoundOneRule: the local scan behind lbtsSafe and the
// bound a peer is answered with are one function, so they cannot
// disagree on any rank set or at any boundary.
func TestInfluenceBoundOneRule(t *testing.T) {
	rt, alpha := boundFixture()
	all, ok := rt.influenceBound(-1) // what a breq is answered with
	if !ok || all != 300+alpha {
		t.Fatalf("bound over all hosted ranks = %v/%v, want %v (rank 1: its matching arrival plus the latency)", all, ok, 300+alpha)
	}
	if b, ok := rt.influenceBound(1); !ok || b != 500+alpha {
		t.Fatalf("bound excluding rank 1 = %v/%v, want %v (rank 0: its clock plus the latency)", b, ok, 500+alpha)
	}
	for _, at := range []vtime.Time{0, all - 1, all, all + 1, 500 + alpha, 500 + alpha + 1, 1 << 40} {
		// Rank 5 is hosted elsewhere: to it every rank here counts, as to
		// a peer process asking over the wire.
		if local, wire := rt.lbtsSafe(5, at), !(all < at); local != wire {
			t.Errorf("at %v: lbtsSafe says %v, the breq answer implies %v", at, local, wire)
		}
		// A hosted rank does not bound itself.
		if got, want := rt.lbtsSafe(1, at), !(500+alpha < at); got != want {
			t.Errorf("at %v: lbtsSafe(1) = %v, want %v", at, got, want)
		}
	}

	// The instant rank 1's message is matched it counts as active (at its
	// old clock: conservative), never as "blocked, nothing pending": the
	// match is safe (rank 0 cannot reach it before 500), so takeAny
	// returns at once, and it turned the rank active under the lock.
	if msg := rt.takeAny(1, rt.mailboxes[1], pattern{CommWorld, AnySource, 7}); msg.arrive != 300 {
		t.Fatalf("rank 1 matched the message arriving at %v, want 300", msg.arrive)
	}
	if b, ok := rt.influenceBound(-1); !ok || b != 100+alpha {
		t.Fatalf("bound right after rank 1 matched = %v/%v, want %v", b, ok, 100+alpha)
	}
	// A parked rank is active in the critical section that delivers its
	// message, before it has run at all (here it never does: nobody
	// sleeps in rank 2's take). Were the store the receiver's to make
	// once woken, this scan would skip the rank.
	rt.mailboxes[2].deposit(message{comm: CommInternal, source: 4, tag: 1, arrive: 900})
	if b, ok := rt.influenceBound(-1); !ok || b != 5+alpha {
		t.Fatalf("bound right after rank 2 was handed its message = %v/%v, want %v", b, ok, 5+alpha)
	}
	// A rank taking a queued message was never blocked: it bounds the
	// others by its clock, not by the later arrival.
	rt.setState(1, stateFinalizing)
	rt.setState(2, stateDone)
	rt.mailboxes[0].deposit(message{comm: CommWorld, source: 3, tag: 1, arrive: 900})
	rt.mailboxes[0].take(pattern{CommWorld, 3, 1})
	if b, ok := rt.influenceBound(-1); !ok || b != 500+alpha {
		t.Fatalf("bound after rank 0 took a queued message = %v/%v, want %v", b, ok, 500+alpha)
	}
	// Nothing but exempt and unmatched-blocked ranks: no bound at all.
	block(rt.mailboxes[0], pattern{CommWorld, 3, 1})
	if b, ok := rt.influenceBound(-1); ok {
		t.Fatalf("bound = %v, want none", b)
	}
}
