package clock

import (
	"context"
	"testing"
	"time"
)

// TestEvery: a call per period of the clock, none early, one (not a
// burst) when the clock jumps several periods, and a return on cancel
// that releases the pending wait.
func TestEvery(t *testing.T) {
	clk := NewFake(time.Unix(1_700_000_000, 0))
	start := clk.Now()
	ctx, cancel := context.WithCancel(context.Background())
	calls := make(chan time.Time)
	done := make(chan struct{})
	go func() {
		defer close(done)
		Every(ctx, clk, time.Second, func() { calls <- clk.Now() })
	}()
	noCall := func(when string) {
		t.Helper()
		select {
		case at := <-calls:
			t.Fatalf("%s: a call at %v", when, at.Sub(start))
		default:
		}
	}
	for i := 1; i <= 3; i++ {
		clk.BlockUntil(1)
		clk.Advance(time.Second - time.Millisecond)
		noCall("a millisecond before the period ends")
		clk.Advance(time.Millisecond)
		if at := <-calls; !at.Equal(start.Add(time.Duration(i) * time.Second)) {
			t.Fatalf("call %d at %v, want %ds", i, at.Sub(start), i)
		}
	}
	clk.BlockUntil(1)
	clk.Advance(5 * time.Second)
	<-calls
	clk.BlockUntil(1)
	noCall("after a jump of five periods")

	cancel()
	<-done
	if n := len(clk.waits); n != 0 {
		t.Fatalf("Every returned leaving %d waits armed", n)
	}
}

// TestFakeAfter: a wait fires when the clock reaches it, not before; a
// stopped wait never fires and no longer counts as pending; a wait of
// zero has already fired.
func TestFakeAfter(t *testing.T) {
	clk := NewFake(time.Unix(0, 0))
	c, _ := clk.After(2 * time.Second)
	dropped, stop := clk.After(time.Second)
	stop()
	clk.Advance(time.Second)
	select {
	case <-c:
		t.Fatal("a 2s wait fired after 1s")
	case <-dropped:
		t.Fatal("a stopped wait fired")
	default:
	}
	clk.Advance(time.Second)
	if at := <-c; !at.Equal(time.Unix(2, 0)) {
		t.Fatalf("fired carrying %v, want the clock's time", at)
	}
	if n := len(clk.waits); n != 0 {
		t.Fatalf("%d waits pending after the only live one fired", n)
	}
	now, _ := clk.After(0)
	<-now
}
