// Package clock is the one source of time for code that waits on it:
// chamd's policy loops and the TCP fleet's deadlines and pauses
// (internal/mpi). Real in production, and in tests a Fake that moves
// only when told to.
package clock

import (
	"context"
	"sync"
	"time"
)

// Clock tells the time and arms waits.
type Clock interface {
	Now() time.Time
	// After returns a channel that receives the time once d has passed,
	// and a func that releases the wait if the caller abandons it.
	After(d time.Duration) (<-chan time.Time, func())
}

// Real is the wall clock.
type Real struct{}

func (Real) Now() time.Time { return time.Now() }

func (Real) After(d time.Duration) (<-chan time.Time, func()) {
	t := time.NewTimer(d)
	return t.C, func() { t.Stop() }
}

// Every calls fn once per period d of clk until ctx is done. A period
// starts when the previous call returns, so calls never overlap.
func Every(ctx context.Context, clk Clock, d time.Duration, fn func()) {
	for {
		c, stop := clk.After(d)
		select {
		case <-ctx.Done():
			stop()
			return
		case <-c:
			fn()
		}
	}
}

// Fake is a Clock that stands still until Advance moves it.
type Fake struct {
	mu    sync.Mutex
	armed sync.Cond // signalled when a wait is added
	now   time.Time
	waits map[chan time.Time]time.Time // pending wait -> when it fires
}

// NewFake returns a Fake that reads start.
func NewFake(start time.Time) *Fake {
	f := &Fake{now: start, waits: make(map[chan time.Time]time.Time)}
	f.armed.L = &f.mu
	return f
}

func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *Fake) After(d time.Duration) (<-chan time.Time, func()) {
	c := make(chan time.Time, 1)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.waits[c] = f.now.Add(d)
	f.armed.Broadcast()
	f.fireLocked()
	return c, func() {
		f.mu.Lock()
		delete(f.waits, c)
		f.mu.Unlock()
	}
}

// Advance moves the clock forward by d, firing every wait that comes due.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now = f.now.Add(d)
	f.fireLocked()
}

func (f *Fake) fireLocked() {
	for c, at := range f.waits {
		if !at.After(f.now) {
			c <- f.now
			delete(f.waits, c)
		}
	}
}

// BlockUntil returns once at least n waits are pending: the goroutines
// under test have reached the point where only time moves them.
func (f *Fake) BlockUntil(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.waits) < n {
		f.armed.Wait()
	}
}
