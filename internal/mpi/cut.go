package mpi

import (
	"sync"
	"sync/atomic"
	"time"

	"chameleon/internal/clock"
	"chameleon/internal/vtime"
)

// Consistent cut: the transport half of the conservative wildcard
// matcher. The local half is Runtime.influenceBound over the ranks
// hosted here; for ranks hosted elsewhere a member runs counter-stable
// bound sweeps: it asks every peer for (its influence bound, its change
// generation, its per-member data-frame send/receive counters) and
// trusts the answers only when two consecutive sweeps return identical
// generations from the same member set and the global counter matrix
// balances — no frame in flight anywhere, a consistent cut in Mattern's
// sense. Rare in practice: the paper's benchmarks use specific sources;
// only master/worker skeletons pay it.
//
// "Sent" means handed to the link, which coalesces writes (link.go): a
// frame still in the link's queue is counted as sent and is simply in
// flight — the matrix stays unbalanced until the peer has read it, and
// the link's liveness rule says that happens without anyone's help. A
// bound response is queued behind the data frames its counters count.
//
// The layer knows nothing of sockets: asking member i is a function,
// and the transport's read loop hands the answers back through answer.
// Its waits run on the transport's clock.

const (
	sweepTimeout  = 250 * time.Millisecond // an unanswered sweep is abandoned after this
	sweepRetry    = 500 * time.Microsecond // pause after a failed sweep
	sweepInterval = 200 * time.Microsecond // pause between sweeps awaiting stability
	repoll        = 2 * time.Millisecond   // pause before an unsafe verdict
)

// cut is one member's consistent-cut state: the generation and frame
// counters its peers ask for, how it last saw each peer (slices indexed
// by member), and the sweeps it runs itself.
type cut struct {
	self int // this member's index
	// gen is the stability generation sweeps compare: bumped on every
	// deposit into a local mailbox and every local rank-state
	// transition.
	gen   atomic.Uint64
	sent  []atomic.Uint64 // data frames sent to each member
	recvd []atomic.Uint64 // data frames received from each member
	// left: the member announced a planned exit (all its ranks
	// crash-stopped); eof: its connection has drained and closed.
	left, eof []atomic.Bool

	// ask sends a bound request carrying req to member idx.
	ask  func(idx int, req uint64) error
	stop <-chan struct{} // closed when the run aborts
	clk  clock.Clock

	sweeps  atomic.Uint64
	mu      sync.Mutex
	nextReq uint64
	pending map[uint64]chan<- *ctlMsg // outstanding requests, by sweep
}

func newCut(self, n int, ask func(idx int, req uint64) error, stop <-chan struct{}, clk clock.Clock) *cut {
	return &cut{
		self: self, ask: ask, stop: stop, clk: clk,
		sent: make([]atomic.Uint64, n), recvd: make([]atomic.Uint64, n),
		left: make([]atomic.Bool, n), eof: make([]atomic.Bool, n),
		pending: map[uint64]chan<- *ctlMsg{},
	}
}

// row fills m with this member's row of a cut. The generation is loaded
// first, so any change interleaved with what is read after it (the
// counters here, the influence bound by the caller answering a peer)
// makes the next sweep's generation differ and the sweep retry; the
// counters are read before the bound, so a frame landing in between
// shows as unbalanced rather than as a bound that missed it.
func (c *cut) row(m *ctlMsg) *ctlMsg {
	m.Gen = c.gen.Load()
	m.Sent, m.Recvd = make([]uint64, len(c.sent)), make([]uint64, len(c.sent))
	for i := range c.sent {
		m.Sent[i], m.Recvd[i] = c.sent[i].Load(), c.recvd[i].Load()
	}
	return m
}

// answer routes a peer's bound response to the sweep that asked. A
// response nobody waits for (its sweep timed out) is dropped.
func (c *cut) answer(m *ctlMsg) {
	c.mu.Lock()
	ch := c.pending[m.Req]
	delete(c.pending, m.Req)
	c.mu.Unlock()
	if ch != nil {
		ch <- m // never blocks: buffered for every request of its sweep
	}
}

// sweep asks every live peer once and returns the rows by member index,
// this member's own included. Members that left and drained are out:
// their frames are all accounted for on the receive side and they will
// never send again. ok=false — retry later — means a peer announced its
// leave but has not drained (counters cannot balance yet), could not be
// asked, or did not answer in time. A sweep's requests are its own:
// gone from the pending table on every return.
func (c *cut) sweep() (map[int]*ctlMsg, bool) {
	c.sweeps.Add(1)
	rows := map[int]*ctlMsg{c.self: c.row(&ctlMsg{})}
	asked := map[uint64]int{} // request -> member
	answers := make(chan *ctlMsg, len(c.sent))
	defer func() {
		c.mu.Lock()
		for req := range asked {
			delete(c.pending, req)
		}
		c.mu.Unlock()
	}()
	for idx := range c.sent {
		if idx == c.self || c.eof[idx].Load() {
			continue
		}
		if c.left[idx].Load() {
			return nil, false
		}
		c.mu.Lock()
		c.nextReq++
		req := c.nextReq
		c.pending[req] = answers
		c.mu.Unlock()
		asked[req] = idx
		if err := c.ask(idx, req); err != nil {
			return nil, false
		}
	}
	deadline, release := c.clk.After(sweepTimeout)
	defer release()
	for range asked {
		select {
		case resp := <-answers:
			rows[asked[resp.Req]] = resp
		case <-deadline:
			return nil, false
		case <-c.stop:
			return nil, false
		}
	}
	return rows, true
}

// safe reports whether a wildcard match at virtual time at is
// conservative with respect to every other member: true only when a
// stable, balanced cut shows no remote rank able to produce a message
// arriving earlier. It sweeps until two consecutive sweeps agree. An
// unsafe verdict comes a repoll period late: remote progress announces
// nothing to the matcher, which asks again as soon as it hears no.
func (c *cut) safe(at vtime.Time) bool {
	var prev map[int]*ctlMsg
	for {
		select {
		case <-c.stop:
			return false
		default:
		}
		rows, ok := c.sweep()
		if !ok {
			prev = nil
			c.pause(sweepRetry)
			continue
		}
		if prev != nil && sameGenerations(prev, rows) && balanced(len(c.sent), rows) {
			for _, r := range rows {
				if r.HasBound && vtime.Time(r.Bound) < at {
					c.pause(repoll)
					return false
				}
			}
			return true
		}
		prev = rows
		c.pause(sweepInterval)
	}
}

// pause waits d on the clock, or until the run aborts.
func (c *cut) pause(d time.Duration) {
	wait, release := c.clk.After(d)
	defer release()
	select {
	case <-wait:
	case <-c.stop:
	}
}

// sameGenerations reports whether two sweeps saw identical generations
// from the same member set: nothing was deposited and no rank changed
// state anywhere between them.
func sameGenerations(a, b map[int]*ctlMsg) bool {
	if len(a) != len(b) {
		return false
	}
	for idx, ra := range a {
		if rb := b[idx]; rb == nil || ra.Gen != rb.Gen {
			return false
		}
	}
	return true
}

// balanced checks the counter matrix of one sweep over n members: every
// data frame sent between two members of the sweep has been received
// (no frame in flight ⇒ the bound snapshot is a consistent cut). A row
// of the wrong length (it came over a socket) fails the check.
func balanced(n int, rows map[int]*ctlMsg) bool {
	for _, r := range rows {
		if len(r.Sent) != n || len(r.Recvd) != n {
			return false
		}
	}
	for i, ri := range rows {
		for j, rj := range rows {
			if i != j && ri.Sent[j] != rj.Recvd[i] {
				return false
			}
		}
	}
	return true
}
