package mpi

import (
	"sync"

	"chameleon/internal/vtime"
)

// message is one in-flight point-to-point message. Its value travels in
// payload, by reference, or — with scalar set — in u64: the reduce and
// broadcast hops of the u64 collectives carry their operand there, so
// no hop boxes a uint64 into an interface.
type message struct {
	comm    CommID
	scalar  bool
	source  int
	tag     int
	bytes   int
	payload any
	u64     uint64
	// arrive is the virtual time at which the message is fully available
	// at the receiver (sender clock at send + alpha-beta transfer time).
	arrive vtime.Time
	// origin/seq/sendVT are the piggybacked causal span context: the
	// sender's world rank, its per-rank send sequence number (1-based; 0
	// means causal capture was off at send time), and its clock at the
	// moment of injection. The receiver turns them into an obs.Edge when
	// the match completes.
	origin int
	seq    uint64
	sendVT vtime.Time
}

// scalarMsg is the body of a u64 collective hop: 8 bytes, the value in
// the scalar slot.
func scalarMsg(v uint64) message { return message{bytes: 8, u64: v, scalar: true} }

// value returns the message's value as an interface, boxing a scalar:
// the form a receiver that is not a u64 collective gets it in.
func (m *message) value() any {
	if m.scalar {
		return m.u64
	}
	return m.payload
}

// pattern is what a receive matches on; source and tag may be wildcards.
type pattern struct {
	comm   CommID
	source int
	tag    int
}

// mailbox is a rank's incoming message queue with MPI matching semantics:
// Recv matches on (communicator, source-or-ANY, tag-or-ANY) and respects
// non-overtaking order per source. ANY_SOURCE picks the buffered match
// with the earliest virtual arrival time to keep virtual-time runs as
// deterministic as the schedule allows.
//
// It is also the one owner of what its rank is doing. The fields below
// mu are written and read under it: by the rank, by a depositor handing
// a message over, and by the bound scans of wildcard matchers.
type mailbox struct {
	rt   *Runtime
	rank int
	// wake is the rank's one-slot parker. A token can outlive the park
	// it was sent for (an abort's): it costs a later park one extra look.
	wake chan struct{}

	mu   sync.Mutex
	msgs []message
	// state is the rank's rankState; while stateBlocked, want is the
	// pattern it waits on.
	state rankState
	want  pattern
	// parked: the rank sleeps in take until a message matching want is
	// deposited. That deposit clears parked, turns the rank active,
	// leaves the message in slot and wakes the rank; no other does. A
	// rank blocked in takeAny is never parked: a wildcard match is the
	// matcher's to prove safe, not a depositor's to pick. A rank waiting
	// at an evaluated collective's rendezvous (Alltoall, Barrier,
	// Allreduce) sleeps parked on noMatch, and only release wakes it,
	// with the word it leaves with in slot; released is release's note
	// to a rank that had not parked yet.
	parked   bool
	released bool
	slot     message
	seen     map[int]bool // scanAny's scratch: sources already considered
}

// noMatch is what a rank waiting at a rendezvous is blocked on: no
// message is sent on communicator -1, so none can pend for it and no
// deposit hands it one.
var noMatch = pattern{comm: -1, source: AnySource, tag: AnyTag}

func newMailbox(rt *Runtime, rank int) *mailbox {
	return &mailbox{rt: rt, rank: rank, wake: make(chan struct{}, 1)}
}

// unpark wakes the rank if it sleeps in take.
func (m *mailbox) unpark() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// remove takes message i out of the queue. Caller holds m.mu.
func (m *mailbox) remove(i int) message {
	msg := m.msgs[i]
	m.msgs = append(m.msgs[:i], m.msgs[i+1:]...)
	return msg
}

// deposit delivers a message: into the hand of a rank parked on a
// pattern it matches, which it wakes, or onto the queue, waking nobody.
// The hand-over cannot overtake: the parked rank's own scan proved that
// nothing queued matches. The rank turns active in the critical section
// that delivers its message, so no bound scan sees it blocked with
// nothing pending.
func (m *mailbox) deposit(msg message) {
	m.mu.Lock()
	if m.parked && matches(&msg, m.want) {
		m.parked, m.state = false, stateActive
		m.slot = msg
		m.mu.Unlock()
		m.unpark()
		return
	}
	m.msgs = append(m.msgs, msg)
	m.mu.Unlock()
}

func matches(msg *message, want pattern) bool {
	if msg.comm != want.comm {
		return false
	}
	if want.source != AnySource && msg.source != want.source {
		return false
	}
	if want.tag != AnyTag && msg.tag != want.tag {
		return false
	}
	return true
}

// take returns the oldest message matching want, which names a specific
// source: per-source FIFO makes the oldest match the only legal one, so
// no conservation check is needed. A queued match is consumed without
// the rank ever reading as blocked — to a bound scan it is active at its
// old clock, a lower bound than "blocked with the message pending".
// Otherwise one critical section records the rank as blocked on want and
// parks it; deposit hands the match over.
func (m *mailbox) take(want pattern) message {
	m.mu.Lock()
	for i := range m.msgs {
		if matches(&m.msgs[i], want) {
			msg := m.remove(i)
			m.mu.Unlock()
			return msg
		}
	}
	m.state, m.want, m.parked = stateBlocked, want, true
	m.sleep()
	msg := m.slot
	m.slot.payload = nil
	m.mu.Unlock()
	return msg
}

// sleep parks the rank until a hand-over clears parked. The caller
// holds m.mu, has just recorded the rank as blocked and parked, and
// gets m.mu back held.
func (m *mailbox) sleep() {
	m.mu.Unlock()
	m.rt.announce(m.rank)
	for {
		// After a peer rank failed (abortLocal sets the flag, then wakes
		// every rank) unwind instead of deadlocking the run.
		aborted := m.rt.aborted.Load()
		if !aborted {
			<-m.wake
		}
		m.mu.Lock()
		if !m.parked {
			return
		}
		m.parked = !aborted // unwinding, the rank is nobody to hand a message to
		m.mu.Unlock()
		if aborted {
			panic(errAborted)
		}
	}
}

// awaitRelease waits at an evaluated collective's rendezvous until the
// member that arrives last has set this rank's clock to its exit time
// and calls release, and returns the word release handed over.
// Meanwhile the rank reads as blocked on noMatch with nothing pending,
// which influenceBound exempts (Comm.evaluate says why that is
// conservative).
func (m *mailbox) awaitRelease() uint64 {
	m.mu.Lock()
	if !m.released {
		m.state, m.want, m.parked = stateBlocked, noMatch, true
		m.sleep()
	}
	m.released = false
	word := m.slot.u64
	m.mu.Unlock()
	return word
}

// release ends the rank's wait at a rendezvous and hands it word in
// the slot's scalar, as deposit hands a message over: the instance's
// rendezvous slot is recycled once every waiter is released, so the
// waiter must not read it. A parked rank turns active in the critical
// section that wakes it, as deposit turns a receiver active; one that
// has not parked yet finds released set and never does.
func (m *mailbox) release(word uint64) {
	m.mu.Lock()
	m.slot.u64 = word
	if m.parked {
		m.parked, m.state = false, stateActive
		m.mu.Unlock()
		m.unpark()
		return
	}
	m.released = true
	m.mu.Unlock()
}

// scanAny returns the index of the best wildcard candidate: among each
// source's oldest matching message (per-source FIFO preserves
// non-overtaking), the earliest virtual arrival wins, ties breaking on
// the lower source rank for determinism. Returns -1 when no message
// matches. Caller holds m.mu.
func (m *mailbox) scanAny(want pattern) int {
	best := -1
	if m.seen == nil {
		m.seen = make(map[int]bool)
	}
	clear(m.seen)
	for i := range m.msgs {
		if !matches(&m.msgs[i], want) || m.seen[m.msgs[i].source] {
			continue
		}
		m.seen[m.msgs[i].source] = true
		if best == -1 ||
			m.msgs[i].arrive < m.msgs[best].arrive ||
			(m.msgs[i].arrive == m.msgs[best].arrive && m.msgs[i].source < m.msgs[best].source) {
			best = i
		}
	}
	return best
}

// minArriveMatching returns the earliest arrival among queued messages
// that match want — the only messages that can unblock a receiver
// waiting on that pattern. Non-matching messages are consumed later,
// after a matching one has already unblocked the rank, so they never
// accelerate it. Caller holds m.mu.
func (m *mailbox) minArriveMatching(want pattern) (vtime.Time, bool) {
	min, ok := vtime.Time(0), false
	for i := range m.msgs {
		if !matches(&m.msgs[i], want) {
			continue
		}
		if !ok || m.msgs[i].arrive < min {
			min, ok = m.msgs[i].arrive, true
		}
	}
	return min, ok
}

// pending returns the number of queued messages (diagnostics / tests).
func (m *mailbox) pending() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.msgs)
}
