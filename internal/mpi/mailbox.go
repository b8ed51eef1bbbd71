package mpi

import (
	"sync"
	"sync/atomic"

	"chameleon/internal/vtime"
)

// message is one in-flight point-to-point message.
type message struct {
	comm    CommID
	source  int
	tag     int
	bytes   int
	payload any
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

// mailbox is a rank's incoming message queue with MPI matching semantics:
// Recv matches on (communicator, source-or-ANY, tag-or-ANY) and respects
// non-overtaking order per source. ANY_SOURCE picks the buffered match
// with the earliest virtual arrival time to keep virtual-time runs as
// deterministic as the schedule allows.
type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	msgs []message
	// aborted points at the runtime's abort flag so blocked receivers
	// unwind when a peer rank panics instead of deadlocking the run.
	aborted *atomic.Bool
	// state points at the owning rank's rankState: a matched message
	// leaving the queue and the rank unblocking are one step (remove).
	state *atomic.Int32
}

func newMailbox(aborted *atomic.Bool, state *atomic.Int32) *mailbox {
	m := &mailbox{aborted: aborted, state: state}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// remove takes message i out of the queue for the owning rank, which it
// first marks active: a bound scan holding mu (Runtime.influenceBound)
// sees the rank either still blocked with the message pending or
// already active, never blocked with nothing pending. Caller holds m.mu.
func (m *mailbox) remove(i int) message {
	m.state.Store(int32(stateActive))
	msg := m.msgs[i]
	m.msgs = append(m.msgs[:i], m.msgs[i+1:]...)
	return msg
}

// deposit enqueues a message and wakes blocked receivers.
func (m *mailbox) deposit(msg message) {
	m.mu.Lock()
	m.msgs = append(m.msgs, msg)
	m.mu.Unlock()
	m.cond.Broadcast()
}

func matches(msg *message, comm CommID, source, tag int) bool {
	if msg.comm != comm {
		return false
	}
	if source != AnySource && msg.source != source {
		return false
	}
	if tag != AnyTag && msg.tag != tag {
		return false
	}
	return true
}

// take blocks until a message matching (comm, source, tag) from the
// given specific source is available and removes it from the queue.
// Specific-source matching needs no conservation check: per-source FIFO
// makes the oldest match the only legal one.
func (m *mailbox) take(comm CommID, source, tag int) message {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		for i := range m.msgs {
			if matches(&m.msgs[i], comm, source, tag) {
				return m.remove(i)
			}
		}
		if m.aborted != nil && m.aborted.Load() {
			panic(errAborted)
		}
		m.cond.Wait()
	}
}

// scanAny returns the index of the best wildcard candidate: among each
// source's oldest matching message (per-source FIFO preserves
// non-overtaking), the earliest virtual arrival wins, ties breaking on
// the lower source rank for determinism. Returns -1 when no message
// matches. Caller holds m.mu.
func (m *mailbox) scanAny(comm CommID, tag int) int {
	best := -1
	var seen map[int]bool
	for i := range m.msgs {
		if !matches(&m.msgs[i], comm, AnySource, tag) {
			continue
		}
		if seen == nil {
			seen = make(map[int]bool)
		}
		if seen[m.msgs[i].source] {
			continue
		}
		seen[m.msgs[i].source] = true
		if best == -1 ||
			m.msgs[i].arrive < m.msgs[best].arrive ||
			(m.msgs[i].arrive == m.msgs[best].arrive && m.msgs[i].source < m.msgs[best].source) {
			best = i
		}
	}
	return best
}

// minArriveMatching returns the earliest arrival among queued messages
// that match the given (comm, source, tag) pattern — the only messages
// that can unblock a receiver waiting on that pattern. Non-matching
// messages are consumed later, after a matching one has already
// unblocked the rank, so they never accelerate it. Caller holds m.mu.
func (m *mailbox) minArriveMatching(comm CommID, source, tag int) (vtime.Time, bool) {
	min, ok := vtime.Time(0), false
	for i := range m.msgs {
		if !matches(&m.msgs[i], comm, source, tag) {
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
