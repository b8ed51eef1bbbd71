package mpi

import (
	"sync"

	"chameleon/internal/vtime"
)

// Transport routes point-to-point messages between world ranks and
// scopes the conservative matcher's visibility. The in-process backend
// (the default) hosts every rank in this process and routes through the
// shared mailbox array; the TCP backend hosts a contiguous slice of the
// world in each OS process and routes the rest over sockets.
//
// The interface is intentionally unexported-method-only: both backends
// live in this package (they need the message/mailbox internals), and
// callers outside it — chameleon.Config, cmd/chamrun — only construct
// and pass transports, never implement them.
type Transport interface {
	// hosted returns the inclusive range of world ranks this process
	// hosts, given the world size p. mpi.Run spawns one goroutine per
	// hosted rank; remote ranks have no goroutine, mailbox, or Proc
	// here.
	hosted(p int) (lo, hi int)

	// start binds the runtime once local procs and mailboxes exist and
	// before any rank goroutine runs. Network backends start their
	// frame readers here.
	start(rt *Runtime) error

	// deposit routes a message to world rank dest: a local enqueue
	// (plus wildcard-matcher wakeup) or an encoded frame to the hosting
	// peer. Called from the sending rank's goroutine; per-rank send
	// order must be preserved end to end (MPI non-overtaking).
	deposit(dest int, msg message)

	// remoteSafe reports whether a wildcard match of a message arriving
	// at virtual time t on local rank self is conservative with respect
	// to ranks hosted by other processes: no remote rank can still
	// produce a message arriving before t. The in-process backend hosts
	// everyone and returns true; the TCP backend runs a counter-stable
	// bound sweep over its peers (see cut.go).
	remoteSafe(self int, t vtime.Time) bool

	// allocComm reserves n consecutive world-unique communicator IDs
	// and returns the first. Called from one rank of a collective (the
	// root), which then broadcasts the block.
	allocComm(n int) CommID

	// noteState observes a local rank-state transition; network
	// backends fold it into the stability generation their peers'
	// bound sweeps check. The in-process backend ignores it.
	noteState(rank int)

	// noteAbort propagates a fatal local failure to every process of
	// the world (local wakeups are the runtime's job).
	noteAbort()

	// noteDeparted records that a local rank crash-stopped. The TCP
	// backend uses it to physically exit the process once every rank it
	// hosts is gone (crash = killed process).
	noteDeparted(rank int)

	// finish completes the run: network backends exchange per-rank
	// results so every process returns the same world-wide Result, and
	// synchronize teardown so no peer loses in-flight frames. departed
	// lists the local ranks that crash-stopped, ascending.
	finish(res *Result, departed []int) (*Result, error)

	// close releases transport resources; safe after finish or on the
	// error path.
	close()
}

// inProcTransport is the default backend: all ranks live in this
// process and share the runtime's mailbox array. Every method compiles
// to the pre-seam code path; a run with a nil Config.Transport is
// bit-identical to one built before the seam existed.
type inProcTransport struct {
	rt       *Runtime
	commMu   sync.Mutex
	nextComm CommID // next CommID a Dup or Split is handed
}

func (t *inProcTransport) hosted(p int) (lo, hi int) { return 0, p - 1 }

func (t *inProcTransport) start(rt *Runtime) error {
	t.rt, t.nextComm = rt, commUserBase
	return nil
}

func (t *inProcTransport) deposit(dest int, msg message) {
	t.rt.depositLocal(dest, msg)
}

func (t *inProcTransport) remoteSafe(int, vtime.Time) bool { return true }

func (t *inProcTransport) noteState(int) {}

func (t *inProcTransport) allocComm(n int) CommID {
	t.commMu.Lock()
	defer t.commMu.Unlock()
	id := t.nextComm
	t.nextComm += CommID(n)
	return id
}

func (t *inProcTransport) noteAbort()       {}
func (t *inProcTransport) noteDeparted(int) {}

func (t *inProcTransport) finish(res *Result, departed []int) (*Result, error) {
	res.Departed = departed
	res.Makespan = vtime.Duration(res.MaxClock())
	return res, nil
}

func (t *inProcTransport) close() {}
