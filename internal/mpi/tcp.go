package mpi

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"chameleon/internal/clock"
	"chameleon/internal/obs"
	"chameleon/internal/vtime"
)

// TCP transport: one world of P ranks spread over N OS processes, each
// hosting a contiguous rank range. This file wires the layers together:
// it forms the fleet (rendezvous.go), keeps a link (link.go) to the
// coordinator and to every peer, routes frames (frame.go) between them
// and the runtime and the cut (cut.go), and owns the lifecycle.
//
// Determinism: all timing is virtual and program-derived (vtime), so
// frame delivery timing never influences clocks; collectives use
// specific-source receives; call-site signatures are PC-derived and
// identical across processes of the same binary. A fleet run therefore
// produces bit-identical trace signatures to the in-process run of the
// same seed — transport_e2e_test.go locks this in. Every timed wait
// runs on the transport's one clock.Clock and ends in an error naming
// what it awaited, or in abort; the one wall-clock read left is
// link.close's write deadline, a kernel option on a real write.

// resultTimeout bounds each wait for a reply from the coordinator: a
// peer that died mid-exchange without notice surfaces here, as an abort.
const resultTimeout = 50 * time.Second

// TCPStats counts transport work for the benchmark harness: data frames
// (and body bytes) sent to peers, the writes that carried them and the
// control documents to the connections, every frame read, and sweeps
// run.
type TCPStats struct {
	FramesOut, BytesOut uint64
	WritesOut           uint64
	FramesIn, BytesIn   uint64
	BoundSweeps         uint64
}

// The transport's lifecycle phase, monotone: start, finish and close
// advance it, in that order (close from any phase).
const (
	phaseForming   int32 = iota // rendezvous and mesh under construction
	phaseRunning                // rank goroutines executing
	phaseFinishing              // every local rank completed; result exchange begun
	phaseDone                   // world-wide results in hand
	phaseClosed                 // connections released
)

// coordinator keys the rendezvous link among a member's links, whose
// other keys are the peers' member indices.
const coordinator = -1

// TCPTransport implements Transport over a fleet of OS processes.
type TCPTransport struct {
	opts    TCPOptions
	clk     clock.Clock
	rt      *Runtime
	info    FleetInfo
	members []memberSpec
	owner   []int         // world rank -> member index
	links   map[int]*link // every connection of this member
	cut     *cut

	// replies carries the coordinator's answers: allocr to the rank
	// waiting in allocComm, final to finish (which starts only once
	// every rank is done). One slot: the read loop need not wait.
	replies   chan *ctlMsg
	abortCh   chan struct{}
	abortOnce sync.Once
	reason    atomic.Pointer[string] // why the fleet aborted

	departed atomic.Int32 // local ranks that crash-stopped
	leftMu   sync.Mutex   // serializes peerLeft
	stats    struct {
		framesOut, bytesOut atomic.Uint64
		framesIn, bytesIn   atomic.Uint64
	}
	phase atomic.Int32

	srvLn net.Listener      // rendezvous listener; non-nil on the process that won the bind
	srv   *rendezvousServer // the coordinator served on srvLn
	ln    net.Listener      // data listener
}

// NewTCPTransport performs the rendezvous (bind-or-dial the join
// address, register, mesh with every peer) and returns a transport
// ready for mpi.Run. It blocks until the whole fleet has formed, or
// fails naming the wait it was in once formTimeout has passed.
func NewTCPTransport(opts TCPOptions) (*TCPTransport, error) {
	return newTCPTransport(opts, clock.Real{})
}

// newTCPTransport is NewTCPTransport with every timed wait on clk.
func newTCPTransport(opts TCPOptions, clk clock.Clock) (t *TCPTransport, err error) {
	if opts.P <= 0 || opts.RankLo < 0 || opts.RankHi < opts.RankLo || opts.RankHi >= opts.P {
		return nil, fmt.Errorf("mpi: invalid rank range %d..%d of world %d", opts.RankLo, opts.RankHi, opts.P)
	}
	t = &TCPTransport{
		opts: opts, clk: clk, links: map[int]*link{},
		replies: make(chan *ctlMsg, 1), abortCh: make(chan struct{}),
	}
	defer func() {
		if err != nil {
			t.close()
			t = nil
		}
	}()
	// Bind-or-dial the rendezvous: losing the bind race just means
	// someone else coordinates. Before the data listener, or the kernel
	// may hand that one a join port the caller has just probed free, and
	// every member dials a listener that never answers.
	if t.srvLn, err = net.Listen("tcp", opts.Join); err == nil {
		t.srv = newRendezvousServer(opts.P, opts.Session)
		go t.srv.serve(t.srvLn)
		t.logf("coordinating fleet on %s", opts.Join)
	}
	// The data listener's address goes into the registration.
	if t.ln, err = net.Listen("tcp", ":0"); err != nil {
		return t, fmt.Errorf("mpi: data listener: %w", err)
	}
	coord, err := dialLink(clk, opts.Join)
	if err != nil {
		return t, fmt.Errorf("mpi: rendezvous %s: %w", opts.Join, err)
	}
	t.links[coordinator] = coord
	// One deadline over the handshake: on expiry the rendezvous link and
	// the data listener close under whichever wait holds them.
	deadline, release := clk.After(formTimeout)
	defer release()
	formed := make(chan error, 1)
	go func() {
		formed <- handshake(coord, &ctlMsg{
			T: "register", Lo: opts.RankLo, Hi: opts.RankHi,
			P: opts.P, Addr: t.ln.Addr().String(), FP: opts.Fingerprint,
		}, t.mesh)
	}()
	select {
	case err = <-formed:
	case <-deadline:
		coord.close()
		t.ln.Close()
		err = fmt.Errorf("%v: fleet not formed within %v", <-formed, formTimeout)
	}
	if err != nil {
		return t, err
	}
	t.logf("fleet formed: session=%s member=%d/%d ranks=%d..%d",
		t.info.Session, t.info.Member, t.info.Members, opts.RankLo, opts.RankHi)
	return t, nil
}

// mesh places this member in the roster and connects it to every peer.
func (t *TCPTransport) mesh(roster *ctlMsg) (err error) {
	if t.owner, err = rankOwners(roster.Members, t.opts.P); err != nil {
		return err
	}
	self, n := t.owner[t.opts.RankLo], len(roster.Members)
	if roster.Members[self].Hi != t.opts.RankHi {
		return fmt.Errorf("mpi: roster does not contain this member")
	}
	t.members = roster.Members
	t.info = FleetInfo{Session: roster.Session, Member: self, Members: n, HostsRank0: t.opts.RankLo == 0}
	t.cut = newCut(self, n, func(idx int, req uint64) error {
		return t.links[idx].sendCtl(&ctlMsg{T: "breq", Req: req})
	}, t.abortCh, t.clk)
	return buildMesh(t.clk, t.links, t.ln, t.members, self)
}

// Info describes the formed fleet.
func (t *TCPTransport) Info() FleetInfo { return t.info }

// Stats snapshots the transport counters.
func (t *TCPTransport) Stats() TCPStats {
	s := TCPStats{
		FramesOut:   t.stats.framesOut.Load(),
		BytesOut:    t.stats.bytesOut.Load(),
		FramesIn:    t.stats.framesIn.Load(),
		BytesIn:     t.stats.bytesIn.Load(),
		BoundSweeps: t.cut.sweeps.Load(),
	}
	for _, l := range t.links {
		s.WritesOut += l.writes.Load()
	}
	return s
}

func (t *TCPTransport) logf(format string, args ...any) {
	if t.opts.Logf != nil {
		t.opts.Logf(format, args...)
	}
}

// who names the far end of a link in logs and journal notes.
func (t *TCPTransport) who(from int) string {
	if from == coordinator {
		return "the coordinator"
	}
	return fmt.Sprintf("member %d (ranks %d-%d)", from, t.members[from].Lo, t.members[from].Hi)
}

// --- lifecycle ---------------------------------------------------------------

// quiet is the one answer to "is an EOF or write error on the link to
// `from` expected now?". After an abort, or once the world-wide results
// are in hand, every one is. A mesh connection may also close once its
// peer announced a planned leave, or once our own result exchange has
// begun: every local rank already ran to completion, so no data can be
// pending, and a peer that finished first closes on exit (one that
// truly died mid-exchange surfaces as the result timeout instead). The
// coordinator must outlive the exchange.
func (t *TCPTransport) quiet(from int) bool {
	ph := t.phase.Load()
	if t.rt.aborted.Load() || ph >= phaseDone {
		return true
	}
	return from != coordinator && (t.cut.left[from].Load() || ph == phaseFinishing)
}

// abort is the one abort path: it unwinds this process's ranks and
// tells every peer and the coordinator (which relays to all, members
// still forming included). A process told to abort tells everyone
// again; abort runs once per process, so the echo dies after one round.
func (t *TCPTransport) abort(format string, args ...any) {
	t.abortOnce.Do(func() {
		msg := fmt.Sprintf(format, args...)
		t.reason.Store(&msg)
		t.logf("fleet abort: %s", msg)
		t.rt.abortLocal()
		close(t.abortCh)
		for _, l := range t.links {
			l.sendCtl(&ctlMsg{T: "abort", Msg: msg})
		}
	})
}

// writeFailed routes a failed write on the link to `to` — met by a
// sender, or later by the link's writer — to the one abort path, and
// reports whether it did: when quiet says the failure is expected it is
// dropped.
func (t *TCPTransport) writeFailed(to int, err error) bool {
	if t.quiet(to) {
		return false
	}
	t.abort("write to %s: %v", t.who(to), err)
	return true
}

// close is the one teardown, from any phase: a failed rendezvous, a
// planned crash exit, the error path of Run, or a completed run. Each
// link writes what it still has queued before its connection closes.
func (t *TCPTransport) close() {
	if t.phase.Swap(phaseClosed) == phaseClosed {
		return
	}
	for _, l := range t.links {
		l.close()
	}
	if t.ln != nil {
		t.ln.Close()
	}
	if t.srvLn != nil {
		// The coordinator must outlive the exchange: every broadcast
		// runs under its lock, so once the lock has been had, a final
		// this process already received is written to every other member
		// too, and the process may exit.
		t.srv.mu.Lock()
		t.srv.mu.Unlock() //nolint:staticcheck — the empty section is the wait
		t.srvLn.Close()
	}
}

// --- Transport interface ---------------------------------------------------

func (t *TCPTransport) hosted(int) (lo, hi int) { return t.opts.RankLo, t.opts.RankHi }

func (t *TCPTransport) start(rt *Runtime) error {
	t.rt = rt
	t.phase.Store(phaseRunning)
	for from, l := range t.links {
		l.onWriteErr = func(err error) { t.writeFailed(from, err) }
		go t.readLoop(l, from)
	}
	return nil
}

func (t *TCPTransport) deposit(dest int, msg message) {
	if t.rt.mailboxes[dest] != nil {
		t.rt.depositLocal(dest, msg)
		t.cut.gen.Add(1)
		return
	}
	to := t.owner[dest]
	size, err := t.links[to].sendData(dest, msg)
	if errors.Is(err, errUnencodable) {
		// Programming error (unregistered payload type): unwind this
		// rank; Run reports it and aborts the fleet.
		panic(err)
	}
	t.cut.sent[to].Add(1)
	t.stats.framesOut.Add(1)
	t.stats.bytesOut.Add(uint64(size))
	if err != nil && t.writeFailed(to, err) {
		panic(errAborted)
	}
}

// readLoop drains the link to `from`: data frames (from peers only)
// become local deposits, control documents drive sweeps, comm
// allocation, results and lifecycle (ignored from the wrong sender).
func (t *TCPTransport) readLoop(l *link, from int) {
	peer := from != coordinator
	for {
		body, err := l.recv()
		if err != nil {
			t.linkDown(from, err)
			return
		}
		t.stats.framesIn.Add(1)
		t.stats.bytesIn.Add(uint64(len(body)))
		dest, msg, ctl, err := decodeFrame(body)
		if err != nil {
			t.abort("poisoned frame from %s: %v", t.who(from), err)
			return
		}
		if ctl == nil {
			if !peer || dest >= t.opts.P || t.rt.mailboxes[dest] == nil {
				t.abort("misrouted frame from %s for rank %d", t.who(from), dest)
				return
			}
			t.cut.recvd[from].Add(1)
			t.cut.gen.Add(1)
			t.rt.depositLocal(dest, msg)
			continue
		}
		switch {
		case ctl.T == "abort":
			t.abort("aborted by %s: %s", t.who(from), ctl.Msg)
			return
		case ctl.T == "final" && !peer:
			// World-wide results are in hand. The coordinator's process
			// may exit right behind this frame; marking it here, on the
			// goroutine that will read that EOF, keeps it from being
			// taken for a lost rendezvous.
			t.phase.CompareAndSwap(phaseFinishing, phaseDone)
			t.replies <- ctl
		case ctl.T == "allocr" && !peer:
			t.replies <- ctl
		case ctl.T == "breq" && peer:
			// The answer carries the bound over every rank hosted here.
			resp := t.cut.row(&ctlMsg{T: "bresp", Req: ctl.Req})
			bound, has := t.rt.influenceBound(-1)
			resp.Bound, resp.HasBound = int64(bound), has
			if err := l.sendCtl(resp); err != nil && !t.quiet(from) {
				t.abort("bound response to %s: %v", t.who(from), err)
			}
		case ctl.T == "bresp" && peer:
			t.cut.answer(ctl)
		case ctl.T == "leaving" && peer:
			t.peerLeft(from)
		}
	}
}

// peerLeft records and journals, once, a member's planned process exit
// (every rank it hosted crash-stopped). The read loop calls it on the
// member's "leaving" notice and finish for every member the final names
// — a short run can end before the notice is read — so finish returns,
// and its caller closes the journal, only after the event is in it.
func (t *TCPTransport) peerLeft(from int) {
	t.leftMu.Lock()
	defer t.leftMu.Unlock()
	if !t.cut.left[from].Swap(true) {
		t.cut.gen.Add(1)
		t.rt.bump()
		t.journal(from, "peer-exit: %s crash-stopped and left the fleet", t.who(from))
	}
}

// linkDown handles a connection closing under its read loop. Expected
// when quiet says so; otherwise the coordinator vanished or a peer was
// killed without warning — journal it as a crash and abort (without the
// shared fault plan the survivors have no oracle to recover with).
func (t *TCPTransport) linkDown(from int, err error) {
	if from != coordinator {
		t.cut.eof[from].Store(true)
		t.cut.gen.Add(1)
		t.rt.bump()
	}
	switch {
	case t.quiet(from):
	case from == coordinator:
		t.abort("rendezvous connection lost: %v", err)
	default:
		t.journal(from, "peer-lost: %s died without notice: %v", t.who(from), err)
		t.abort("%s lost: %v", t.who(from), err)
	}
}

// journal records a fleet-membership fault against the member's first
// rank and logs it.
func (t *TCPTransport) journal(member int, format string, args ...any) {
	note := fmt.Sprintf(format, args...)
	t.logf("%s", note)
	if o := t.rt.obs; o != nil {
		o.Emit(obs.Event{Kind: obs.KindFault, Rank: t.members[member].Lo, Note: note})
	}
}

func (t *TCPTransport) remoteSafe(self int, at vtime.Time) bool {
	return len(t.members) == 1 || t.cut.safe(at)
}

func (t *TCPTransport) noteState(int) { t.cut.gen.Add(1) }

func (t *TCPTransport) noteAbort() { t.abort("local rank failure") }

func (t *TCPTransport) allocComm(n int) CommID {
	if err := t.links[coordinator].sendCtl(&ctlMsg{T: "alloc", N: n}); err != nil {
		t.abort("comm alloc: %v", err)
		panic(errAborted)
	}
	m, err := t.reply("a comm allocation")
	if err != nil {
		panic(errAborted)
	}
	return CommID(m.Base)
}

// reply awaits the coordinator's answer to a request; no answer within
// resultTimeout aborts the fleet.
func (t *TCPTransport) reply(what string) (*ctlMsg, error) {
	expire, release := t.clk.After(resultTimeout)
	defer release()
	select {
	case m := <-t.replies:
		return m, nil
	case <-expire:
		t.abort("timed out after %v awaiting %s", resultTimeout, what)
	case <-t.abortCh:
	}
	return nil, errors.New("mpi: " + *t.reason.Load())
}

// report snapshots the local ranks' final clocks and ledgers as a
// result or leaving document for the coordinator.
func (t *TCPTransport) report(typ string, departed []int) *ctlMsg {
	m := &ctlMsg{T: typ, Ranks: t.rt.local, Departed: departed}
	for _, r := range m.Ranks {
		m.Clocks = append(m.Clocks, int64(t.rt.procs[r].Clock.Now()))
		m.Ledgers = append(m.Ledgers, t.rt.procs[r].Ledger.Snapshot())
	}
	return m
}

// noteDeparted tracks local crash-stops. Once every rank hosted here is
// gone the process leaves the fleet: it announces the exit on all
// connections (with its final clocks, which the coordinator keeps so
// results stay complete), then — crash = killed process — SIGKILLs
// itself when ExitOnCrash is set.
func (t *TCPTransport) noteDeparted(rank int) {
	if int(t.departed.Add(1)) < len(t.rt.local) || !t.opts.ExitOnCrash {
		return
	}
	// Nothing more is expected of any connection: the coordinator hangs
	// up on a member that announced "leaving", and that EOF, read in the
	// moments before the self-kill, must not abort the survivors as a
	// lost rendezvous.
	t.phase.Store(phaseDone)
	last := t.report("leaving", t.rt.local)
	for _, l := range t.links {
		l.sendCtl(last)
	}
	t.logf("all local ranks crash-stopped; leaving the fleet (SIGKILL self)")
	if f := t.opts.OnCrashExit; f != nil {
		f()
	}
	// Closing the connections first pushes every queued byte to the
	// kernel with a clean FIN, so peers see an orderly drain, then the
	// process dies exactly as a killed rank-process would.
	t.close()
	syscall.Kill(os.Getpid(), syscall.SIGKILL)
}

func (t *TCPTransport) finish(res *Result, departed []int) (*Result, error) {
	t.phase.Store(phaseFinishing)
	if err := t.links[coordinator].sendCtl(t.report("result", departed)); err != nil {
		return nil, fmt.Errorf("mpi: result exchange: %w", err)
	}
	final, err := t.reply("fleet results")
	if err != nil {
		return nil, err
	}
	if len(final.Clocks) != t.opts.P || len(final.Ledgers) != t.opts.P {
		return nil, fmt.Errorf("mpi: malformed final results")
	}
	for r := 0; r < t.opts.P; r++ {
		res.Clocks[r] = vtime.Time(final.Clocks[r])
		if res.Ledgers[r] == nil {
			res.Ledgers[r] = &vtime.Ledger{}
			res.Ledgers[r].Restore(final.Ledgers[r])
		}
	}
	for _, m := range final.Left {
		if m >= 0 && m < len(t.members) {
			t.peerLeft(m)
		}
	}
	res.Departed = final.Departed
	res.Makespan = vtime.Duration(res.MaxClock())
	return res, nil
}
