package mpi

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"

	"chameleon/internal/clock"
	"chameleon/internal/vtime"
)

// Rendezvous: how N processes become one fleet. Every process dials the
// -join address (whichever wins the bind race also serves it, see
// NewTCPTransport), registers its rank range, data listener and config
// fingerprint, and waits for the roster; the members then build the
// data mesh, report ready, and the coordinator's start releases the
// run. Afterwards the same connection serves three tiny RPCs:
// world-unique communicator allocation, result aggregation, and abort
// relay. Both halves are plain functions of a link.

// TCPOptions parameterizes a fleet member.
type TCPOptions struct {
	// Join is the rendezvous address (host:port). The first process to
	// bind it becomes the coordinator; everyone (including the
	// coordinator's own member) dials it.
	Join string
	// RankLo/RankHi is the inclusive world-rank range hosted here.
	RankLo, RankHi int
	// P is the world size; all members must agree.
	P int
	// Session labels the fleet (live telemetry attribution); empty lets
	// the coordinator generate one. Non-coordinator values are ignored.
	Session string
	// Fingerprint guards against mismatched fleet configs (different
	// seeds, plans, models); all members must present the same value.
	Fingerprint string
	// ExitOnCrash makes a process whose local ranks have all
	// crash-stopped physically exit (SIGKILL itself) after notifying
	// the fleet — crash = killed process. Survivor failover keeps
	// running over the sockets.
	ExitOnCrash bool
	// OnCrashExit runs just before the self-kill (flush journals).
	OnCrashExit func()
	// Logf, when non-nil, receives transport progress lines.
	Logf func(format string, args ...any)
}

// FleetInfo describes the formed fleet.
type FleetInfo struct {
	// Session is the fleet-wide session ID (coordinator-assigned).
	Session string
	// Member is this process's index (position by ascending rank
	// range); Members is the fleet size.
	Member, Members int
	// HostsRank0 reports whether world rank 0 runs here (the process
	// that owns the merged trace and prints results).
	HostsRank0 bool
}

// await reads control documents from l until one of type want arrives;
// an err or abort document fails immediately.
func await(l *link, want string) (*ctlMsg, error) {
	for {
		m, err := l.recvCtl()
		if err != nil {
			return nil, fmt.Errorf("mpi: rendezvous closed awaiting %s: %w", want, err)
		}
		switch m.T {
		case want:
			return m, nil
		case "err", "abort":
			return nil, fmt.Errorf("mpi: rendezvous: %s", m.Msg)
		}
	}
}

// handshake runs the member side of fleet formation over the rendezvous
// link: register, await the roster, build the mesh it describes, report
// ready, await the start.
func handshake(l *link, reg *ctlMsg, mesh func(roster *ctlMsg) error) error {
	if err := l.sendCtl(reg); err != nil {
		return fmt.Errorf("mpi: register: %w", err)
	}
	roster, err := await(l, "roster")
	if err != nil {
		return err
	}
	if err := mesh(roster); err != nil {
		return err
	}
	if err := l.sendCtl(&ctlMsg{T: "ready"}); err != nil {
		return fmt.Errorf("mpi: ready: %w", err)
	}
	_, err = await(l, "start")
	return err
}

// rankOwners maps every world rank to the index of the roster member
// hosting it, rejecting a roster whose (sorted) members do not tile
// [0,p) exactly: the roster arrives over a socket, and the table is
// indexed on the hot path without further checks.
func rankOwners(members []memberSpec, p int) ([]int, error) {
	owner := make([]int, 0, p)
	for i, m := range members {
		if m.Lo != len(owner) || m.Hi < m.Lo || m.Hi >= p {
			return nil, fmt.Errorf("mpi: roster member %d (ranks %d..%d) does not continue the tiling of [0,%d) at rank %d", i, m.Lo, m.Hi, p, len(owner))
		}
		for r := m.Lo; r <= m.Hi; r++ {
			owner = append(owner, i)
		}
	}
	if len(owner) != p {
		return nil, fmt.Errorf("mpi: roster covers %d of %d ranks", len(owner), p)
	}
	return owner, nil
}

// buildMesh connects member self to every other member, adding the
// links by member index (the caller closes them, on failure too): it
// dials every lower-indexed member's data listener, then accepts from
// every higher-indexed one, the dialer's hello binding each connection
// to a member. (Dials complete in the listener's backlog, so nobody
// waits on anybody's accept loop.)
func buildMesh(clk clock.Clock, links map[int]*link, ln net.Listener, members []memberSpec, self int) error {
	for j := 0; j < self; j++ {
		l, err := dialLink(clk, members[j].Addr)
		if err != nil {
			return fmt.Errorf("mpi: mesh dial member %d (%s): %w", j, members[j].Addr, err)
		}
		links[j] = l
		if err := l.sendCtl(&ctlMsg{T: "hello", Member: self}); err != nil {
			return fmt.Errorf("mpi: mesh hello to member %d: %w", j, err)
		}
	}
	for j := self + 1; j < len(members); j++ {
		conn, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("mpi: mesh accept: %w", err)
		}
		l := newLink(conn)
		hello, err := l.recvCtl()
		if err != nil || hello.T != "hello" || hello.Member <= self || hello.Member >= len(members) || links[hello.Member] != nil {
			l.close()
			return fmt.Errorf("mpi: mesh accept: bad hello (%v)", err)
		}
		links[hello.Member] = l
	}
	return nil
}

// rendezvousServer is the coordinator. It runs inside whichever process
// won the bind race, one handle goroutine per accepted connection.
type rendezvousServer struct {
	p       int
	session string

	mu       sync.Mutex
	regs     []*regEntry // sorted by rank range once started
	started  bool        // ranges tile [0,p): roster sent, no more registrations
	ready    int
	reported int
	nextComm int64
	fp       string // the first registration's fingerprint
	aborted  bool
}

type regEntry struct {
	spec   memberSpec
	link   *link
	ready  bool
	result *ctlMsg // the member's "result" or "leaving" document
}

func newRendezvousServer(p int, session string) *rendezvousServer {
	if session == "" {
		var b [8]byte
		rand.Read(b[:]) // crypto/rand.Read does not fail
		session = hex.EncodeToString(b[:])
	}
	return &rendezvousServer{p: p, session: session, nextComm: int64(commUserBase)}
}

func (s *rendezvousServer) serve(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go s.handle(newLink(conn))
	}
}

// handle serves one rendezvous connection. The first document must be
// register: until then the connection is a stranger on the join port
// and anything else it says closes that connection only. Once it is a
// member, losing it (EOF, poisoned frame, protocol violation) before it
// reported is fatal for the fleet.
func (s *rendezvousServer) handle(l *link) {
	defer l.close()
	m, err := l.recvCtl()
	if err != nil || m.T != "register" {
		return
	}
	me, err := s.register(m, l)
	if err != nil {
		l.sendCtl(&ctlMsg{T: "err", Msg: err.Error()})
		// A bad registration (config mismatch, overlapping ranges) is
		// fatal for the whole rendezvous: the fleet can never complete,
		// so release the waiting members.
		s.abort(fmt.Sprintf("rejected member: %v", err))
		return
	}
	for {
		m, err := l.recvCtl()
		if err != nil {
			s.memberLost(me)
			return
		}
		switch m.T {
		case "register":
			l.sendCtl(&ctlMsg{T: "err", Msg: "duplicate registration"})
			s.memberLost(me)
			return
		case "ready":
			s.memberReady(me)
		case "alloc":
			s.mu.Lock()
			base := s.nextComm
			if m.N > 0 {
				s.nextComm += int64(m.N)
			}
			s.mu.Unlock()
			l.sendCtl(&ctlMsg{T: "allocr", Base: base})
		case "result", "leaving":
			s.memberDone(me, m)
			if m.T == "leaving" {
				// The connection is about to die with the process; the
				// member never awaits a final.
				return
			}
		case "abort":
			s.abort(m.Msg)
		}
	}
}

// register admits one member; when the ranges exactly tile [0,P) the
// roster goes out.
func (s *rendezvousServer) register(m *ctlMsg, l *link) (*regEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started || s.aborted {
		return nil, fmt.Errorf("fleet already formed or aborted")
	}
	if m.P != s.p {
		return nil, fmt.Errorf("world size mismatch: coordinator has P=%d, member registered P=%d", s.p, m.P)
	}
	if len(s.regs) > 0 && m.FP != s.fp {
		return nil, fmt.Errorf("config fingerprint mismatch (different seeds/plans across the fleet?)")
	}
	if m.Lo < 0 || m.Hi < m.Lo || m.Hi >= s.p {
		return nil, fmt.Errorf("invalid rank range %d..%d for P=%d", m.Lo, m.Hi, s.p)
	}
	covered := m.Hi - m.Lo + 1
	for _, r := range s.regs {
		if m.Lo <= r.spec.Hi && r.spec.Lo <= m.Hi {
			return nil, fmt.Errorf("rank range %d..%d overlaps member %d..%d", m.Lo, m.Hi, r.spec.Lo, r.spec.Hi)
		}
		covered += r.spec.Hi - r.spec.Lo + 1
	}
	addr := m.Addr
	if host, port, err := net.SplitHostPort(addr); err == nil {
		if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
			// The member listens on the wildcard address: advertise the
			// address the coordinator actually sees it from.
			if rhost, _, err := net.SplitHostPort(l.conn.RemoteAddr().String()); err == nil {
				addr = net.JoinHostPort(rhost, port)
			}
		}
	}
	e := &regEntry{spec: memberSpec{Lo: m.Lo, Hi: m.Hi, Addr: addr}, link: l}
	s.regs, s.fp = append(s.regs, e), m.FP
	if covered == s.p {
		sort.Slice(s.regs, func(i, j int) bool { return s.regs[i].spec.Lo < s.regs[j].spec.Lo })
		s.started = true
		roster := &ctlMsg{T: "roster", Session: s.session, Members: make([]memberSpec, len(s.regs))}
		for i, r := range s.regs {
			roster.Members[i] = r.spec
		}
		s.broadcast(roster)
	}
	return e, nil
}

// broadcast sends m to every registered member still expected to read
// it (a member that announced "leaving" is dying and is skipped). Send
// errors are not acted on here: a dead connection surfaces in its own
// handle goroutine as memberLost. Caller holds s.mu.
func (s *rendezvousServer) broadcast(m *ctlMsg) {
	for _, r := range s.regs {
		if r.result == nil || r.result.T != "leaving" {
			r.link.sendCtl(m)
		}
	}
}

// memberReady counts a member's mesh as built; the start goes out when
// every member's is. Each member counts once however often it says so.
func (s *rendezvousServer) memberReady(e *regEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.ready || !s.started {
		return
	}
	e.ready = true
	if s.ready++; s.ready == len(s.regs) {
		s.broadcast(&ctlMsg{T: "start"})
	}
}

// memberDone records a member's results ("result") or last words
// ("leaving"); when every member has reported, the merged final goes
// out to the members still connected.
func (s *rendezvousServer) memberDone(e *regEntry, m *ctlMsg) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.result != nil {
		return
	}
	e.result = m
	if s.reported++; s.reported < len(s.regs) || !s.started {
		return
	}
	final := &ctlMsg{
		T:       "final",
		Clocks:  make([]int64, s.p),
		Ledgers: make([][]vtime.Duration, s.p),
	}
	for m, reg := range s.regs {
		res := reg.result
		if res.T == "leaving" {
			final.Left = append(final.Left, m)
		}
		for i, r := range res.Ranks {
			if r >= 0 && r < s.p && i < len(res.Clocks) && i < len(res.Ledgers) {
				final.Clocks[r], final.Ledgers[r] = res.Clocks[i], res.Ledgers[i]
			}
		}
		final.Departed = append(final.Departed, res.Departed...)
	}
	sort.Ints(final.Departed)
	final.Departed = slices.Compact(final.Departed)
	s.broadcast(final)
}

// memberLost handles a member's rendezvous connection dying. Benign
// after the member reported (the final goes out only once all have) or
// the fleet aborted; fatal otherwise.
func (s *rendezvousServer) memberLost(e *regEntry) {
	s.mu.Lock()
	lost := e.result == nil && !s.aborted
	s.mu.Unlock()
	if lost {
		s.abort(fmt.Sprintf("member (ranks %d-%d) lost before reporting results", e.spec.Lo, e.spec.Hi))
	}
}

func (s *rendezvousServer) abort(msg string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.aborted {
		return
	}
	s.aborted = true
	s.broadcast(&ctlMsg{T: "abort", Msg: msg})
}
