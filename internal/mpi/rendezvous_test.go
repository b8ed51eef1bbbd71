package mpi

import (
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"chameleon/internal/vtime"
)

// rvClient is the test's end of one rendezvous connection: a pump
// goroutine drains the link (the coordinator writes while holding its
// lock, and net.Pipe writes block until read), docs arrive on in, and
// in closes when the coordinator closes the connection.
type rvClient struct {
	l  *link
	in chan *ctlMsg
}

// rvDial opens a connection to the coordinator over net.Pipe.
func rvDial(t *testing.T, s *rendezvousServer) *rvClient {
	t.Helper()
	client, server := net.Pipe()
	go s.handle(newLink(server))
	return rvPump(t, newLink(client))
}

// rvPump makes l the test's end of a rendezvous connection.
func rvPump(t *testing.T, l *link) *rvClient {
	c := &rvClient{l: l, in: make(chan *ctlMsg, 16)} // more than any scenario sends one client
	t.Cleanup(c.l.close)
	go func() {
		defer close(c.in)
		for {
			m, err := c.l.recvCtl()
			if err != nil {
				return
			}
			c.in <- m
		}
	}()
	return c
}

func (c *rvClient) send(t *testing.T, m *ctlMsg) {
	t.Helper()
	if err := c.l.sendCtl(m); err != nil {
		t.Fatalf("send %s: %v", m.T, err)
	}
}

// expect returns the next document, which must be of type typ.
func (c *rvClient) expect(t *testing.T, typ string) *ctlMsg {
	t.Helper()
	select {
	case m, ok := <-c.in:
		if !ok {
			t.Fatalf("connection closed awaiting %s", typ)
		}
		if m.T != typ {
			t.Fatalf("got %s (%s), want %s", m.T, m.Msg, typ)
		}
		return m
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out awaiting %s", typ)
	}
	return nil
}

// expectClosed asserts the coordinator closes the connection without
// saying anything further.
func (c *rvClient) expectClosed(t *testing.T) {
	t.Helper()
	select {
	case m, ok := <-c.in:
		if ok {
			t.Fatalf("got %s, want the connection closed", m.T)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("connection still open")
	}
}

// expectQuiet asserts nothing arrives for a moment.
func (c *rvClient) expectQuiet(t *testing.T) {
	t.Helper()
	select {
	case m, ok := <-c.in:
		if ok {
			t.Fatalf("got %s, want nothing yet", m.T)
		}
		t.Fatal("connection closed, want it open and quiet")
	case <-time.After(50 * time.Millisecond):
	}
}

// register sends a registration and waits until the coordinator has
// admitted it as its nth member (registrations on different connections
// are served by different goroutines; scenarios that depend on who was
// first must not race them).
func (c *rvClient) register(t *testing.T, s *rendezvousServer, nth int, m *ctlMsg) {
	t.Helper()
	c.send(t, m)
	admitted(t, s, nth)
}

// admitted waits until the coordinator has admitted n members.
func admitted(t *testing.T, s *rendezvousServer, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		s.mu.Lock()
		got := len(s.regs)
		s.mu.Unlock()
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d members admitted", got, n)
		}
	}
}

func reg(lo, hi, p int, fp string) *ctlMsg {
	return &ctlMsg{T: "register", Lo: lo, Hi: hi, P: p, Addr: "127.0.0.1:1", FP: fp}
}

// formed registers members [0,1] and [2,3] on a P=4 coordinator and
// walks both through roster, ready and start.
func formed(t *testing.T, s *rendezvousServer) (a, b *rvClient) {
	t.Helper()
	a, b = rvDial(t, s), rvDial(t, s)
	b.send(t, reg(2, 3, 4, "fp")) // higher range first: the roster is sorted, not first-come
	a.send(t, reg(0, 1, 4, "fp"))
	for _, c := range []*rvClient{a, b} {
		roster := c.expect(t, "roster")
		want := []memberSpec{{Lo: 0, Hi: 1, Addr: "127.0.0.1:1"}, {Lo: 2, Hi: 3, Addr: "127.0.0.1:1"}}
		if !reflect.DeepEqual(roster.Members, want) || roster.Session != "sess" {
			t.Fatalf("roster = %+v session %q", roster.Members, roster.Session)
		}
	}
	a.send(t, &ctlMsg{T: "ready"})
	a.send(t, &ctlMsg{T: "ready"}) // saying it twice must not stand in for b
	a.expectQuiet(t)
	b.send(t, &ctlMsg{T: "ready"})
	a.expect(t, "start")
	b.expect(t, "start")
	return a, b
}

func TestRendezvousCoordinator(t *testing.T) {
	scenarios := []struct {
		name string
		run  func(t *testing.T, s *rendezvousServer)
	}{
		{"exact tiling forms, allocates and aggregates", func(t *testing.T, s *rendezvousServer) {
			a, b := formed(t, s)
			a.send(t, &ctlMsg{T: "alloc", N: 3})
			if got := a.expect(t, "allocr").Base; got != int64(commUserBase) {
				t.Fatalf("first alloc base %d, want %d", got, commUserBase)
			}
			b.send(t, &ctlMsg{T: "alloc", N: 1})
			if got := b.expect(t, "allocr").Base; got != int64(commUserBase)+3 {
				t.Fatalf("second alloc base %d, want %d", got, commUserBase+3)
			}
			a.send(t, &ctlMsg{T: "result", Ranks: []int{0, 1}, Clocks: []int64{10, 11}, Ledgers: [][]vtime.Duration{{1}, {2}}})
			a.expectQuiet(t)
			b.send(t, &ctlMsg{T: "result", Ranks: []int{2, 3}, Clocks: []int64{12, 13}, Ledgers: [][]vtime.Duration{{3}, {4}}})
			for _, c := range []*rvClient{a, b} {
				final := c.expect(t, "final")
				if !reflect.DeepEqual(final.Clocks, []int64{10, 11, 12, 13}) || len(final.Ledgers) != 4 || len(final.Departed) != 0 {
					t.Fatalf("final = %+v", final)
				}
			}
		}},
		{"overlapping range rejected, fleet released", func(t *testing.T, s *rendezvousServer) {
			a, b := rvDial(t, s), rvDial(t, s)
			a.register(t, s, 1, reg(0, 2, 4, "fp"))
			b.send(t, reg(2, 3, 4, "fp"))
			if msg := b.expect(t, "err").Msg; !strings.Contains(msg, "overlaps") {
				t.Fatalf("err = %q", msg)
			}
			b.expectClosed(t)
			a.expect(t, "abort")
		}},
		{"world-size mismatch rejected", func(t *testing.T, s *rendezvousServer) {
			a := rvDial(t, s)
			a.send(t, reg(0, 1, 8, "fp"))
			if msg := a.expect(t, "err").Msg; !strings.Contains(msg, "world size") {
				t.Fatalf("err = %q", msg)
			}
			a.expectClosed(t)
		}},
		{"out-of-world range rejected", func(t *testing.T, s *rendezvousServer) {
			a := rvDial(t, s)
			a.send(t, reg(2, 1<<40, 4, "fp"))
			a.expect(t, "err")
			a.expectClosed(t)
		}},
		{"fingerprint mismatch rejected, fleet released", func(t *testing.T, s *rendezvousServer) {
			a, b := rvDial(t, s), rvDial(t, s)
			a.register(t, s, 1, reg(0, 1, 4, "seed=1"))
			b.send(t, reg(2, 3, 4, "seed=2"))
			if msg := b.expect(t, "err").Msg; !strings.Contains(msg, "fingerprint") {
				t.Fatalf("err = %q", msg)
			}
			a.expect(t, "abort")
		}},
		{"duplicate register drops the member and the fleet", func(t *testing.T, s *rendezvousServer) {
			a, b := rvDial(t, s), rvDial(t, s)
			a.register(t, s, 1, reg(0, 1, 4, "fp"))
			a.send(t, reg(0, 1, 4, "fp"))
			a.expect(t, "err")
			a.expect(t, "abort")
			a.expectClosed(t)
			b.send(t, reg(2, 3, 4, "fp"))
			b.expect(t, "err") // the fleet cannot complete any more
		}},
		{"stranger's pre-register documents close only its connection", func(t *testing.T, s *rendezvousServer) {
			// At the parent commit alloc from an unregistered connection
			// nil-dereferenced in the coordinator (killing the process
			// and the fleet with it), and a stray ready counted toward
			// the start barrier.
			for _, doc := range []*ctlMsg{{T: "alloc", N: 1}, {T: "ready"}, {T: "result", Ranks: []int{0}}, {T: "leaving"}, {T: "abort", Msg: "boo"}, {T: "?"}} {
				stranger := rvDial(t, s)
				stranger.send(t, doc)
				stranger.expectClosed(t)
			}
			formed(t, s) // asserts start waits for both members' ready
		}},
		{"member lost before its result aborts the rest", func(t *testing.T, s *rendezvousServer) {
			a, b := formed(t, s)
			a.send(t, &ctlMsg{T: "result", Ranks: []int{0, 1}, Clocks: []int64{1, 2}})
			b.l.close()
			a.expect(t, "abort")
		}},
		{"member lost after its result is no loss", func(t *testing.T, s *rendezvousServer) {
			a, b := formed(t, s)
			a.send(t, &ctlMsg{T: "result", Ranks: []int{0, 1}, Clocks: []int64{1, 2}, Ledgers: [][]vtime.Duration{{}, {}}})
			a.l.close()
			b.send(t, &ctlMsg{T: "result", Ranks: []int{2, 3}, Clocks: []int64{3, 4}, Ledgers: [][]vtime.Duration{{}, {}}})
			b.expect(t, "final")
		}},
		{"leaving member is in the final but is not sent it", func(t *testing.T, s *rendezvousServer) {
			a, b := formed(t, s)
			b.send(t, &ctlMsg{T: "leaving", Ranks: []int{2, 3}, Clocks: []int64{7, 8}, Ledgers: [][]vtime.Duration{{}, {}}, Departed: []int{3, 2}})
			b.expectClosed(t)
			a.send(t, &ctlMsg{T: "result", Ranks: []int{0, 1}, Clocks: []int64{5, 6}, Ledgers: [][]vtime.Duration{{}, {}}})
			final := a.expect(t, "final")
			if !reflect.DeepEqual(final.Clocks, []int64{5, 6, 7, 8}) || !reflect.DeepEqual(final.Departed, []int{2, 3}) ||
				!reflect.DeepEqual(final.Left, []int{1}) {
				t.Fatalf("final = %+v", final)
			}
		}},
		{"hostile result cannot index outside the world", func(t *testing.T, s *rendezvousServer) {
			a, b := formed(t, s)
			a.send(t, &ctlMsg{T: "result", Ranks: []int{-1, 1 << 40, 0}, Clocks: []int64{9}})
			b.send(t, &ctlMsg{T: "result", Ranks: []int{2, 3}, Clocks: []int64{3, 4}, Ledgers: [][]vtime.Duration{{}, {}}})
			if final := b.expect(t, "final"); len(final.Clocks) != 4 {
				t.Fatalf("final = %+v", final)
			}
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			sc.run(t, newRendezvousServer(4, "sess"))
		})
	}
}

// TestRendezvousHandshake drives the member half against the real
// coordinator half over net.Pipe, and against scripted coordinators
// that refuse it or hand it a roster that does not tile the world.
func TestRendezvousHandshake(t *testing.T) {
	t.Run("two members form", func(t *testing.T) {
		s := newRendezvousServer(4, "sess")
		errs := make(chan error, 2)
		for _, r := range [][2]int{{0, 1}, {2, 3}} {
			client, server := net.Pipe()
			go s.handle(newLink(server))
			go func(lo, hi int) {
				l := newLink(client)
				defer l.close()
				errs <- handshake(l, reg(lo, hi, 4, "fp"), func(roster *ctlMsg) error {
					owner, err := rankOwners(roster.Members, 4)
					if err == nil && !reflect.DeepEqual(owner, []int{0, 0, 1, 1}) {
						t.Errorf("owner table %v", owner)
					}
					return err
				})
			}(r[0], r[1])
		}
		for i := 0; i < 2; i++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
	})
	scripted := []struct {
		name   string
		answer *ctlMsg
		want   string
	}{
		{"refused", &ctlMsg{T: "err", Msg: "config fingerprint mismatch"}, "fingerprint"},
		{"aborted while forming", &ctlMsg{T: "abort", Msg: "rejected member"}, "rejected member"},
		{"roster with overlapping members", &ctlMsg{T: "roster", Members: []memberSpec{{Lo: 0, Hi: 2}, {Lo: 2, Hi: 3}}}, "tiling"},
		{"roster with a gap", &ctlMsg{T: "roster", Members: []memberSpec{{Lo: 0, Hi: 0}, {Lo: 2, Hi: 3}}}, "tiling"},
		{"roster past the world", &ctlMsg{T: "roster", Members: []memberSpec{{Lo: 0, Hi: 1 << 40}}}, "tiling"},
		{"roster short of the world", &ctlMsg{T: "roster", Members: []memberSpec{{Lo: 0, Hi: 1}}}, "covers"},
	}
	for _, tc := range scripted {
		t.Run(tc.name, func(t *testing.T) {
			member, coord := pipeLinks(t)
			go func() {
				coord.recvCtl() // the registration
				coord.sendCtl(tc.answer)
			}()
			err := handshake(member, reg(0, 1, 4, "fp"), func(roster *ctlMsg) error {
				_, err := rankOwners(roster.Members, 4)
				return err
			})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one mentioning %q", err, tc.want)
			}
		})
	}
}
