package mpi

import (
	"fmt"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"chameleon/internal/clock"
	"chameleon/internal/vtime"
)

// freeAddr reserves a localhost port for a fleet rendezvous.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// fleetMember describes one process-worth of ranks for runFleet.
type fleetMember struct {
	lo, hi int
}

// startFleet executes body on a TCP fleet hosted inside this test
// process: each member gets its own transport and mpi.Run (its own
// Runtime), and they talk over real localhost sockets. It returns one
// Result or error per member; logf, if not nil, gives member i its log.
func startFleet(join string, p int, members []fleetMember, logf func(i int) func(string, ...any), body func(*Proc)) ([]*Result, []error) {
	results := make([]*Result, len(members))
	errs := make([]error, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m fleetMember) {
			defer wg.Done()
			opts := TCPOptions{Join: join, RankLo: m.lo, RankHi: m.hi, P: p}
			if logf != nil {
				opts.Logf = logf(i)
			}
			tr, err := NewTCPTransport(opts)
			if err != nil {
				errs[i] = fmt.Errorf("member %d rendezvous: %w", i, err)
				return
			}
			results[i], errs[i] = Run(Config{P: p, Transport: tr}, body)
		}(i, m)
	}
	wg.Wait()
	return results, errs
}

// runFleet is startFleet for a run that must succeed: one Result per
// member, all of which must describe the same world.
func runFleet(t *testing.T, p int, members []fleetMember, body func(*Proc)) []*Result {
	t.Helper()
	results, errs := startFleet(freeAddr(t), p, members, nil, body)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
	}
	return results
}

func TestTCPFleetSendRecvAndCollectives(t *testing.T) {
	const p = 4
	sum := make([]uint64, p)
	gathered := make([][]any, p)
	results := runFleet(t, p, []fleetMember{{0, 1}, {2, 3}}, func(pr *Proc) {
		w := pr.World()
		r := pr.Rank()
		// Ring exchange crossing the process boundary both ways.
		next, prev := (r+1)%p, (r+p-1)%p
		w.Send(next, 7, 8, fmt.Sprintf("from %d", r))
		if got := w.Recv(prev, 7).Payload.(string); got != fmt.Sprintf("from %d", prev) {
			t.Errorf("rank %d: ring payload %q", r, got)
		}
		// A uint64 an application sends decodes into the scalar slot; its
		// receiver still gets it boxed in Payload.
		w.Send(next, 8, 8, uint64(1000+r))
		if got, ok := w.Recv(prev, 8).Payload.(uint64); !ok || got != uint64(1000+prev) {
			t.Errorf("rank %d: ring uint64 payload %v", r, got)
		}
		sum[r] = w.Allreduce(8, uint64(r+1), OpSum)
		gathered[r] = w.Allgather(8, r*10)
		w.Barrier()
	})
	for r := 0; r < p; r++ {
		if sum[r] != 1+2+3+4 {
			t.Errorf("rank %d allreduce = %d", r, sum[r])
		}
		for i, v := range gathered[r] {
			if v.(int) != i*10 {
				t.Errorf("rank %d allgather[%d] = %v", r, i, v)
			}
		}
	}
	// Every member returns the same world-wide clocks.
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[0].Clocks, results[i].Clocks) {
			t.Errorf("member %d clocks diverge: %v vs %v", i, results[i].Clocks, results[0].Clocks)
		}
	}
}

func TestTCPFleetMatchesInProcess(t *testing.T) {
	const p = 6
	body := func(pr *Proc) {
		w := pr.World()
		r := pr.Rank()
		pr.Compute(vtime.Duration(r+1) * vtime.Millisecond)
		next, prev := (r+1)%p, (r+p-1)%p
		for i := 0; i < 3; i++ {
			w.Send(next, i, 64, r)
			w.Recv(prev, i)
			w.Allreduce(8, uint64(r), OpMax)
		}
		w.Barrier()
	}
	inproc, err := Run(Config{P: p}, body)
	if err != nil {
		t.Fatal(err)
	}
	wires(t, func(t *testing.T) {
		fleet := runFleet(t, p, []fleetMember{{0, 1}, {2, 3}, {4, 5}}, body)
		for i, res := range fleet {
			if !reflect.DeepEqual(res.Clocks, inproc.Clocks) {
				t.Errorf("member %d clocks diverge from in-process: %v vs %v", i, res.Clocks, inproc.Clocks)
			}
			if res.Makespan != inproc.Makespan {
				t.Errorf("member %d makespan %v, in-process %v", i, res.Makespan, inproc.Makespan)
			}
		}
	})
}

func TestTCPFleetWildcardAcrossProcesses(t *testing.T) {
	// The conservative matcher must order wildcard receives by virtual
	// arrival even when the senders live in other processes: this is the
	// counter-stable remote bound sweep's correctness test. Rank r
	// computes r virtual milliseconds before sending, so matches must
	// come back in rank order regardless of socket timing.
	const p = 4
	body := func(order *[]int) func(*Proc) {
		var mu sync.Mutex
		return func(pr *Proc) {
			w := pr.World()
			if pr.Rank() == 0 {
				for i := 1; i < p; i++ {
					msg := w.Recv(AnySource, 1)
					mu.Lock()
					*order = append(*order, msg.Source)
					mu.Unlock()
				}
			} else {
				pr.Compute(vtime.Duration(pr.Rank()) * vtime.Millisecond)
				w.Send(0, 1, 0, nil)
			}
		}
	}
	var inprocOrder []int
	inproc, err := Run(Config{P: p}, body(&inprocOrder))
	if err != nil {
		t.Fatal(err)
	}
	wires(t, func(t *testing.T) {
		var order []int
		fleet := runFleet(t, p, []fleetMember{{0, 0}, {1, 1}, {2, 3}}, body(&order))
		if !reflect.DeepEqual(order, []int{1, 2, 3}) || !reflect.DeepEqual(order, inprocOrder) {
			t.Fatalf("wildcard match order %v (in-process %v), want [1 2 3]", order, inprocOrder)
		}
		if !reflect.DeepEqual(fleet[0].Clocks, inproc.Clocks) {
			t.Errorf("clocks diverge from in-process: %v vs %v", fleet[0].Clocks, inproc.Clocks)
		}
	})
}

func TestTCPFleetCommDup(t *testing.T) {
	// Dup allocates world-unique CommIDs through the rendezvous
	// coordinator; all ranks must agree on the ID and the dup must relay
	// traffic across the process boundary.
	const p = 4
	ids := make([]CommID, p)
	runFleet(t, p, []fleetMember{{0, 1}, {2, 3}}, func(pr *Proc) {
		dup := pr.World().Dup()
		ids[pr.Rank()] = dup.ID()
		r := pr.Rank()
		if r == 0 {
			dup.Send(3, 9, 8, "over the dup")
		} else if r == 3 {
			if got := dup.Recv(0, 9).Payload.(string); got != "over the dup" {
				t.Errorf("dup payload %q", got)
			}
		}
		dup.Barrier()
	})
	for r := 1; r < p; r++ {
		if ids[r] != ids[0] {
			t.Fatalf("rank %d dup CommID %d, rank 0 got %d", r, ids[r], ids[0])
		}
	}
	if ids[0] < commUserBase {
		t.Fatalf("dup CommID %d below user base", ids[0])
	}
}

// TestTCPFleetWriteFailureAborts: a mesh connection whose writes start
// failing mid-run aborts the fleet through the one abort path, naming
// the member it could not write to — whether the write was the link
// writer's (nobody is sending when it fails) or a bound response's.
func TestTCPFleetWriteFailureAborts(t *testing.T) {
	cases := []struct {
		name    string
		members []fleetMember
		budget  int // bytes each side of a mesh connection may write
		body    func(*Proc)
		member  int    // who must report the failure
		want    string // in that member's abort reason
	}{
		{
			// Rank 0 queues ~8 KiB of frames and blocks in a receive:
			// only the link's writer can meet the failure.
			name: "data frame", members: []fleetMember{{0, 0}, {1, 1}}, budget: 2 << 10,
			body: func(pr *Proc) {
				w := pr.World()
				for i := 0; i < 500; i++ {
					if pr.Rank() == 0 {
						w.Send(1, 1, 0, nil)
					} else {
						w.Recv(0, 1)
					}
				}
				if pr.Rank() == 0 {
					w.Recv(1, 2)
				} else {
					w.Send(0, 2, 0, nil)
				}
			},
			member: 0, want: "write to member 1 (ranks 1-1): " + errInjected.Error(),
		},
		{
			// Rank 0's wildcard receive sweeps member 1, which has
			// written only its hello: its first bound response fails.
			// (The link's writer, woken by the same document, may be
			// first to say so.)
			name: "bresp", members: []fleetMember{{0, 1}, {2, 2}}, budget: 48,
			body: func(pr *Proc) {
				w := pr.World()
				switch pr.Rank() {
				case 0:
					w.Recv(AnySource, 1)
					w.Send(2, 2, 0, nil)
				case 1:
					w.Send(0, 1, 0, nil)
				case 2:
					w.Recv(0, 2)
				}
			},
			member: 1, want: "to member 0 (ranks 0-1): " + errInjected.Error(),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The rendezvous connections stay whole: they relay the abort.
			join := freeAddr(t)
			setWire(t, func(c net.Conn) net.Conn {
				if c.LocalAddr().String() == join || c.RemoteAddr().String() == join {
					return c
				}
				return &failConn{Conn: c, budget: tc.budget}
			})
			var mu sync.Mutex
			logs := make([][]string, len(tc.members))
			_, errs := startFleet(join, tc.members[len(tc.members)-1].hi+1, tc.members, func(i int) func(string, ...any) {
				return func(format string, args ...any) {
					mu.Lock()
					defer mu.Unlock()
					logs[i] = append(logs[i], fmt.Sprintf(format, args...))
				}
			}, tc.body)
			for i, err := range errs {
				if err == nil {
					t.Errorf("member %d completed a run whose mesh failed", i)
				}
			}
			var reason string
			for _, line := range logs[tc.member] {
				if strings.HasPrefix(line, "fleet abort: ") {
					reason = line
				}
			}
			if !strings.Contains(reason, tc.want) {
				t.Errorf("member %d: %q, want an abort naming %q\nlog: %q", tc.member, reason, tc.want, logs[tc.member])
			}
		})
	}
}

// TestTCPFleetLeavesNoGoroutines: every link's writer, reader and
// handler is gone once its fleet has closed.
func TestTCPFleetLeavesNoGoroutines(t *testing.T) {
	fleet := func() {
		runFleet(t, 4, []fleetMember{{0, 0}, {1, 2}, {3, 3}}, func(pr *Proc) {
			pr.World().Allreduce(8, uint64(pr.Rank()), OpSum)
		})
	}
	fleet() // whatever the first fleet starts for the process is part of the baseline
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		fleet()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			stacks := make([]byte, 1<<20)
			t.Fatalf("%d goroutines before five fleets, %d after:\n%s",
				before, runtime.NumGoroutine(), stacks[:runtime.Stack(stacks, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestTCPFleetConfigMismatchRejected(t *testing.T) {
	join := freeAddr(t)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	fps := []string{"seed=1", "seed=2"}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr, err := NewTCPTransport(TCPOptions{
				Join: join, RankLo: i * 2, RankHi: i*2 + 1, P: 4,
				Fingerprint: fps[i],
			})
			if err == nil {
				tr.close()
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	if errs[0] == nil && errs[1] == nil {
		t.Fatal("mismatched fingerprints both accepted")
	}
}

// coordinate serves a rendezvous for a world of p on a port of its own:
// a member under test dials it, and its registrations can be counted.
func coordinate(t *testing.T, p int) (join string, s *rendezvousServer) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	s = newRendezvousServer(p, "sess")
	go s.serve(ln)
	return ln.Addr().String(), s
}

// TestFleetFormationDeadline: a fleet that does not form fails after
// formTimeout on the transport's clock, naming the wait it was in, and
// the coordinator aborts the members that did arrive. At the parent
// commit the member waited on its roster, or in its mesh accept,
// forever.
func TestFleetFormationDeadline(t *testing.T) {
	// form starts the member hosting rank r of a world of p, and returns
	// its clock and where its error will arrive.
	form := func(join string, p, r int) (*clock.Fake, chan error) {
		clk, errc := clock.NewFake(time.Unix(0, 0)), make(chan error, 1)
		go func() {
			tr, err := newTCPTransport(TCPOptions{Join: join, RankLo: r, RankHi: r, P: p, Fingerprint: "fp"}, clk)
			if err == nil {
				tr.close()
			}
			errc <- err
		}()
		return clk, errc
	}
	expire := func(t *testing.T, clk *clock.Fake, errc chan error, wait string) {
		t.Helper()
		clk.BlockUntil(1) // the formation deadline: the dial armed nothing
		clk.Advance(formTimeout)
		err := <-errc
		if err == nil || !strings.Contains(err.Error(), wait) || !strings.HasSuffix(err.Error(), "fleet not formed within 20s") {
			t.Fatalf("err = %v, want one naming %q, then the deadline", err, wait)
		}
	}
	t.Run("no second member: the roster", func(t *testing.T) {
		join, s := coordinate(t, 2)
		clk, errc := form(join, 2, 0)
		admitted(t, s, 1)
		expire(t, clk, errc, "awaiting roster")
	})
	t.Run("a peer that never dials: the mesh accept", func(t *testing.T) {
		join, s := coordinate(t, 3)
		clk, errc := form(join, 3, 1)
		// The test is member 0 and member 2. Member 1 dials member 0's
		// listener and says hello; then it can only wait on member 2,
		// which never dials.
		ln0, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln0.Close()
		m0, m2 := rvDial(t, s), rvDial(t, s)
		reg0 := reg(0, 0, 3, "fp")
		reg0.Addr = ln0.Addr().String()
		m0.send(t, reg0)
		m2.send(t, reg(2, 2, 3, "fp"))
		conn, err := ln0.Accept()
		if err != nil {
			t.Fatal(err)
		}
		mesh := newLink(conn)
		defer mesh.close()
		if hello, err := mesh.recvCtl(); err != nil || hello.T != "hello" || hello.Member != 1 {
			t.Fatalf("member 1 said %+v (%v), want its hello", hello, err)
		}
		expire(t, clk, errc, "mesh accept")
		m0.expect(t, "roster")
		if m := m0.expect(t, "abort"); !strings.Contains(m.Msg, "ranks 1-1") {
			t.Fatalf("abort %q, want it to name the lost member", m.Msg)
		}
	})
}

// TestFleetReplyDeadline: when the coordinator never answers a result,
// the member's run fails after resultTimeout on the transport's clock
// through the one abort path, so the coordinator is told why (and would
// relay it to every other member). At the parent commit the member
// returned an error it told nobody, and each other member waited out
// its own timeout.
func TestFleetReplyDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	clk, runErr := clock.NewFake(time.Unix(0, 0)), make(chan error, 1)
	go func() {
		tr, err := newTCPTransport(TCPOptions{Join: ln.Addr().String(), RankLo: 0, RankHi: 0, P: 1}, clk)
		if err == nil {
			_, err = Run(Config{P: 1, Transport: tr}, func(*Proc) {})
		}
		runErr <- err
	}()
	// The test is the coordinator of a one-member fleet: it forms it,
	// takes the member's result and says nothing more.
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	coord := rvPump(t, newLink(conn))
	r := coord.expect(t, "register")
	coord.send(t, &ctlMsg{T: "roster", Session: "sess", Members: []memberSpec{{Lo: 0, Hi: 0, Addr: r.Addr}}})
	coord.expect(t, "ready")
	coord.send(t, &ctlMsg{T: "start"})
	coord.expect(t, "result")
	clk.BlockUntil(1) // the wait for the final
	clk.Advance(resultTimeout)
	const want = "timed out after 50s awaiting fleet results"
	if err := <-runErr; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Run: %v, want %q", err, want)
	}
	if m := coord.expect(t, "abort"); !strings.Contains(m.Msg, want) {
		t.Fatalf("the coordinator was told %q, want %q", m.Msg, want)
	}
}

// wirePayloads is one payload of every wire kind and of every codec
// this package registers.
func wirePayloads() []any {
	return []any{
		nil,
		uint64(0),
		uint64(1<<63 + 17),
		42,
		-7,
		"hello fleet",
		[]int{3, 1, 4, 1, 5},
		splitEntry{Color: 2, Key: -1, Rank: 5},
		map[int][]int{0: {0, 2}, 1: {1, 3}},
		[]gatherPair{{Rank: 0, Obj: uint64(9)}, {Rank: 3, Obj: "nested"}},
		[]gatherPair{{Rank: 1, Obj: []gatherPair{{Rank: 2, Obj: nil}}}},
		[]any{"listed", uint64(7), nil, []int{1, 2}},
	}
}

func TestWirePayloadRoundTrip(t *testing.T) {
	for _, want := range wirePayloads() {
		buf, err := appendPayload(nil, want, 0)
		if err != nil {
			t.Errorf("encode %T: %v", want, err)
			continue
		}
		got, rest, err := decodePayload(buf, 0)
		if err != nil {
			t.Errorf("decode %T: %v", want, err)
			continue
		}
		if len(rest) != 0 {
			t.Errorf("decode %T left %d bytes", want, len(rest))
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("roundtrip %T: got %#v want %#v", want, got, want)
		}
	}
}

func TestWireUnregisteredPayload(t *testing.T) {
	type private struct{ X int }
	if _, err := appendPayload(nil, private{1}, 0); err == nil {
		t.Fatal("unregistered payload type encoded")
	}
}

func TestDataFrameRoundTrip(t *testing.T) {
	msg := message{
		comm:    CommID(23),
		source:  3,
		tag:     1789,
		bytes:   4096,
		payload: "payload",
		arrive:  vtime.Time(987654321),
		origin:  3,
		seq:     41,
		sendVT:  vtime.Time(987000000),
	}
	body, err := appendDataFrame(nil, 12, msg)
	if err != nil {
		t.Fatal(err)
	}
	dest, got, ctl, err := decodeFrame(body)
	if err != nil || ctl != nil {
		t.Fatalf("decode: ctl=%v err=%v", ctl, err)
	}
	if dest != 12 || !reflect.DeepEqual(got, msg) {
		t.Fatalf("roundtrip: dest=%d got=%+v want=%+v", dest, got, msg)
	}
}

func TestCtlFrameRoundTrip(t *testing.T) {
	want := &ctlMsg{
		T: "bresp", Req: 99, HasBound: true, Bound: -1,
		Gen: 12345, Sent: []uint64{1, 2}, Recvd: []uint64{3, 4},
	}
	body, err := appendCtlFrame(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	_, _, got, err := decodeFrame(body)
	if err != nil || got == nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("roundtrip: got %+v want %+v", got, want)
	}
}
