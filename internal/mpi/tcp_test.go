package mpi

import (
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"

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

// runFleet executes body on a TCP fleet hosted inside this test process:
// each member gets its own transport and mpi.Run (its own Runtime), and
// they talk over real localhost sockets. Returns one Result per member —
// all of which must describe the same world.
func runFleet(t *testing.T, p int, members []fleetMember, body func(*Proc)) []*Result {
	t.Helper()
	join := freeAddr(t)
	results := make([]*Result, len(members))
	errs := make([]error, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m fleetMember) {
			defer wg.Done()
			tr, err := NewTCPTransport(TCPOptions{
				Join: join, RankLo: m.lo, RankHi: m.hi, P: p,
			})
			if err != nil {
				errs[i] = fmt.Errorf("member %d rendezvous: %w", i, err)
				return
			}
			results[i], errs[i] = Run(Config{P: p, Transport: tr}, body)
		}(i, m)
	}
	wg.Wait()
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

func TestWirePayloadRoundTrip(t *testing.T) {
	cases := []any{
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
	}
	for _, want := range cases {
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
