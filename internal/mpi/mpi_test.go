package mpi

import (
	"fmt"
	"sync"
	"testing"

	"chameleon/internal/vtime"
)

// run is a test helper executing body on p ranks with the default model.
func run(t *testing.T, p int, body func(*Proc)) *Result {
	t.Helper()
	res, err := Run(Config{P: p}, body)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunInvalidConfig(t *testing.T) {
	if _, err := Run(Config{P: 0}, func(*Proc) {}); err == nil {
		t.Fatalf("P=0 accepted")
	}
	if _, err := Run(Config{P: -3}, func(*Proc) {}); err == nil {
		t.Fatalf("negative P accepted")
	}
}

func TestRankAndSize(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]bool{}
	run(t, 5, func(p *Proc) {
		if p.Size() != 5 {
			t.Errorf("Size = %d", p.Size())
		}
		if p.World().Rank() != p.Rank() || p.World().Size() != 5 {
			t.Errorf("world handle inconsistent")
		}
		mu.Lock()
		seen[p.Rank()] = true
		mu.Unlock()
	})
	if len(seen) != 5 {
		t.Fatalf("ranks seen: %v", seen)
	}
}

func TestSendRecvPayload(t *testing.T) {
	run(t, 2, func(p *Proc) {
		w := p.World()
		if p.Rank() == 0 {
			w.Send(1, 42, 8, "hello")
		} else {
			msg := w.Recv(0, 42)
			if msg.Payload.(string) != "hello" || msg.Source != 0 || msg.Tag != 42 || msg.Bytes != 8 {
				t.Errorf("bad message: %+v", msg)
			}
		}
	})
}

func TestRecvMatchesTag(t *testing.T) {
	run(t, 2, func(p *Proc) {
		w := p.World()
		if p.Rank() == 0 {
			w.Send(1, 1, 0, "first")
			w.Send(1, 2, 0, "second")
		} else {
			// Receive out of tag order: tag matching must select the
			// right message even though "first" arrived earlier.
			if got := w.Recv(0, 2).Payload.(string); got != "second" {
				t.Errorf("tag 2 got %q", got)
			}
			if got := w.Recv(0, 1).Payload.(string); got != "first" {
				t.Errorf("tag 1 got %q", got)
			}
		}
	})
}

func TestNonOvertakingPerSource(t *testing.T) {
	run(t, 2, func(p *Proc) {
		w := p.World()
		if p.Rank() == 0 {
			for i := 0; i < 10; i++ {
				w.Send(1, 7, 0, i)
			}
		} else {
			for i := 0; i < 10; i++ {
				if got := w.Recv(0, 7).Payload.(int); got != i {
					t.Errorf("message %d arrived as %d", i, got)
				}
			}
		}
	})
}

func TestAnyTag(t *testing.T) {
	run(t, 2, func(p *Proc) {
		w := p.World()
		if p.Rank() == 0 {
			w.Send(1, 5, 0, "x")
		} else {
			if got := w.Recv(0, AnyTag); got.Tag != 5 {
				t.Errorf("AnyTag match: %+v", got)
			}
		}
	})
}

func TestAnySourceVirtualOrder(t *testing.T) {
	// The conservative matcher must deliver wildcard receives in virtual
	// arrival order regardless of goroutine scheduling: the rank that
	// computes least sends first in virtual time.
	run(t, 4, func(p *Proc) {
		w := p.World()
		if p.Rank() == 0 {
			for i := 1; i < 4; i++ {
				msg := w.Recv(AnySource, 1)
				if msg.Source != i {
					t.Errorf("wildcard match %d from rank %d, want %d", i, msg.Source, i)
				}
			}
		} else {
			// Rank r computes r milliseconds before sending.
			p.Compute(vtime.Duration(p.Rank()) * vtime.Millisecond)
			w.Send(0, 1, 0, nil)
		}
	})
}

func TestSendrecv(t *testing.T) {
	res := run(t, 4, func(p *Proc) {
		w := p.World()
		next := (p.Rank() + 1) % 4
		prev := (p.Rank() + 3) % 4
		msg := w.Sendrecv(next, 9, 16, p.Rank(), prev, 9)
		if msg.Payload.(int) != prev {
			t.Errorf("ring sendrecv got %v, want %d", msg.Payload, prev)
		}
	})
	if res.Makespan <= 0 {
		t.Fatalf("no virtual time elapsed")
	}
}

func TestIsendIrecvWait(t *testing.T) {
	run(t, 2, func(p *Proc) {
		w := p.World()
		if p.Rank() == 0 {
			req := w.Isend(1, 3, 4, "async")
			w.Wait(req)
		} else {
			req := w.Irecv(0, 3)
			msg := w.Wait(req)
			if msg.Payload.(string) != "async" {
				t.Errorf("irecv: %+v", msg)
			}
			// Waiting again returns the same message without blocking.
			if again := w.Wait(req); again.Payload.(string) != "async" {
				t.Errorf("double wait: %+v", again)
			}
		}
	})
}

func TestWaitall(t *testing.T) {
	run(t, 2, func(p *Proc) {
		w := p.World()
		if p.Rank() == 0 {
			w.Send(1, 1, 0, "a")
			w.Send(1, 2, 0, "b")
		} else {
			r1 := w.Irecv(0, 1)
			r2 := w.Irecv(0, 2)
			w.Waitall(r1, r2)
		}
	})
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	clocks := make([]vtime.Time, 4)
	run(t, 4, func(p *Proc) {
		// Stagger the ranks, then barrier.
		p.Compute(vtime.Duration(p.Rank()) * vtime.Millisecond)
		p.World().Barrier()
		clocks[p.Rank()] = p.Clock.Now()
	})
	// Everyone must be at or past the slowest entrant (3ms).
	for r, c := range clocks {
		if c < vtime.Time(3*vtime.Millisecond) {
			t.Fatalf("rank %d exited barrier at %v, before slowest entry", r, c)
		}
	}
}

func TestBcast(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 13} {
		p := p
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			run(t, p, func(proc *Proc) {
				var payload any
				if proc.Rank() == 2%p {
					payload = "root-data"
				}
				got := proc.World().Bcast(2%p, 64, payload)
				if got.(string) != "root-data" {
					t.Errorf("rank %d bcast got %v", proc.Rank(), got)
				}
			})
		})
	}
}

func TestReduce(t *testing.T) {
	run(t, 7, func(p *Proc) {
		got := p.World().Reduce(0, 8, uint64(p.Rank()), OpSum)
		if p.Rank() == 0 && got != 21 { // 0+1+...+6
			t.Errorf("reduce sum = %d, want 21", got)
		}
	})
}

func TestAllreduceOps(t *testing.T) {
	run(t, 6, func(p *Proc) {
		w := p.World()
		if got := w.Allreduce(8, uint64(p.Rank()), OpSum); got != 15 {
			t.Errorf("allreduce sum = %d", got)
		}
		if got := w.Allreduce(8, uint64(p.Rank()), OpMax); got != 5 {
			t.Errorf("allreduce max = %d", got)
		}
		if got := w.Allreduce(8, uint64(p.Rank()+3), OpMin); got != 3 {
			t.Errorf("allreduce min = %d", got)
		}
		if got := w.Allreduce(8, uint64(1)<<uint(p.Rank()), OpBor); got != 63 {
			t.Errorf("allreduce bor = %d", got)
		}
	})
}

// TestAllreduceU64DoesNotBox: every reduce and broadcast hop of a u64
// collective carries its operand in the message's scalar slot, so a
// P=64 allreduce allocates nothing anywhere in the world — enacted (the
// message path of TCP fleets and causal runs), or evaluated and raw
// (the marker vote's), public (the application's) or on a Group
// (replay's collectives over part of the world). The operands are
// above 255 because Go boxes smaller integers without allocating.
// Boxed, an enacted round costs 127 objects: one per reduce hop, and
// one per rank for the broadcast's operand.
func TestAllreduceU64DoesNotBox(t *testing.T) {
	const p, runs = 64, 50
	members := make([]int, p)
	for i := range members {
		members[i] = i
	}
	groups := make([]*Comm, p)
	for _, tc := range []struct {
		name      string
		allreduce func(pr *Proc, v uint64) uint64
	}{
		{"enacted", func(pr *Proc, v uint64) uint64 {
			w := pr.World()
			return w.enactAllreduce(collTag(w.id, w.nextSeq(), 0), v, OpSum, 8)
		}},
		{"RawAllreduceU64", func(pr *Proc, v uint64) uint64 { return pr.MarkerComm().RawAllreduceU64(v, OpSum) }},
		{"Allreduce", func(pr *Proc, v uint64) uint64 { return pr.World().Allreduce(8, v, OpSum) }},
		{"Group", func(pr *Proc, v uint64) uint64 { return groups[pr.Rank()].Allreduce(8, v, OpSum) }},
	} {
		var allocs float64
		run(t, p, func(pr *Proc) {
			groups[pr.Rank()] = pr.Group(0, members)
			v := uint64(pr.Rank()+1) << 20
			round := func() {
				if got, want := tc.allreduce(pr, v), uint64(p*(p+1)/2)<<20; got != want {
					t.Errorf("%s on rank %d = %d, want %d", tc.name, pr.Rank(), got, want)
				}
			}
			for i := 0; i < 20; i++ {
				round() // size the mailboxes
			}
			if pr.Rank() == 0 {
				allocs = testing.AllocsPerRun(runs, round)
			} else {
				for i := 0; i < runs+1; i++ { // AllocsPerRun warms up once
					round()
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%s at P=%d: %v allocs per round (all ranks), want 0", tc.name, p, allocs)
		}
	}
}

func TestGather(t *testing.T) {
	run(t, 5, func(p *Proc) {
		got := p.World().Gather(1, 8, p.Rank()*10)
		if p.Rank() == 1 {
			for r := 0; r < 5; r++ {
				if got[r].(int) != r*10 {
					t.Errorf("gather[%d] = %v", r, got[r])
				}
			}
		} else if got != nil {
			t.Errorf("non-root rank %d received gather data", p.Rank())
		}
	})
}

func TestAllgather(t *testing.T) {
	run(t, 4, func(p *Proc) {
		got := p.World().Allgather(8, p.Rank())
		if len(got) != 4 {
			t.Errorf("allgather len = %d", len(got))
			return
		}
		for r := 0; r < 4; r++ {
			if got[r].(int) != r {
				t.Errorf("allgather[%d] = %v", r, got[r])
			}
		}
	})
}

func TestScatter(t *testing.T) {
	run(t, 4, func(p *Proc) {
		var payloads []any
		if p.Rank() == 0 {
			payloads = []any{"a", "b", "c", "d"}
		}
		got := p.World().Scatter(0, 8, payloads)
		want := string(rune('a' + p.Rank()))
		if got.(string) != want {
			t.Errorf("scatter rank %d = %v, want %s", p.Rank(), got, want)
		}
	})
}

func TestAlltoall(t *testing.T) {
	res := run(t, 6, func(p *Proc) {
		p.World().Alltoall(128)
	})
	if res.Makespan <= 0 {
		t.Fatalf("alltoall advanced no time")
	}
}

func TestCollectivesBackToBack(t *testing.T) {
	// Successive collectives on the same communicator must not
	// cross-match (per-collective sequence tags).
	run(t, 5, func(p *Proc) {
		w := p.World()
		for i := 0; i < 20; i++ {
			if got := w.Allreduce(8, uint64(i), OpMax); got != uint64(i) {
				t.Errorf("round %d: %d", i, got)
				return
			}
		}
	})
}

func TestDup(t *testing.T) {
	run(t, 4, func(p *Proc) {
		w := p.World()
		dup := w.Dup()
		if dup.ID() == w.ID() {
			t.Errorf("dup shares CommID")
		}
		if dup.Size() != w.Size() || dup.Rank() != w.Rank() {
			t.Errorf("dup group differs")
		}
		// Message isolation: a message on dup must not match a recv on
		// world.
		if p.Rank() == 0 {
			dup.Send(1, 5, 0, "dup")
			w.Send(1, 5, 0, "world")
		} else if p.Rank() == 1 {
			if got := w.Recv(0, 5).Payload.(string); got != "world" {
				t.Errorf("world recv got %q", got)
			}
			if got := dup.Recv(0, 5).Payload.(string); got != "dup" {
				t.Errorf("dup recv got %q", got)
			}
		}
	})
}

func TestComputeAdvancesClockAndLedger(t *testing.T) {
	res := run(t, 1, func(p *Proc) {
		p.Compute(5 * vtime.Millisecond)
	})
	if res.Clocks[0] != vtime.Time(5*vtime.Millisecond) {
		t.Fatalf("clock = %v", res.Clocks[0])
	}
	if res.Ledgers[0].Spent(vtime.CatApp) != 5*vtime.Millisecond {
		t.Fatalf("app ledger = %v", res.Ledgers[0].Spent(vtime.CatApp))
	}
}

func TestChargeOverhead(t *testing.T) {
	res := run(t, 1, func(p *Proc) {
		p.ChargeOverhead(vtime.CatCluster, 3*vtime.Microsecond)
	})
	if res.Ledgers[0].Spent(vtime.CatCluster) != 3*vtime.Microsecond {
		t.Fatalf("cluster ledger = %v", res.Ledgers[0].Spent(vtime.CatCluster))
	}
	if res.Clocks[0] != vtime.Time(3*vtime.Microsecond) {
		t.Fatalf("clock = %v", res.Clocks[0])
	}
}

func TestMessageArrivalTime(t *testing.T) {
	run(t, 2, func(p *Proc) {
		w := p.World()
		model := p.Model()
		if p.Rank() == 0 {
			p.Compute(vtime.Millisecond)
			w.Send(1, 1, 1000, nil)
		} else {
			msg := w.Recv(0, 1)
			// Arrival = sender clock at send (1ms + alpha) + transfer.
			want := vtime.Time(vtime.Millisecond + vtime.Duration(model.Alpha) + model.PtoP(1000) - model.Alpha)
			if msg.Arrive != want {
				t.Errorf("arrive = %v, want %v", msg.Arrive, want)
			}
			if p.Clock.Now() < msg.Arrive {
				t.Errorf("receiver clock behind arrival")
			}
		}
	})
}

func TestPanicPropagates(t *testing.T) {
	_, err := Run(Config{P: 2}, func(p *Proc) {
		if p.Rank() == 1 {
			panic("boom")
		}
		// Rank 0 must not block forever on a dead peer in this test;
		// give it nothing to do.
	})
	if err == nil {
		t.Fatalf("panic not reported")
	}
}

func TestResultAggregates(t *testing.T) {
	res := run(t, 3, func(p *Proc) {
		p.Compute(vtime.Duration(p.Rank()+1) * vtime.Millisecond)
	})
	// The implicit finalize barrier adds a few microseconds of tree
	// traversal on top of the slowest rank's 3ms.
	if res.MaxClock() < vtime.Time(3*vtime.Millisecond) ||
		res.MaxClock() > vtime.Time(3*vtime.Millisecond+100*vtime.Microsecond) {
		t.Fatalf("max clock = %v", res.MaxClock())
	}
	if res.Makespan != vtime.Duration(res.MaxClock()) {
		t.Fatalf("makespan = %v", res.Makespan)
	}
	agg := res.AggregateLedger()
	if agg.Spent(vtime.CatApp) != 6*vtime.Millisecond {
		t.Fatalf("aggregate app = %v", agg.Spent(vtime.CatApp))
	}
}

func TestVirtualDeterminism(t *testing.T) {
	// Without wildcards the virtual makespan must be bit-identical run
	// to run, regardless of goroutine scheduling.
	body := func(p *Proc) {
		w := p.World()
		for i := 0; i < 50; i++ {
			p.Compute(vtime.Duration(p.Rank()%3+1) * vtime.Microsecond)
			next := (p.Rank() + 1) % p.Size()
			prev := (p.Rank() + p.Size() - 1) % p.Size()
			w.Sendrecv(next, 1, 512, nil, prev, 1)
			if i%10 == 9 {
				w.Allreduce(8, uint64(i), OpSum)
			}
		}
	}
	first := run(t, 8, body).Makespan
	for i := 0; i < 3; i++ {
		if got := run(t, 8, body).Makespan; got != first {
			t.Fatalf("nondeterministic makespan: %v vs %v", got, first)
		}
	}
}

func TestWildcardDeterminism(t *testing.T) {
	// Even with ANY_SOURCE, the conservative matcher keeps the virtual
	// makespan deterministic for a master/worker exchange.
	body := func(p *Proc) {
		w := p.World()
		if p.Rank() == 0 {
			for i := 0; i < (p.Size()-1)*20; i++ {
				msg := w.Recv(AnySource, 1)
				w.Send(msg.Source, 2, 64, nil)
			}
		} else {
			for i := 0; i < 20; i++ {
				w.Send(0, 1, 16, nil)
				w.Recv(0, 2)
				p.Compute(200 * vtime.Microsecond)
			}
		}
	}
	first := run(t, 6, body).Makespan
	for i := 0; i < 3; i++ {
		if got := run(t, 6, body).Makespan; got != first {
			t.Fatalf("wildcard nondeterminism: %v vs %v", got, first)
		}
	}
}

type countingHooks struct {
	mu    sync.Mutex
	pre   int
	post  int
	final int
	ops   []OpCode
}

func (c *countingHooks) Pre(ci *CallInfo) {
	c.mu.Lock()
	c.pre++
	c.mu.Unlock()
}
func (c *countingHooks) Post(ci *CallInfo) {
	c.mu.Lock()
	c.post++
	c.ops = append(c.ops, ci.Op)
	c.mu.Unlock()
}
func (c *countingHooks) Finalize() {
	c.mu.Lock()
	c.final++
	c.mu.Unlock()
}

func TestInterposerHooks(t *testing.T) {
	h := &countingHooks{}
	_, err := Run(Config{P: 2, Hooks: func(p *Proc) Interposer { return h }}, func(p *Proc) {
		w := p.World()
		if p.Rank() == 0 {
			w.Send(1, 1, 0, nil)
		} else {
			w.Recv(0, 1)
		}
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Per rank: one p2p op + barrier + finalize pseudo-op = 3 posts.
	if h.post != 6 || h.pre != 6 {
		t.Fatalf("pre/post = %d/%d, want 6/6", h.pre, h.post)
	}
	if h.final != 2 {
		t.Fatalf("finalize calls = %d", h.final)
	}
}

func TestInterposerCallInfo(t *testing.T) {
	var infos []CallInfo
	var mu sync.Mutex
	hooks := func(p *Proc) Interposer { return infoHooks{&mu, &infos, p} }
	_, err := Run(Config{P: 2, Hooks: hooks}, func(p *Proc) {
		w := p.World()
		if p.Rank() == 0 {
			w.Send(1, 9, 128, nil)
		} else {
			w.Recv(AnySource, 9)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var send, recv *CallInfo
	for i := range infos {
		switch infos[i].Op {
		case OpSend:
			send = &infos[i]
		case OpRecv:
			recv = &infos[i]
		}
	}
	if send == nil || send.Dest != 1 || send.Bytes != 128 || send.Tag != 9 {
		t.Fatalf("send info: %+v", send)
	}
	if recv == nil || recv.Src != AnySource || recv.MatchedSrc != 0 || recv.Bytes != 128 {
		t.Fatalf("recv info: %+v", recv)
	}
}

type infoHooks struct {
	mu    *sync.Mutex
	infos *[]CallInfo
	p     *Proc
}

func (h infoHooks) Pre(*CallInfo) {}
func (h infoHooks) Post(ci *CallInfo) {
	h.mu.Lock()
	*h.infos = append(*h.infos, *ci)
	h.mu.Unlock()
}
func (h infoHooks) Finalize() {}

func TestMarkerComm(t *testing.T) {
	run(t, 3, func(p *Proc) {
		if p.MarkerComm().ID() != CommMarker {
			t.Errorf("marker comm id = %d", p.MarkerComm().ID())
		}
		p.MarkerComm().Barrier()
	})
}

func TestSendInvalidRankPanics(t *testing.T) {
	_, err := Run(Config{P: 2}, func(p *Proc) {
		if p.Rank() == 0 {
			p.World().Send(5, 1, 0, nil)
		}
	})
	if err == nil {
		t.Fatalf("invalid destination accepted")
	}
}

func TestSplit(t *testing.T) {
	run(t, 6, func(p *Proc) {
		// Rows of a 2x3 grid.
		row := p.Rank() / 3
		sub := p.World().Split(row, p.Rank())
		if sub == nil {
			t.Errorf("rank %d got nil comm", p.Rank())
			return
		}
		if sub.Size() != 3 || sub.Rank() != p.Rank()%3 {
			t.Errorf("rank %d: size=%d rank=%d", p.Rank(), sub.Size(), sub.Rank())
		}
		// The sub-communicators work independently: per-row reduce.
		got := sub.Allreduce(8, uint64(p.Rank()), OpSum)
		want := uint64(3*row*3 + 3) // sum of the row's world ranks
		if got != want {
			t.Errorf("rank %d: row sum = %d, want %d", p.Rank(), got, want)
		}
	})
}

func TestSplitUndefined(t *testing.T) {
	run(t, 4, func(p *Proc) {
		color := 0
		if p.Rank() == 3 {
			color = -1 // MPI_UNDEFINED
		}
		sub := p.World().Split(color, 0)
		if p.Rank() == 3 {
			if sub != nil {
				t.Errorf("undefined rank received a comm")
			}
			return
		}
		if sub == nil || sub.Size() != 3 {
			t.Errorf("rank %d: %+v", p.Rank(), sub)
		}
	})
}

func TestSplitKeyOrdering(t *testing.T) {
	run(t, 4, func(p *Proc) {
		// Reverse key order: world rank 3 becomes sub-rank 0.
		sub := p.World().Split(0, -p.Rank())
		if sub.Rank() != 3-p.Rank() {
			t.Errorf("rank %d -> sub rank %d", p.Rank(), sub.Rank())
		}
	})
}

func TestSplitIsolation(t *testing.T) {
	run(t, 4, func(p *Proc) {
		sub := p.World().Split(p.Rank()%2, p.Rank())
		// Messages within a split comm must not leak across colors:
		// partner is the other member of my color.
		if sub.Size() != 2 {
			t.Errorf("size = %d", sub.Size())
			return
		}
		other := 1 - sub.Rank()
		sub.Send(other, 9, 4, p.Rank())
		msg := sub.Recv(other, 9)
		wantWorld := (p.Rank() + 2) % 4
		if msg.Payload.(int) != wantWorld {
			t.Errorf("rank %d heard from %v, want %d", p.Rank(), msg.Payload, wantWorld)
		}
	})
}
