package mpi

import (
	"reflect"
	"runtime"
	"testing"

	"chameleon/internal/vtime"
)

// TestConcurrentSubCommunicators runs independent collective streams on
// row and column communicators simultaneously: tags and communicator
// contexts must never cross-match.
func TestConcurrentSubCommunicators(t *testing.T) {
	const rows, cols = 3, 4
	run(t, rows*cols, func(p *Proc) {
		w := p.World()
		row := p.Rank() / cols
		col := p.Rank() % cols
		rowComm := w.Split(row, col)
		colComm := w.Split(rows+col, row) // distinct color space
		for i := 0; i < 15; i++ {
			rs := rowComm.Allreduce(8, uint64(p.Rank()), OpSum)
			cs := colComm.Allreduce(8, uint64(p.Rank()), OpSum)
			wantRow := uint64(0)
			for c := 0; c < cols; c++ {
				wantRow += uint64(row*cols + c)
			}
			wantCol := uint64(0)
			for r := 0; r < rows; r++ {
				wantCol += uint64(r*cols + col)
			}
			if rs != wantRow || cs != wantCol {
				t.Errorf("rank %d iter %d: row=%d want %d, col=%d want %d",
					p.Rank(), i, rs, wantRow, cs, wantCol)
				return
			}
		}
	})
}

// TestRandomMatchedTraffic generates a deterministic pseudo-random
// schedule of matched send/recv pairs plus interleaved collectives and
// checks completion and payload fidelity — a fuzz of the matching layer.
func TestRandomMatchedTraffic(t *testing.T) {
	const P = 6
	const ops = 120
	// Precompute a global schedule: op i is a message from src to dst
	// with tag derived from i; every rank executes its slice in order.
	type op struct{ src, dst, tag int }
	state := uint64(7)
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state>>33) % n
	}
	var schedule []op
	for i := 0; i < ops; i++ {
		src := next(P)
		dst := next(P)
		if src == dst {
			dst = (dst + 1) % P
		}
		schedule = append(schedule, op{src, dst, 1000 + i})
	}
	run(t, P, func(p *Proc) {
		w := p.World()
		for i, o := range schedule {
			switch p.Rank() {
			case o.src:
				w.Send(o.dst, o.tag, 32, i)
			case o.dst:
				if got := w.Recv(o.src, o.tag).Payload.(int); got != i {
					t.Errorf("op %d: payload %d", i, got)
					return
				}
			}
			if i%20 == 19 {
				w.Barrier()
			}
		}
	})
}

// randomTraffic is a pseudo-random schedule of computes, matched
// specific-source pairs and allreduces over 5 ranks.
func randomTraffic(p *Proc) {
	w := p.World()
	state := uint64(11)
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state>>33) % n
	}
	for i := 0; i < 60; i++ {
		src := next(5)
		dst := (src + 1 + next(4)) % 5
		// Draw on every rank so the per-rank RNG streams stay in
		// lockstep; only the source uses the value.
		compute := vtime.Duration(next(1000)) * vtime.Microsecond
		tag := 2000 + i
		switch p.Rank() {
		case src:
			p.Compute(compute)
			w.Send(dst, tag, 64, nil)
		case dst:
			w.Recv(src, tag)
		}
		if i%10 == 9 {
			w.Allreduce(8, uint64(i), OpSum)
		}
	}
}

// TestRandomTrafficDeterministic reruns a pseudo-random schedule and
// demands identical virtual makespans.
func TestRandomTrafficDeterministic(t *testing.T) {
	first := run(t, 5, randomTraffic).Makespan
	for i := 0; i < 2; i++ {
		if got := run(t, 5, randomTraffic).Makespan; got != first {
			t.Fatalf("nondeterministic: %v vs %v", got, first)
		}
	}
}

// mixedTraffic is the shapes the mailbox serves at once: an Alltoall
// (every rank parks once per pair, or finds its message queued,
// depending on who runs first), a ring shift, and a wildcard
// master/worker round whose matches wait on lbtsSafe.
func mixedTraffic(p *Proc) {
	w, n, r := p.World(), p.Size(), p.Rank()
	for i := 0; i < 3; i++ {
		p.Compute(vtime.Duration(r%7+1) * vtime.Microsecond)
		w.Alltoall(64)
		w.Sendrecv((r+1)%n, 1, 512, nil, (r+n-1)%n, 1)
		if r == 0 {
			for k := 1; k < n; k++ {
				msg := w.Recv(AnySource, 2)
				w.Send(msg.Source, 3, 16, nil)
			}
		} else {
			w.Send(0, 2, 16+r, nil)
			w.Recv(0, 3)
		}
	}
}

// TestDeterminismUnderScheduling: which receives park and which find
// their message queued, and who is handed what by whom, is up to the Go
// scheduler; every rank's final clock and ledger is not. 20 runs each on
// 1, 2 and 8 threads must agree to the last rank.
func TestDeterminismUnderScheduling(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct {
		name string
		p    int
		body func(*Proc)
	}{{"random traffic", 5, randomTraffic}, {"alltoall+ring+anysource", 64, mixedTraffic}} {
		var first *Result
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			for i := 0; i < 20; i++ {
				res := run(t, tc.p, tc.body)
				if first == nil {
					first = res
				}
				if !reflect.DeepEqual(res.Clocks, first.Clocks) || !reflect.DeepEqual(res.Ledgers, first.Ledgers) {
					t.Fatalf("%s, GOMAXPROCS=%d, run %d: clocks or ledgers differ from the first run\n%v\n%v", tc.name, procs, i, res.Clocks, first.Clocks)
				}
			}
		}
	}
}

// TestManyRanksSmoke exercises the runtime at a mid scale with a dense
// collective pattern.
func TestManyRanksSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("mid-scale smoke")
	}
	res := run(t, 200, func(p *Proc) {
		w := p.World()
		for i := 0; i < 10; i++ {
			w.Sendrecv((p.Rank()+1)%200, 1, 256, nil, (p.Rank()+199)%200, 1)
			w.Allreduce(8, uint64(p.Rank()), OpSum)
		}
	})
	if res.Makespan <= 0 {
		t.Fatalf("no progress")
	}
}
