package mpi

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"chameleon/internal/vtime"
)

// runDeadline bounds a test run's wall time. It is a deadline, not a
// deadlock detector: a run that has not finished by then fails the
// test with every goroutine's stack, so a lost wake-up reads as a
// failure naming the waits instead of go test's ten-minute timeout.
const runDeadline = 20 * time.Second

// runWithin runs body under Run and fails the test with every
// goroutine's stack if the run has not returned within runDeadline.
// The stuck run's goroutines are left behind; the test binary is
// failing anyway.
func runWithin(t testing.TB, cfg Config, body func(*Proc)) *Result {
	t.Helper()
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := Run(cfg, body)
		done <- outcome{res, err}
	}()
	timer := time.NewTimer(runDeadline)
	defer timer.Stop()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatalf("Run: %v", o.err)
		}
		return o.res
	case <-timer.C:
		buf := make([]byte, 1<<20)
		for {
			n := runtime.Stack(buf, true)
			if n < len(buf) {
				buf = buf[:n]
				break
			}
			buf = make([]byte, 2*len(buf))
		}
		t.Fatalf("Run did not finish within %v; goroutines:\n%s", runDeadline, buf)
		return nil
	}
}

// a2aCase is one drawn Alltoall program: a world, the groups that
// exchange in it (disjoint, sorted world ranks; all of them sharing
// each instance's tag), each rank's compute before every instance,
// and the bytes per pair.
type a2aCase struct {
	p         int
	groups    [][]int
	compute   [][]vtime.Duration // [instance][world rank]
	bytes     int
	worldComm bool // the one group is the world, exchanged on CommWorld
}

// drawA2A draws a case from seed: a group size in [1, 40], the world
// itself or a random sorted subset of a larger one, or two disjoint
// groups under one tag.
func drawA2A(seed int64) a2aCase {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(40)
	c := a2aCase{bytes: rng.Intn(1 << 16)}
	switch rng.Intn(3) {
	case 0:
		c.p, c.worldComm = n, true
		c.groups = [][]int{seqRanks(n)}
	case 1:
		c.p = n + rng.Intn(8)
		c.groups = [][]int{rng.Perm(c.p)[:n]}
	default:
		m := 1 + rng.Intn(40)
		c.p = n + m + rng.Intn(4)
		perm := rng.Perm(c.p)
		c.groups = [][]int{perm[:n], perm[n : n+m]}
	}
	for _, g := range c.groups {
		slices.Sort(g)
	}
	c.compute = make([][]vtime.Duration, 1+rng.Intn(3))
	for i := range c.compute {
		c.compute[i] = make([]vtime.Duration, c.p)
		for r := range c.compute[i] {
			if rng.Intn(4) > 0 { // a quarter enter at their previous clock
				c.compute[i][r] = vtime.Duration(rng.Intn(50_000))
			}
		}
	}
	return c
}

func seqRanks(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// run runs the case with exchange doing each instance (the enactor or
// the evaluator) and returns the run's result.
func (c a2aCase) run(t testing.TB, exchange func(c *Comm, tag, bytes int)) *Result {
	return runWithin(t, Config{P: c.p}, func(p *Proc) {
		for i, comp := range c.compute {
			p.Compute(comp[p.rank])
			if c.worldComm {
				exchange(p.World(), collTag(CommWorld, i, 0), c.bytes)
				continue
			}
			for _, g := range c.groups {
				if comm, ok := groupComm(p, g); ok {
					exchange(&comm, 900<<10|i<<2, c.bytes) // one tag per instance, shared by the groups
				}
			}
		}
	})
}

// FuzzAlltoallEvalMatchesEnacted: the evaluated pairwise exchange
// leaves every rank with the clock and the ledger the enacted one
// does, over the world, a member subset, or two disjoint groups that
// share a tag, each member entering at a clock of its own.
func FuzzAlltoallEvalMatchesEnacted(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		c := drawA2A(seed)
		enacted := c.run(t, (*Comm).enactAlltoall)
		evaluated := c.run(t, (*Comm).evalAlltoall)
		if !reflect.DeepEqual(enacted.Clocks, evaluated.Clocks) {
			t.Fatalf("groups %v bytes %d: clocks\nenacted   %v\nevaluated %v", c.groups, c.bytes, enacted.Clocks, evaluated.Clocks)
		}
		if !reflect.DeepEqual(enacted.Ledgers, evaluated.Ledgers) {
			t.Fatalf("groups %v: ledgers differ", c.groups)
		}
	})
}

// TestEvaluatedAlltoallDoesNotAllocate: once a group's rendezvous has
// a spare slot, an evaluated instance allocates nothing, on any
// member.
func TestEvaluatedAlltoallDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const p, runs = 12, 200
	var allocs float64
	runWithin(t, Config{P: p}, func(pr *Proc) {
		w := pr.World()
		tag := 0
		round := func() {
			w.evalAlltoall(collTag(CommWorld, tag, 0), 64)
			tag++
		}
		for i := 0; i < 20; i++ {
			round() // fill the rendezvous' spare slots
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
		t.Errorf("%v allocs per evaluated Alltoall (all %d members), want 0", allocs, p)
	}
}

// allreduceShapes are the collectives an instance of
// FuzzAllreduceEvalMatchesEnacted runs back to back: a barrier (a sum
// with a 0-byte broadcast) and an allreduce under each built-in
// operator.
var allreduceShapes = []struct {
	op         ReduceOp
	bcastBytes int
}{{OpSum, 0}, {OpSum, 8}, {OpMax, 8}, {OpMin, 8}, {OpBor, 8}}

// allreduceImpl is one path of the reduce-and-broadcast collectives:
// the enactor or the evaluator.
type allreduceImpl func(c *Comm, tag int, v uint64, op ReduceOp, bcastBytes int) uint64

// FuzzAllreduceEvalMatchesEnacted: the evaluated Barrier and Allreduce
// leave every rank with the clock, the ledger and the value the
// enacted ones do, over drawA2A's cases (the world, a member subset,
// or two disjoint groups that share each tag, each member entering at
// a clock of its own) with random words. Every instance runs
// allreduceShapes back to back, so the slot one collective recycles is
// taken by the next while the first one's waiters are still waking.
func FuzzAllreduceEvalMatchesEnacted(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		c := drawA2A(seed)
		rng := rand.New(rand.NewSource(^seed))
		words := make([][]uint64, len(c.compute)*len(allreduceShapes)) // [collective][world rank]
		for i := range words {
			words[i] = make([]uint64, c.p)
			for r := range words[i] {
				words[i][r] = rng.Uint64() >> rng.Intn(64)
			}
		}
		run := func(impl allreduceImpl) (*Result, [][]uint64) {
			got := make([][]uint64, c.p)
			res := runWithin(t, Config{P: c.p}, func(p *Proc) {
				comm, tag := p.World(), func(k int) int { return collTag(CommWorld, k, 0) }
				if !c.worldComm {
					comm, tag = nil, func(k int) int { return 700<<10 | k<<1 } // shared by the groups
					for _, g := range c.groups {
						if gc, ok := groupComm(p, g); ok {
							comm = &gc
						}
					}
				}
				for i, comp := range c.compute {
					p.Compute(comp[p.rank])
					if comm == nil {
						continue
					}
					for j, sh := range allreduceShapes {
						k := i*len(allreduceShapes) + j
						got[p.rank] = append(got[p.rank], impl(comm, tag(k), words[k][p.rank], sh.op, sh.bcastBytes))
					}
				}
			})
			return res, got
		}
		enacted, enactedGot := run((*Comm).enactAllreduce)
		evaluated, evaluatedGot := run((*Comm).evalAllreduce)
		if !reflect.DeepEqual(enacted.Clocks, evaluated.Clocks) {
			t.Fatalf("groups %v: clocks\nenacted   %v\nevaluated %v", c.groups, enacted.Clocks, evaluated.Clocks)
		}
		if !reflect.DeepEqual(enacted.Ledgers, evaluated.Ledgers) {
			t.Fatalf("groups %v: ledgers differ", c.groups)
		}
		if !reflect.DeepEqual(enactedGot, evaluatedGot) {
			t.Fatalf("groups %v: values\nenacted   %v\nevaluated %v", c.groups, enactedGot, evaluatedGot)
		}
	})
}

// emfBeside is EMF's shape with a collective among the workers: rank 0
// serves task requests with AnySource receives while the workers,
// between tasks, run step among themselves (instance i, on their group
// communicator). The master's wildcard matcher sees the workers that
// wait at an evaluated collective's rendezvous as exempt, and must
// still match every request in the order and at the clocks the
// enacted collective gives. It returns the run and what step returned
// on each worker.
func emfBeside(t *testing.T, step func(c *Comm, i, task int) uint64) (*Result, [][]uint64) {
	const p, tasks = 9, 12
	workers := seqRanks(p)[1:]
	got := make([][]uint64, p)
	res := runWithin(t, Config{P: p}, func(pr *Proc) {
		w := pr.World()
		if pr.Rank() == 0 {
			for i := 0; i < tasks*len(workers); i++ {
				msg := w.Recv(AnySource, 1)
				pr.Compute(vtime.Duration(3000 + 100*msg.Source))
				w.Send(msg.Source, 2, 64, i)
			}
			return
		}
		comm, _ := groupComm(pr, workers)
		for i := 0; i < tasks; i++ {
			w.Send(0, 1, 32, nil)
			task := w.Recv(0, 2).Payload.(int)
			pr.Compute(vtime.Duration(1000 * (1 + (task*7+pr.Rank())%5)))
			got[pr.Rank()] = append(got[pr.Rank()], step(&comm, i, task))
		}
	})
	return res, got
}

// TestWildcardBesideEvaluatedAlltoall: emfBeside with a GroupAlltoall
// among the workers.
func TestWildcardBesideEvaluatedAlltoall(t *testing.T) {
	alltoall := func(exchange func(c *Comm, tag, bytes int)) func(c *Comm, i, _ int) uint64 {
		return func(c *Comm, i, _ int) uint64 {
			exchange(c, 800<<10|i<<2, 4096)
			return 0
		}
	}
	enacted, _ := emfBeside(t, alltoall((*Comm).enactAlltoall))
	for rep := 0; rep < 5; rep++ {
		evaluated, _ := emfBeside(t, alltoall((*Comm).evalAlltoall))
		if !reflect.DeepEqual(enacted.Clocks, evaluated.Clocks) {
			t.Fatalf("run %d: clocks\nenacted   %v\nevaluated %v", rep, enacted.Clocks, evaluated.Clocks)
		}
	}
}

// TestWildcardBesideEvaluatedBarrier: emfBeside with a barrier over
// the task numbers, some compute, then an allreduce of them among the
// workers.
func TestWildcardBesideEvaluatedBarrier(t *testing.T) {
	collectives := func(impl allreduceImpl) func(c *Comm, i, task int) uint64 {
		return func(c *Comm, i, task int) uint64 {
			sum := impl(c, 800<<10|i<<2, uint64(task), OpSum, 0)
			c.p.Compute(vtime.Duration(500 * (c.self + 1)))
			return sum<<32 | impl(c, 800<<10|i<<2|2, uint64(task), OpMax, 8)
		}
	}
	enacted, enactedGot := emfBeside(t, collectives((*Comm).enactAllreduce))
	for rep := 0; rep < 5; rep++ {
		evaluated, evaluatedGot := emfBeside(t, collectives((*Comm).evalAllreduce))
		if !reflect.DeepEqual(enacted.Clocks, evaluated.Clocks) {
			t.Fatalf("run %d: clocks\nenacted   %v\nevaluated %v", rep, enacted.Clocks, evaluated.Clocks)
		}
		if !reflect.DeepEqual(enactedGot, evaluatedGot) {
			t.Fatalf("run %d: values\nenacted   %v\nevaluated %v", rep, enactedGot, evaluatedGot)
		}
	}
}
