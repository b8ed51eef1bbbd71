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

// TestWildcardBesideEvaluatedAlltoall is EMF's shape with an exchange
// among the workers: rank 0 serves task requests with AnySource
// receives while the workers, between tasks, run GroupAlltoall among
// themselves. The master's wildcard matcher sees the workers that wait
// at the rendezvous as exempt, and must still match every request in
// the order and at the clocks the enacted exchange gives.
func TestWildcardBesideEvaluatedAlltoall(t *testing.T) {
	const p, tasks = 9, 12
	workers := seqRanks(p)[1:]
	body := func(exchange func(c *Comm, tag, bytes int)) func(*Proc) {
		return func(pr *Proc) {
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
				exchange(&comm, 800<<10|i<<2, 4096)
			}
		}
	}
	enacted := runWithin(t, Config{P: p}, body((*Comm).enactAlltoall))
	for rep := 0; rep < 5; rep++ {
		evaluated := runWithin(t, Config{P: p}, body((*Comm).evalAlltoall))
		if !reflect.DeepEqual(enacted.Clocks, evaluated.Clocks) {
			t.Fatalf("run %d: clocks\nenacted   %v\nevaluated %v", rep, enacted.Clocks, evaluated.Clocks)
		}
	}
}
