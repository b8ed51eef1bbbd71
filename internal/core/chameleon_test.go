package core

import (
	"maps"
	"testing"

	"chameleon/internal/apps"
	"chameleon/internal/mpi"
	"chameleon/internal/scalatrace"
	"chameleon/internal/trace"
	"chameleon/internal/tracer"
	"chameleon/internal/vtime"
)

// ringApp is a repetitive SPMD kernel: `steps` timesteps of a ring
// exchange, a marker at every `freq`-th step.
func ringApp(steps, freq int) func(*mpi.Proc) {
	return func(p *mpi.Proc) {
		w := p.World()
		next := (p.Rank() + 1) % p.Size()
		prev := (p.Rank() + p.Size() - 1) % p.Size()
		for it := 0; it < steps; it++ {
			p.Compute(100 * vtime.Microsecond)
			w.Sendrecv(next, 1, 256, nil, prev, 1)
			if (it+1)%freq == 0 {
				apps.Marker(p)
			}
		}
	}
}

// phaseApp alternates two distinct communication phases.
func phaseApp(stepsPerPhase, phases int) func(*mpi.Proc) {
	return func(p *mpi.Proc) {
		w := p.World()
		next := (p.Rank() + 1) % p.Size()
		prev := (p.Rank() + p.Size() - 1) % p.Size()
		for ph := 0; ph < phases; ph++ {
			for it := 0; it < stepsPerPhase; it++ {
				p.Compute(100 * vtime.Microsecond)
				if ph%2 == 0 {
					w.Sendrecv(next, 1, 256, nil, prev, 1)
				} else {
					w.Allreduce(8, uint64(it), mpi.OpSum)
				}
				apps.Marker(p)
			}
		}
	}
}

func runChameleon(t *testing.T, p int, opt Options, body func(*mpi.Proc)) *Collector {
	t.Helper()
	col := NewCollector(p)
	_, err := mpi.Run(mpi.Config{P: p, Hooks: New(col, opt)}, body)
	if err != nil {
		t.Fatal(err)
	}
	return col
}

func TestTransitionGraphRepetitive(t *testing.T) {
	// 10 markers over a perfectly repetitive kernel: AT (first), C
	// (second), then lead-phase L, finalize F.
	col := runChameleon(t, 8, Options{K: 3}, ringApp(100, 10))
	if col.StateCalls[StateAT] != 1 || col.StateCalls[StateC] != 1 ||
		col.StateCalls[StateL] != 8 || col.StateCalls[StateF] != 1 {
		t.Fatalf("states = %v", col.StateCalls)
	}
	if col.Reclusterings != 1 {
		t.Fatalf("reclusterings = %d", col.Reclusterings)
	}
	if len(col.LeadRanks) != 3 {
		t.Fatalf("leads = %v", col.LeadRanks)
	}
	if col.CallPathClusters != 1 {
		t.Fatalf("call paths = %d", col.CallPathClusters)
	}
	if len(col.Global) == 0 {
		t.Fatalf("no online trace")
	}
}

func TestTransitionGraphPhaseChange(t *testing.T) {
	// Two phases: the change forces a flush and a re-clustering.
	col := runChameleon(t, 8, Options{K: 3}, phaseApp(20, 2))
	if col.Reclusterings != 2 {
		t.Fatalf("reclusterings = %d, want 2", col.Reclusterings)
	}
	// The phase boundary shows up as extra AT calls (mismatch) around
	// the second clustering.
	if col.StateCalls[StateC] != 2 {
		t.Fatalf("C calls = %d", col.StateCalls[StateC])
	}
}

func TestCallFrequencySkips(t *testing.T) {
	// With Call_Frequency 5 only every fifth marker engages Algorithm 1.
	col := runChameleon(t, 4, Options{K: 2, CallFrequency: 5}, ringApp(100, 2)) // 50 markers
	engaged := col.StateCalls[StateAT] + col.StateCalls[StateC] + col.StateCalls[StateL]
	if engaged != 10 {
		t.Fatalf("engaged = %d, want 10", engaged)
	}
}

func TestNonLeadsStopTracing(t *testing.T) {
	col := runChameleon(t, 8, Options{K: 2}, ringApp(100, 10))
	isLead := map[int]bool{}
	for _, l := range col.LeadRanks {
		isLead[l] = true
	}
	nonLeads := 0
	for r := 0; r < 8; r++ {
		if isLead[r] {
			continue
		}
		nonLeads++
		if col.SpaceByState[r][StateL] != 0 {
			t.Fatalf("non-lead %d allocated %d bytes in L", r, col.SpaceByState[r][StateL])
		}
		if col.SpaceByState[r][StateF] != 0 {
			t.Fatalf("non-lead %d allocated %d bytes in F", r, col.SpaceByState[r][StateF])
		}
		if col.SpaceByState[r][StateAT] == 0 {
			t.Fatalf("non-lead %d allocated nothing in AT", r)
		}
	}
	if nonLeads == 0 {
		t.Fatalf("no non-leads with K=2, P=8")
	}
	// Rank 0 additionally holds the online trace.
	if col.OnlineBytes == 0 {
		t.Fatalf("online trace empty")
	}
}

func TestEventsObservedVsRecorded(t *testing.T) {
	col := runChameleon(t, 8, Options{K: 2}, ringApp(100, 10))
	if col.EventsObserved != 8*100 {
		t.Fatalf("observed = %d", col.EventsObserved)
	}
	// In the lead phase only 2 of 8 ranks record, so far fewer events
	// are recorded than observed (Observation 1).
	if col.Events >= col.EventsObserved {
		t.Fatalf("recorded %d >= observed %d", col.Events, col.EventsObserved)
	}
	if col.Events < 100 {
		t.Fatalf("recorded suspiciously few: %d", col.Events)
	}
}

// stacksOf collects the distinct stack signatures of a trace.
func stacksOf(seq []*trace.Node) map[uint64]struct{} {
	out := map[uint64]struct{}{}
	for _, n := range seq {
		if n.IsLoop() {
			maps.Copy(out, stacksOf(n.Body))
		} else {
			out[uint64(n.Ev.Stack)] = struct{}{}
		}
	}
	return out
}

// dynamicFor counts per-rank dynamic events in a global trace.
func dynamicFor(seq []*trace.Node, rank int) uint64 {
	var total uint64
	var walk func(seq []*trace.Node, mult uint64)
	walk = func(seq []*trace.Node, mult uint64) {
		for _, n := range seq {
			if n.IsLoop() {
				walk(n.Body, mult*n.MeanIters())
			} else if n.Ranks.Contains(rank) {
				total += mult
			}
		}
	}
	walk(seq, 1)
	return total
}

func TestOnlineTraceMatchesScalaTrace(t *testing.T) {
	// The central correctness claim: Chameleon's incrementally built
	// online trace covers the same events as ScalaTrace's Finalize-time
	// global trace — same call sites, same per-rank dynamic counts.
	const P = 8
	body := ringApp(100, 10)

	stCol := scalatrace.NewCollector(P)
	if _, err := mpi.Run(mpi.Config{P: P, Hooks: scalatrace.New(stCol, scalatrace.Options{})}, body); err != nil {
		t.Fatal(err)
	}
	chCol := runChameleon(t, P, Options{K: 3}, body)

	stStacks, chStacks := stacksOf(stCol.Global), stacksOf(chCol.Global)
	if len(stStacks) != len(chStacks) {
		t.Fatalf("stack sets differ: %d vs %d", len(stStacks), len(chStacks))
	}
	for s := range stStacks {
		if _, ok := chStacks[s]; !ok {
			t.Fatalf("online trace missing call site %x", s)
		}
	}
	for r := 0; r < P; r++ {
		st, ch := dynamicFor(stCol.Global, r), dynamicFor(chCol.Global, r)
		if st != ch {
			t.Fatalf("rank %d: ScalaTrace %d events, Chameleon %d", r, st, ch)
		}
	}
}

func TestOnlineTraceMatchesWithPhases(t *testing.T) {
	const P = 8
	body := phaseApp(20, 3)
	stCol := scalatrace.NewCollector(P)
	if _, err := mpi.Run(mpi.Config{P: P, Hooks: scalatrace.New(stCol, scalatrace.Options{})}, body); err != nil {
		t.Fatal(err)
	}
	chCol := runChameleon(t, P, Options{K: 3}, body)
	for r := 0; r < P; r++ {
		st, ch := dynamicFor(stCol.Global, r), dynamicFor(chCol.Global, r)
		if st != ch {
			t.Fatalf("rank %d: %d vs %d events", r, st, ch)
		}
	}
}

func TestStateString(t *testing.T) {
	if StateAT.String() != "AT" || StateC.String() != "C" ||
		StateL.String() != "L" || StateF.String() != "F" {
		t.Fatalf("state names wrong")
	}
	if State(9).String() != "S?" {
		t.Fatalf("unknown state name")
	}
}

func TestOptionsNormalized(t *testing.T) {
	o := Options{}.Normalized()
	if o.K != 9 || o.CallFrequency != 1 {
		t.Fatalf("defaults: %+v", o)
	}
}

func TestOverheadCategoriesPopulated(t *testing.T) {
	const P = 8
	col := NewCollector(P)
	res, err := mpi.Run(mpi.Config{P: P, Hooks: New(col, Options{K: 2})}, ringApp(100, 10))
	if err != nil {
		t.Fatal(err)
	}
	agg := res.AggregateLedger()
	for _, cat := range []vtime.Category{vtime.CatMarker, vtime.CatCluster, vtime.CatInterComp, vtime.CatIntra} {
		if agg.Spent(cat) <= 0 {
			t.Fatalf("category %v empty", cat)
		}
	}
}

func TestSigModeFilteredClusters(t *testing.T) {
	// A kernel whose inner loop trip count varies per timestep: only the
	// filtered signature mode achieves clustering.
	body := func(p *mpi.Proc) {
		w := p.World()
		for it := 0; it < 40; it++ {
			inner := 3 + (it*7)%5
			for k := 0; k < inner; k++ {
				w.Allreduce(8, uint64(k), mpi.OpSum)
			}
			if (it+1)%4 == 0 {
				apps.Marker(p)
			}
		}
	}
	full := runChameleon(t, 4, Options{K: 2, SigMode: tracer.SigFull, Filter: true}, body)
	if full.StateCalls[StateC] != 0 {
		t.Fatalf("full mode clustered an irregular kernel: %v", full.StateCalls)
	}
	filtered := runChameleon(t, 4, Options{K: 2, SigMode: tracer.SigFiltered, Filter: true}, body)
	if filtered.StateCalls[StateC] == 0 {
		t.Fatalf("filtered mode never clustered: %v", filtered.StateCalls)
	}
}
