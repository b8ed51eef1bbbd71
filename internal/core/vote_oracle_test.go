package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"chameleon/internal/apps"
	"chameleon/internal/fault"
	"chameleon/internal/mpi"
	"chameleon/internal/vtime"
)

// markerStep is what one rank saw at one marker barrier: the vote sum
// it read, the state Algorithm 1 returned (-1 at a marker CallFrequency
// does not engage) and the lead set it held afterwards.
type markerStep struct {
	sum   uint64
	state State
	leads []int
}

// voteOracle wraps one rank's Chameleon, in either mode, so that the
// two runs being compared capture the same call stacks. With old set it
// runs Algorithm 1's vote as it ran before the marker barrier carried
// it (twoCollectiveVote); otherwise it passes straight through. It
// records a markerStep per marker barrier.
type voteOracle struct {
	*Chameleon
	old   bool
	steps []markerStep
}

func (o *voteOracle) Pre(ci *mpi.CallInfo) {
	if o.old {
		o.pre = o.p.Clock.Now()
		return
	}
	o.Chameleon.Pre(ci)
}

func (o *voteOracle) Post(ci *mpi.CallInfo) {
	if !ci.Marker() {
		o.Chameleon.Post(ci)
		return
	}
	engaged := o.engaged
	sum := ci.Vote
	if o.old {
		sum = o.twoCollectiveVote()
	}
	o.onMarker(sum)
	step := markerStep{sum: sum, state: -1, leads: slices.Clone(o.leads)}
	if o.engaged != engaged {
		step.state = o.lastState
	}
	o.steps = append(o.steps, step)
}

// twoCollectiveVote is the vote as it ran before the marker barrier
// carried it: after the barrier, at a marker CallFrequency engages and
// that has an old Call-Path to compare with, each rank reads the window's
// Call-Path and votes with a Reduce+Bcast of its own on the marker
// communicator; once membership has shrunk, over the survivors, with the
// membership epoch in the high bits. Its hops are booked to CatMarker
// on top of the marker barrier's.
func (o *voteOracle) twoCollectiveVote() uint64 {
	c := o.Chameleon
	if (c.markerCalls+1)%c.opt.CallFrequency != 0 {
		return 0
	}
	c.curSig = c.rec.Win.Triple()
	if !c.haveOld {
		return 0
	}
	mismatch := uint64(0)
	if c.oldCallPath != c.curSig.CallPath {
		mismatch = 1
	}
	const epochShift = 20
	var glob uint64
	alive := c.p.AliveRanks()
	if c.p.Epoch() == 0 {
		glob = c.p.MarkerComm().RawAllreduceU64(mismatch, mpi.OpSum)
	} else {
		epoch := uint64(c.p.Epoch())
		tot := c.p.Group(c.p.Epoch(), alive).RawAllreduceU64(mismatch|epoch<<epochShift, mpi.OpSum)
		if got, want := tot>>epochShift, epoch*uint64(len(alive)); got != want {
			panic(fmt.Sprintf("vote epoch sum %d, want %d", got, want))
		}
		glob = tot & (1<<epochShift - 1)
	}
	model := c.p.Model()
	hops := vtime.Duration(vtime.Log2Ceil(len(alive)))
	c.p.Ledger.Charge(vtime.CatMarker, hops*(model.Alpha+model.CollectivePerLevel))
	return glob
}

// voteOutcome is what a run under one vote reports: each rank's
// markerSteps, the collector's counts and the merged trace's bytes.
type voteOutcome struct {
	steps         [][]markerStep
	stateCalls    [NumStates]int
	reclusterings int
	leads         []int
	trace         []byte
	departed      []int
}

func runVoteMode(t *testing.T, spec apps.Spec, freq int, plan string, old bool) voteOutcome {
	t.Helper()
	cfg := mpi.Config{P: spec.P}
	if plan != "" {
		parsed, err := fault.Parse(plan)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Fault, err = fault.NewInjector(parsed, 1, spec.P); err != nil {
			t.Fatal(err)
		}
	}
	col := NewCollector(spec.P)
	newRank := New(col, Options{K: spec.K, CallFrequency: freq, SigMode: spec.SigMode, Filter: spec.Filter})
	ranks := make([]*voteOracle, spec.P)
	cfg.Hooks = func(p *mpi.Proc) mpi.Interposer {
		ranks[p.Rank()] = &voteOracle{Chameleon: newRank(p).(*Chameleon), old: old}
		return ranks[p.Rank()]
	}
	res, err := mpi.Run(cfg, spec.Body(true))
	if err != nil {
		t.Fatal(err)
	}
	out := voteOutcome{
		stateCalls:    col.StateCalls,
		reclusterings: col.Reclusterings,
		leads:         col.LeadRanks,
		departed:      res.Departed,
	}
	for _, r := range ranks {
		out.steps = append(out.steps, r.steps)
	}
	f := col.File(spec.P, spec.Name, spec.Filter)
	f.Retired = res.Departed
	if out.trace, err = f.MarshalBinary(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestVoteMatchesTwoCollectiveOracle holds the vote the marker barrier
// carries to the two-collective vote it replaced (voteOracle): STENCIL,
// PHASE (four phase changes), LU and EMF at CallFrequency 1 and 3, and
// PHASE with a lead crashing, must give every rank the same vote sum,
// state and lead set at every marker, the same state counts,
// re-clusterings and final leads, and byte-identical merged traces.
func TestVoteMatchesTwoCollectiveOracle(t *testing.T) {
	type run struct {
		spec apps.Spec
		freq int
		plan string
	}
	var runs []run
	for _, spec := range []apps.Spec{
		apps.Stencil(apps.ClassA, 16),
		apps.Phase(apps.ClassA, 16),
		apps.LU(apps.ClassA, 16),
		apps.EMF(26),
	} {
		for _, freq := range []int{1, 3} {
			runs = append(runs, run{spec, freq, ""})
		}
	}
	runs = append(runs, run{apps.Phase(apps.ClassA, 16), 1, "crash rank=1 at marker=10"})
	for _, tc := range runs {
		t.Run(fmt.Sprintf("%s/P%d/freq%d/%q", tc.spec.Name, tc.spec.P, tc.freq, tc.plan), func(t *testing.T) {
			want := runVoteMode(t, tc.spec, tc.freq, tc.plan, true)
			got := runVoteMode(t, tc.spec, tc.freq, tc.plan, false)
			if tc.plan != "" && len(want.departed) == 0 {
				t.Fatalf("plan %q crashed no rank", tc.plan)
			}
			if !slices.Equal(got.departed, want.departed) {
				t.Fatalf("departed %v, oracle %v", got.departed, want.departed)
			}
			for r := range want.steps {
				g, w := got.steps[r], want.steps[r]
				if len(g) != len(w) {
					t.Fatalf("rank %d passed %d markers, oracle %d", r, len(g), len(w))
				}
				for m := range w {
					if g[m].sum != w[m].sum || g[m].state != w[m].state || !slices.Equal(g[m].leads, w[m].leads) {
						t.Fatalf("rank %d marker %d: sum %d state %v leads %v, oracle sum %d state %v leads %v",
							r, m+1, g[m].sum, g[m].state, g[m].leads, w[m].sum, w[m].state, w[m].leads)
					}
				}
			}
			if got.stateCalls != want.stateCalls || got.reclusterings != want.reclusterings ||
				!slices.Equal(got.leads, want.leads) {
				t.Fatalf("states %v, %d re-clusterings, leads %v; oracle %v, %d, %v",
					got.stateCalls, got.reclusterings, got.leads, want.stateCalls, want.reclusterings, want.leads)
			}
			if !bytes.Equal(got.trace, want.trace) {
				t.Fatalf("merged trace differs from the oracle's: %d bytes, oracle %d", len(got.trace), len(want.trace))
			}
			if want.reclusterings == 0 {
				t.Fatal("the oracle never clustered: the workload exercises no vote")
			}
		})
	}
}
