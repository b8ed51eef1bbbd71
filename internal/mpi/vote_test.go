package mpi

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"chameleon/internal/fault"
	"chameleon/internal/vtime"
)

// voteHooks leaves word(rank, marker) in every marker barrier's
// CallInfo and records the sum each Post finds there.
type voteHooks struct {
	p      *Proc
	word   func(rank, marker int) uint64
	marker int
	sums   []uint64
}

func (h *voteHooks) Pre(ci *CallInfo) {
	if ci.Marker() {
		h.marker++
		ci.Vote = h.word(h.p.rank, h.marker)
	}
}

func (h *voteHooks) Post(ci *CallInfo) {
	if ci.Marker() {
		h.sums = append(h.sums, ci.Vote)
	}
}

func (h *voteHooks) Finalize() {}

// refRawBarrier is the full-communicator barrier as it was before a
// barrier carried a word: reduce a 0, broadcast an empty message.
func refRawBarrier(c *Comm) {
	seq := c.nextSeq()
	c.treeReduceU64(0, collTag(c.id, seq, 0), 0, OpSum)
	c.treeBcast(0, collTag(c.id, seq, 1), message{})
}

// refMarker is the marker barrier as it was before it carried a word:
// the fault protocol of faultMarker, then refRawBarrier on the marker
// communicator, whose group is the survivors once a crash has fired.
func refMarker(p *Proc) {
	if in := p.rt.fault; in != nil {
		p.markerSeq++
		m := p.markerSeq
		if cm := in.CrashMarker(p.rank); cm >= 0 && m >= cm {
			panic(crashExit{marker: m})
		}
		if e := in.EpochAt(m); e != p.epoch {
			alive := in.AliveAfter(m)
			p.epoch = e
			p.marker = &Comm{p: p, id: CommMarker, group: alive, self: TreePos(alive, p.rank)}
			p.shrunk = &Comm{p: p, id: shrunkCommBase + CommID(e), group: alive, self: TreePos(alive, p.rank)}
		}
	}
	ci, start := p.opBegin(CallInfo{Op: OpBarrier, Comm: CommMarker, Dest: NoPeer, Src: NoPeer, Root: NoPeer})
	refRawBarrier(p.marker)
	p.opEnd(ci, start)
}

// voteRun is one run of a rank-imbalanced loop of shrunk-world
// allreduces and marker barriers: each rank's clock, ledger and
// collective sequence numbers, and the sums its marker barriers handed
// Post.
type voteRun struct {
	res  *Result
	seqs []map[CommID]int
	sums [][]uint64
}

const voteMarkers = 7

func runVote(t *testing.T, p int, plan string, ref bool, word func(rank, marker int) uint64) voteRun {
	t.Helper()
	cfg := Config{P: p}
	if plan != "" {
		parsed, err := fault.Parse(plan)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Fault, err = fault.NewInjector(parsed, 1, p); err != nil {
			t.Fatal(err)
		}
	}
	hooks := make([]*voteHooks, p)
	procs := make([]*Proc, p)
	cfg.Hooks = func(pr *Proc) Interposer {
		procs[pr.rank] = pr
		hooks[pr.rank] = &voteHooks{p: pr, word: word}
		return hooks[pr.rank]
	}
	res, err := Run(cfg, func(pr *Proc) {
		for it := 0; it < voteMarkers; it++ {
			pr.Compute(vtime.Duration(1+(pr.rank*7+it)%5) * 10 * vtime.Microsecond)
			pr.ShrunkWorld().Allreduce(8, 1, OpSum)
			if ref {
				refMarker(pr)
			} else {
				pr.MarkerComm().Barrier()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	out := voteRun{res: res}
	for r := 0; r < p; r++ {
		out.seqs = append(out.seqs, procs[r].collSeq)
		out.sums = append(out.sums, hooks[r].sums)
	}
	return out
}

// TestMarkerWordCostsNothing: the word a marker barrier carries must
// not move the virtual clock. Over the full communicator (P=8, and P=6
// whose tree is not full) and over shrinking groups (a crash at marker
// 3, another at marker 5), marker barriers carrying nonzero words and
// ones carrying 0 leave every rank with the clock, ledger and collective
// sequence numbers of the barrier as it was before it carried a word
// (refMarker), and every rank reads the sum of the words the ranks alive
// at that marker entered with.
func TestMarkerWordCostsNothing(t *testing.T) {
	words := map[string]func(rank, marker int) uint64{
		"zero":    func(int, int) uint64 { return 0 },
		"nonzero": func(rank, marker int) uint64 { return uint64(1 + rank*marker%5 + 100*rank) },
	}
	for _, tc := range []struct {
		p    int
		plan string
	}{
		{8, ""},
		{6, ""},
		{8, "crash rank=2 at marker=3; crash rank=5 at marker=5"},
		{6, "crash rank=3 at marker=2"},
	} {
		t.Run(fmt.Sprintf("P%d/%q", tc.p, tc.plan), func(t *testing.T) {
			parsed, err := fault.Parse(tc.plan)
			if err != nil {
				t.Fatal(err)
			}
			// crashed reports whether rank q has crashed by marker m.
			crashed := func(q, m int) bool {
				for _, c := range parsed.Crashes {
					if c.Rank == q && m >= c.Marker {
						return true
					}
				}
				return false
			}
			ref := runVote(t, tc.p, tc.plan, true, words["zero"])
			for name, word := range words {
				got := runVote(t, tc.p, tc.plan, false, word)
				if got.res.Makespan != ref.res.Makespan {
					t.Errorf("%s: makespan %v, want %v", name, got.res.Makespan, ref.res.Makespan)
				}
				for r := 0; r < tc.p; r++ {
					if got.res.Clocks[r] != ref.res.Clocks[r] {
						t.Errorf("%s: rank %d clock %v, want %v", name, r, got.res.Clocks[r], ref.res.Clocks[r])
					}
					if *got.res.Ledgers[r] != *ref.res.Ledgers[r] {
						t.Errorf("%s: rank %d ledger %v, want %v", name, r, *got.res.Ledgers[r], *ref.res.Ledgers[r])
					}
					if !maps.Equal(got.seqs[r], ref.seqs[r]) {
						t.Errorf("%s: rank %d collective sequence %v, want %v", name, r, got.seqs[r], ref.seqs[r])
					}
					passed := voteMarkers
					for m := 1; m <= voteMarkers; m++ {
						if crashed(r, m) {
							passed = m - 1
							break
						}
					}
					if len(got.sums[r]) != passed {
						t.Errorf("%s: rank %d passed %d markers, want %d", name, r, len(got.sums[r]), passed)
					}
					for i, sum := range got.sums[r] {
						m := i + 1
						var want uint64
						for q := 0; q < tc.p; q++ {
							if !crashed(q, m) {
								want += word(q, m)
							}
						}
						if sum != want {
							t.Errorf("%s: rank %d marker %d read sum %d, want %d", name, r, m, sum, want)
						}
					}
				}
			}
		})
	}
}

// TestSurvivorsMarkerIsAWorldMarker: once crashes have shrunk the
// membership to n survivors, a marker barrier is the marker barrier of
// an n-rank world: a P=11 run whose ranks 2, 5 and 9 crash at the first
// marker leaves every survivor with the clock, ledger and vote sums of
// the rank at its position in an 8-rank world running the same
// position-keyed compute and words without faults.
func TestSurvivorsMarkerIsAWorldMarker(t *testing.T) {
	const markers = 6
	crashed := []int{2, 5, 9}
	var survivors []int
	for r := 0; r < 11; r++ {
		if !slices.Contains(crashed, r) {
			survivors = append(survivors, r)
		}
	}
	run := func(p int, plan string, pos func(rank int) int) (*Result, [][]uint64) {
		cfg := Config{P: p}
		if plan != "" {
			parsed, err := fault.Parse(plan)
			if err != nil {
				t.Fatal(err)
			}
			if cfg.Fault, err = fault.NewInjector(parsed, 1, p); err != nil {
				t.Fatal(err)
			}
		}
		hooks := make([]*voteHooks, p)
		cfg.Hooks = func(pr *Proc) Interposer {
			hooks[pr.rank] = &voteHooks{p: pr, word: func(rank, marker int) uint64 {
				return uint64(1 + pos(rank)*marker%7)
			}}
			return hooks[pr.rank]
		}
		res, err := Run(cfg, func(pr *Proc) {
			for m := 0; m < markers; m++ {
				pr.Compute(vtime.Duration(1+(pos(pr.rank)*5+m)%7) * 10 * vtime.Microsecond)
				pr.MarkerComm().Barrier()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		sums := make([][]uint64, p)
		for r, h := range hooks {
			sums[r] = h.sums
		}
		return res, sums
	}
	plan := fmt.Sprintf("crash rank=%d at marker=1; crash rank=%d at marker=1; crash rank=%d at marker=1", crashed[0], crashed[1], crashed[2])
	got, gotSums := run(11, plan, func(rank int) int { return max(slices.Index(survivors, rank), 0) })
	want, wantSums := run(len(survivors), "", func(rank int) int { return rank })
	if !slices.Equal(got.Departed, crashed) {
		t.Fatalf("departed %v, want %v", got.Departed, crashed)
	}
	for i, r := range survivors {
		if got.Clocks[r] != want.Clocks[i] {
			t.Errorf("survivor %d (position %d): clock %v, world rank %v", r, i, got.Clocks[r], want.Clocks[i])
		}
		if *got.Ledgers[r] != *want.Ledgers[i] {
			t.Errorf("survivor %d (position %d): ledger %v, world rank %v", r, i, *got.Ledgers[r], *want.Ledgers[i])
		}
		if !slices.Equal(gotSums[r], wantSums[i]) || len(gotSums[r]) != markers {
			t.Errorf("survivor %d (position %d): vote sums %v, world rank %v", r, i, gotSums[r], wantSums[i])
		}
	}
}
