package core

import (
	"fmt"
	"testing"

	"chameleon/internal/apps"
	"chameleon/internal/cluster"
	"chameleon/internal/fault"
	"chameleon/internal/mpi"
	"chameleon/internal/vtime"
)

// covered lists every rank a cluster table's rank lists cover.
func covered(table []cluster.Item) []int {
	var all []int
	for _, it := range table {
		all = append(all, it.Ranks.Ranks()...)
	}
	return all
}

func leads(table []cluster.Item, rank int) bool {
	for _, it := range table {
		if it.Lead == rank {
			return true
		}
	}
	return false
}

// TestDeparturesLeaveSharedTableAlone: every rank keeps the broadcast
// cluster table by reference, so a survivor folding a crash into its
// table must build a new slice and never write the one the others hold.
// Eight ranks run a steady collective loop with K=2, so the table is
// {lead 0: every other rank} and {lead 1: itself}; rank 1 (a lead, its
// cluster lost) or rank 5 (a member, retired from lead 0's list) crashes
// in the lead phase. Afterwards the crashed rank, which never processed
// its own departure, still holds the table as broadcast, and every
// survivor holds a rewritten view of its own without the crashed rank.
// Under -race a survivor writing the shared slice also races with the
// others' reads.
func TestDeparturesLeaveSharedTableAlone(t *testing.T) {
	const P = 8
	for _, tc := range []struct {
		crash int
		lead  bool
	}{{1, true}, {5, false}} {
		t.Run(fmt.Sprintf("rank%d", tc.crash), func(t *testing.T) {
			plan, err := fault.Parse(fmt.Sprintf("crash rank=%d at marker=10", tc.crash))
			if err != nil {
				t.Fatal(err)
			}
			inj, err := fault.NewInjector(plan, 1, P)
			if err != nil {
				t.Fatal(err)
			}
			chams := make([]*Chameleon, P)
			newRank := New(NewCollector(P), Options{K: 2})
			hooks := func(p *mpi.Proc) mpi.Interposer {
				c := newRank(p).(*Chameleon)
				chams[p.Rank()] = c
				return c
			}
			_, err = mpi.Run(mpi.Config{P: P, Hooks: hooks, Fault: inj}, func(p *mpi.Proc) {
				for it := 0; it < 30; it++ {
					p.Compute(vtime.Millisecond)
					p.ShrunkWorld().Allreduce(8, uint64(p.Rank()), mpi.OpSum)
					apps.Marker(p)
				}
			})
			if err != nil {
				t.Fatal(err)
			}

			shared := chams[tc.crash].clusters
			if got := covered(shared); len(got) != P {
				t.Fatalf("broadcast table covers %v after the crash, want all %d ranks", got, P)
			}
			if leads(shared, tc.crash) != tc.lead {
				t.Fatalf("rank %d leads in the broadcast table: %v, want %v", tc.crash, !tc.lead, tc.lead)
			}
			for r, c := range chams {
				if r == tc.crash {
					continue
				}
				if &c.clusters[0] == &shared[0] {
					t.Errorf("survivor %d still holds the broadcast slice", r)
				}
				got := covered(c.clusters)
				if len(got) != P-1 {
					t.Errorf("survivor %d covers %v, want the %d survivors", r, got, P-1)
				}
				for _, x := range got {
					if x == tc.crash {
						t.Errorf("survivor %d's view still covers crashed rank %d", r, tc.crash)
					}
				}
				if leads(c.clusters, tc.crash) {
					t.Errorf("survivor %d's view still leads with crashed rank %d", r, tc.crash)
				}
			}
		})
	}
}
