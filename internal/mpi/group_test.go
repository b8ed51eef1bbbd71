package mpi

import (
	"reflect"
	"sync"
	"testing"
)

// runGroup executes body on p ranks and fails the test on error.
func runGroup(t *testing.T, p int, body func(p *Proc)) *Result {
	t.Helper()
	res, err := Run(Config{P: p}, body)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestGroupAllreduceSubset(t *testing.T) {
	members := []int{1, 3, 4, 6}
	var mu sync.Mutex
	got := map[int]uint64{}
	runGroup(t, 8, func(p *Proc) {
		if TreePos(members, p.Rank()) < 0 {
			return
		}
		v := GroupAllreduceU64(p, members, 100<<10, uint64(p.Rank()), OpSum)
		mu.Lock()
		got[p.Rank()] = v
		mu.Unlock()
	})
	want := uint64(1 + 3 + 4 + 6)
	for _, r := range members {
		if got[r] != want {
			t.Errorf("rank %d allreduce = %d, want %d", r, got[r], want)
		}
	}
}

func TestGroupReduceBcastRoles(t *testing.T) {
	members := []int{0, 2, 5}
	var mu sync.Mutex
	roots := map[int]bool{}
	bcast := map[int]uint64{}
	runGroup(t, 6, func(p *Proc) {
		if TreePos(members, p.Rank()) < 0 {
			return
		}
		v, isRoot := GroupReduceU64(p, members, 200<<10, 1, OpSum)
		mu.Lock()
		roots[p.Rank()] = isRoot
		mu.Unlock()
		if isRoot && v != 3 {
			t.Errorf("root reduce = %d, want 3", v)
		}
		out := GroupBcastObj(p, members, 300<<10, uint64(p.Rank())*10, 8).(uint64)
		mu.Lock()
		bcast[p.Rank()] = out
		mu.Unlock()
	})
	for _, r := range members {
		if wantRoot := r == members[0]; roots[r] != wantRoot {
			t.Errorf("rank %d root = %v, want %v", r, roots[r], wantRoot)
		}
		if bcast[r] != 0 {
			// members[0] == 0, so the broadcast value is 0*10.
			t.Errorf("rank %d bcast = %d, want 0", r, bcast[r])
		}
	}
}

func TestGroupGatherScatterAlltoallBarrier(t *testing.T) {
	members := []int{1, 2, 3, 5, 7}
	var mu sync.Mutex
	var gathered []any
	runGroup(t, 8, func(p *Proc) {
		if TreePos(members, p.Rank()) < 0 {
			return
		}
		GroupAllreduceU64(p, members, 400<<10, 0, OpSum)
		out := GroupGatherObj(p, members, 500<<10, 8, p.Rank()*100)
		if out != nil {
			mu.Lock()
			gathered = out
			mu.Unlock()
		}
		GroupScatter(p, members, 600<<10, 64)
		GroupAlltoall(p, members, 700<<10, 32)
		GroupAllreduceU64(p, members, 800<<10, 0, OpSum)
	})
	want := []any{100, 200, 300, 500, 700}
	if !reflect.DeepEqual(gathered, want) {
		t.Errorf("gather = %v, want %v", gathered, want)
	}
}

func TestGroupNonMemberNoop(t *testing.T) {
	members := []int{0, 1}
	runGroup(t, 4, func(p *Proc) {
		// Ranks 2 and 3 call every helper too; they must return
		// immediately without traffic (the members complete regardless).
		GroupAllreduceU64(p, members, 900<<10, 0, OpSum)
		GroupAllreduceU64(p, members, 1000<<10, 1, OpSum)
		if out := GroupBcastObj(p, members, 1100<<10, "keep", 4); TreePos(members, p.Rank()) < 0 && out != "keep" {
			t.Errorf("non-member bcast returned %v", out)
		}
	})
}

func TestShrunkWorldIsWorldWhenFull(t *testing.T) {
	runGroup(t, 4, func(p *Proc) {
		if p.ShrunkWorld() != p.World() {
			t.Error("full-membership ShrunkWorld must alias World")
		}
		alive := p.AliveRanks()
		if len(alive) != p.Size() || &alive[0] != &p.World().group[0] {
			t.Errorf("AliveRanks is %v, want the world's shared [0,P) list", alive)
		}
		for i, r := range alive {
			if r != i {
				t.Errorf("AliveRanks is %v, want [0,P)", alive)
				break
			}
		}
		if p.Departed(1) {
			t.Error("Departed must be false without faults")
		}
	})
}
