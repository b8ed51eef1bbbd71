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
		c := p.Group(0, members)
		if c == nil {
			return
		}
		v := c.Allreduce(8, uint64(p.Rank()), OpSum)
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
	ranks := map[int]int{}
	bcast := map[int]uint64{}
	runGroup(t, 6, func(p *Proc) {
		c := p.Group(1, members)
		if c == nil {
			return
		}
		v := c.Reduce(0, 8, 1, OpSum)
		mu.Lock()
		ranks[p.Rank()] = c.Rank()
		mu.Unlock()
		if c.Rank() == 0 && v != 3 {
			t.Errorf("root reduce = %d, want 3", v)
		}
		out := c.Bcast(0, 8, uint64(p.Rank())*10).(uint64)
		mu.Lock()
		bcast[p.Rank()] = out
		mu.Unlock()
	})
	for pos, r := range members {
		if ranks[r] != pos {
			t.Errorf("rank %d is comm rank %d, want %d", r, ranks[r], pos)
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
		c := p.Group(2, members)
		if c == nil {
			return
		}
		c.Barrier()
		out := c.Gather(0, 8, p.Rank()*100)
		if out != nil {
			mu.Lock()
			gathered = out
			mu.Unlock()
		}
		c.Scatter(0, 64, nil)
		c.Alltoall(32)
		c.Barrier()
	})
	want := []any{100, 200, 300, 500, 700}
	if !reflect.DeepEqual(gathered, want) {
		t.Errorf("gather = %v, want %v", gathered, want)
	}
}

func TestGroupNonMemberNoop(t *testing.T) {
	members := []int{0, 1}
	runGroup(t, 4, func(p *Proc) {
		// Ranks 2 and 3 get no communicator; GroupBcastObj returns
		// them their object at once, without traffic (the members
		// complete regardless).
		c := p.Group(3, members)
		if member := TreePos(members, p.Rank()) >= 0; member != (c != nil) {
			t.Errorf("rank %d: Group = %v, member %v", p.Rank(), c, member)
		}
		if c != nil {
			if c.ID() != groupCommBase+3 || c.Size() != len(members) {
				t.Errorf("rank %d: Group ID %d size %d", p.Rank(), c.ID(), c.Size())
			}
			c.Allreduce(8, 1, OpSum)
		}
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
