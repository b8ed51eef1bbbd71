package mpi

import (
	"testing"
)

func TestTreePos(t *testing.T) {
	members := []int{5, 9, 2, 7}
	if TreePos(members, 9) != 1 {
		t.Fatalf("pos of 9")
	}
	if TreePos(members, 4) != -1 {
		t.Fatalf("non-member found")
	}
}

func TestTreeParentChildSymmetry(t *testing.T) {
	// For every tree size, every non-root position's parent must list it
	// as a child, and the root reaches every position.
	for n := 1; n <= 70; n++ {
		for pos := 1; pos < n; pos++ {
			parent := TreeParentPos(pos)
			if parent < 0 || parent >= n {
				t.Fatalf("n=%d pos=%d: parent %d out of range", n, pos, parent)
			}
			found := false
			for _, c := range TreeChildPositions(parent, n) {
				if c == pos {
					found = true
				}
			}
			if !found {
				t.Fatalf("n=%d: parent %d does not list child %d", n, parent, pos)
			}
		}
		// Reachability: BFS from root covers all positions exactly once.
		seen := map[int]bool{0: true}
		frontier := []int{0}
		for len(frontier) > 0 {
			var next []int
			for _, f := range frontier {
				for _, c := range TreeChildPositions(f, n) {
					if seen[c] {
						t.Fatalf("n=%d: position %d reached twice", n, c)
					}
					seen[c] = true
					next = append(next, c)
				}
			}
			frontier = next
		}
		if len(seen) != n {
			t.Fatalf("n=%d: reached %d positions", n, len(seen))
		}
	}
}

func TestTreeParentRoot(t *testing.T) {
	if TreeParentPos(0) != -1 {
		t.Fatalf("root has a parent")
	}
}

func TestOpCodeStrings(t *testing.T) {
	for op := OpNone; op < numOpCodes; op++ {
		if op.String() == "" || op.String() == "op?" {
			t.Fatalf("op %d has no name", op)
		}
	}
	if OpCode(200).String() != "op?" {
		t.Fatalf("unknown op name")
	}
}

func TestOpCodeClassification(t *testing.T) {
	if !OpSend.IsPointToPoint() || OpSend.IsCollective() {
		t.Fatalf("Send classification")
	}
	if !OpBarrier.IsCollective() || OpBarrier.IsPointToPoint() {
		t.Fatalf("Barrier classification")
	}
	if OpWait.IsCollective() {
		t.Fatalf("Wait classified collective")
	}
}

func TestMailboxPending(t *testing.T) {
	mb := testRuntime(2, 1).mailboxes[0]
	if mb.pending() != 0 {
		t.Fatalf("fresh mailbox pending")
	}
	mb.deposit(message{comm: CommWorld, source: 1, tag: 2})
	if mb.pending() != 1 {
		t.Fatalf("pending after deposit")
	}
	mb.take(pattern{CommWorld, 1, 2})
	if mb.pending() != 0 {
		t.Fatalf("pending after take")
	}
}

func TestMinArrive(t *testing.T) {
	mb := testRuntime(2, 1).mailboxes[0]
	if _, ok := mb.minArriveMatching(pattern{CommWorld, AnySource, AnyTag}); ok {
		t.Fatalf("empty mailbox has a matching arrival")
	}
	mb.deposit(message{comm: CommWorld, source: 0, tag: 1, arrive: 50})
	mb.deposit(message{comm: CommWorld, source: 2, tag: 1, arrive: 30})
	mb.deposit(message{comm: CommInternal, source: 1, tag: 2, arrive: 10})
	// Only messages matching the blocked pattern can unblock the rank:
	// the earlier internal message does not count for a world receive.
	if m, ok := mb.minArriveMatching(pattern{CommWorld, AnySource, AnyTag}); !ok || m != 30 {
		t.Fatalf("world/any = %v/%v, want 30", m, ok)
	}
	if m, ok := mb.minArriveMatching(pattern{CommWorld, 0, 1}); !ok || m != 50 {
		t.Fatalf("world/source 0 = %v/%v, want 50", m, ok)
	}
	if m, ok := mb.minArriveMatching(pattern{CommInternal, 1, 2}); !ok || m != 10 {
		t.Fatalf("internal = %v/%v, want 10", m, ok)
	}
	if _, ok := mb.minArriveMatching(pattern{CommWorld, 0, 9}); ok {
		t.Fatalf("unmatched tag has an arrival")
	}
}
