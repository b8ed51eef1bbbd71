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

// TestTreeParentChildSymmetry: over every tree size, TreePeer names
// each non-root position's parent pos−lowbit(pos) exactly once, in
// round lowbit(pos), after all its children; the parent meets it in the
// same round; and the children reach every position from the root
// exactly once.
func TestTreeParentChildSymmetry(t *testing.T) {
	for n := 1; n <= 70; n++ {
		children := make([][]int, n)
		for pos := 0; pos < n; pos++ {
			parents := 0
			for mask := 1; mask < 2*n; mask <<= 1 {
				peer := TreePeer(pos, mask, n)
				switch {
				case peer == -1:
				case peer < 0 || peer >= n || peer == pos:
					t.Fatalf("n=%d pos=%d mask=%d: peer %d", n, pos, mask, peer)
				case TreePeer(peer, mask, n) != pos:
					t.Fatalf("n=%d mask=%d: %d meets %d, which meets %d", n, mask, pos, peer, TreePeer(peer, mask, n))
				case peer < pos:
					if low := pos & -pos; peer != pos-low || mask != low {
						t.Fatalf("n=%d pos=%d: parent %d in round %d", n, pos, peer, mask)
					}
					parents++
				default:
					if parents > 0 {
						t.Fatalf("n=%d pos=%d: child %d after the parent", n, pos, peer)
					}
					children[pos] = append(children[pos], peer)
				}
			}
			if want := min(pos, 1); parents != want {
				t.Fatalf("n=%d pos=%d: %d parents, want %d", n, pos, parents, want)
			}
		}
		seen := map[int]bool{0: true}
		for frontier := []int{0}; len(frontier) > 0; {
			var next []int
			for _, f := range frontier {
				for _, c := range children[f] {
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

// TestTreeParentRoot: the root meets no parent in any round of any
// tree size, only children above it.
func TestTreeParentRoot(t *testing.T) {
	for n := 1; n <= 70; n++ {
		for mask := 1; mask < 2*n; mask <<= 1 {
			if peer := TreePeer(0, mask, n); peer == 0 || peer < -1 {
				t.Fatalf("n=%d mask=%d: root meets %d", n, mask, peer)
			}
		}
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
