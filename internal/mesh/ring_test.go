package mesh

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"testing"
)

func peers(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://peer%d:8321", i)
	}
	return out
}

// contentID fabricates a realistic run ID: hex SHA-256 of the seed.
func contentID(seed int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("run-%d", seed)))
	return hex.EncodeToString(sum[:])
}

func TestRingOwnersDistinctAndStable(t *testing.T) {
	r, err := NewRing(peers(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		id := contentID(i)
		owners := r.Owners(id, 2)
		if len(owners) != 2 {
			t.Fatalf("id %s: got %d owners, want 2", id[:12], len(owners))
		}
		if owners[0] == owners[1] {
			t.Fatalf("id %s: duplicate owner %s", id[:12], owners[0])
		}
		// Placement is a pure function: a second ring built from the same
		// peers agrees exactly.
		r2, _ := NewRing(peers(3), 0)
		again := r2.Owners(id, 2)
		if owners[0] != again[0] || owners[1] != again[1] {
			t.Fatalf("id %s: placement not deterministic: %v vs %v", id[:12], owners, again)
		}
	}
}

func TestRingReplicaClamp(t *testing.T) {
	r, err := NewRing(peers(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Owners(contentID(1), 5); len(got) != 2 {
		t.Fatalf("R should clamp to peer count: got %d owners", len(got))
	}
	if got := r.Owners(contentID(1), 0); len(got) != 1 {
		t.Fatalf("R<=0 should clamp to 1: got %d owners", len(got))
	}
}

func TestRingBalance(t *testing.T) {
	r, err := NewRing(peers(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const n = 3000
	for i := 0; i < n; i++ {
		counts[r.Owners(contentID(i), 1)[0]]++
	}
	for p, c := range counts {
		frac := float64(c) / n
		if frac < 0.15 || frac > 0.55 {
			t.Fatalf("peer %s owns %.1f%% of keys: ring badly unbalanced (%v)", p, 100*frac, counts)
		}
	}
}

func TestRingRejectsBadPeerLists(t *testing.T) {
	if _, err := NewRing(nil, 0); err == nil {
		t.Fatal("empty peer list accepted")
	}
	if _, err := NewRing([]string{"http://a", "http://a/"}, 0); err == nil {
		t.Fatal("duplicate (after normalization) peer list accepted")
	}
}

func TestRingNormalizesPeers(t *testing.T) {
	r, err := NewRing([]string{" http://a/ ", "http://b"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	got := r.Peers()
	if got[0] != "http://a" || got[1] != "http://b" {
		t.Fatalf("peers not normalized: %v", got)
	}
}

func TestNodeOwnershipRoles(t *testing.T) {
	ps := peers(3)
	nodes := make([]*Node, len(ps))
	for i := range ps {
		n, err := NewNode(Options{Self: ps[i], Peers: ps, Replicas: 2})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	for i := 0; i < 100; i++ {
		id := contentID(i)
		primaries, owners := 0, 0
		for _, n := range nodes {
			if n.IsPrimary(id) {
				primaries++
			}
			if n.IsOwner(id) {
				owners++
			}
		}
		if primaries != 1 {
			t.Fatalf("id %s: %d primaries, want exactly 1", id[:12], primaries)
		}
		if owners != 2 {
			t.Fatalf("id %s: %d owners, want exactly 2", id[:12], owners)
		}
	}
}

func TestNodeRejectsSelfNotInPeers(t *testing.T) {
	if _, err := NewNode(Options{Self: "http://elsewhere", Peers: peers(3)}); err == nil {
		t.Fatal("self outside the peer list accepted")
	}
}

// TestPartitionsAreOwnerSets: two IDs share a partition exactly when
// the same peers own them, the numbering does not depend on the order
// of the peer list, and a lookup allocates nothing.
func TestPartitionsAreOwnerSets(t *testing.T) {
	for _, shape := range []struct{ peers, replicas int }{{3, 1}, {3, 2}, {4, 2}, {5, 3}} {
		list := peers(shape.peers)
		r, err := NewRing(list, 0)
		if err != nil {
			t.Fatal(err)
		}
		reversed := slices.Clone(list)
		slices.Reverse(reversed)
		r2, err := NewRing(reversed, 0)
		if err != nil {
			t.Fatal(err)
		}
		pt, pt2 := r.Partitions(shape.replicas), r2.Partitions(shape.replicas)
		sets := map[int]string{}
		for i := 0; i < 500; i++ {
			id := contentID(i)
			part := pt.Of(id)
			if got := pt2.Of(id); got != part {
				t.Fatalf("%+v: id %s is partition %d, %d with the peer list reversed", shape, id[:12], part, got)
			}
			owners := r.Owners(id, shape.replicas)
			slices.Sort(owners)
			set := strings.Join(owners, " ")
			if prev, ok := sets[part]; ok && prev != set {
				t.Fatalf("%+v: partition %d holds owner sets %s and %s", shape, part, prev, set)
			}
			sets[part] = set
		}
		seen := map[string]bool{}
		for _, set := range sets {
			if seen[set] {
				t.Fatalf("%+v: owner set %s split over two partitions", shape, set)
			}
			seen[set] = true
		}
		id := contentID(7)
		if n := testing.AllocsPerRun(100, func() { pt.Of(id) }); n != 0 {
			t.Fatalf("Partitions.Of allocates %v times", n)
		}
	}
}
