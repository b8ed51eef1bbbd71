// Package mesh federates N chamd peers into one logical archive.
//
// Placement is a consistent-hash ring: each peer contributes a fixed
// number of virtual nodes (points on a 64-bit circle derived from
// SHA-256 of "peerURL#vnode"), and a run lands on the R distinct peers
// that follow its point clockwise. Run IDs are already content
// addresses (hex SHA-256 of the canonical trace encoding), so the key
// point is simply the ID's leading 64 bits — no re-hashing, and the
// placement of a run is a pure function of its bytes that every peer
// computes identically from the same static -peers list.
//
// The ring is static membership with replication, not a gossip system:
// adding a peer means restarting the fleet with a longer -peers list,
// after which the anti-entropy sweep (Node.Sweep) pulls every run the
// new peer now owns but lacks. Peer death is survived by the R-1 other
// owners; a restarted peer converges the same way.
package mesh

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// DefaultVnodes is the virtual-node count per peer: enough that a
// 3-peer ring splits ownership within a few percent of evenly.
const DefaultVnodes = 64

type point struct {
	hash uint64
	peer int // index into Ring.peers
}

// Ring is an immutable consistent-hash ring over a static peer list.
type Ring struct {
	peers  []string
	points []point
}

// NewRing builds a ring with vnodes virtual nodes per peer (0 means
// DefaultVnodes). Peer URLs are normalized (trailing slash stripped)
// and must be unique.
func NewRing(peers []string, vnodes int) (*Ring, error) {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	norm := make([]string, 0, len(peers))
	seen := map[string]bool{}
	for _, p := range peers {
		p = strings.TrimSuffix(strings.TrimSpace(p), "/")
		if p == "" {
			continue
		}
		if seen[p] {
			return nil, fmt.Errorf("mesh: duplicate peer %q", p)
		}
		seen[p] = true
		norm = append(norm, p)
	}
	if len(norm) == 0 {
		return nil, fmt.Errorf("mesh: empty peer list")
	}
	r := &Ring{peers: norm, points: make([]point, 0, len(norm)*vnodes)}
	for i, p := range norm {
		for v := 0; v < vnodes; v++ {
			sum := sha256.Sum256([]byte(p + "#" + strconv.Itoa(v)))
			r.points = append(r.points, point{hash: binary.BigEndian.Uint64(sum[:8]), peer: i})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].peer < r.points[j].peer
	})
	return r, nil
}

// Peers returns the normalized peer list in input order.
func (r *Ring) Peers() []string { return append([]string(nil), r.peers...) }

// keyPoint maps a run reference onto the circle. A content address is
// its own hash: the leading 16 hex digits are the point. Anything else
// (tests, non-hex keys) falls back to SHA-256.
func keyPoint(id string) uint64 {
	if len(id) >= 16 {
		if v, err := strconv.ParseUint(id[:16], 16, 64); err == nil {
			return v
		}
	}
	sum := sha256.Sum256([]byte(id))
	return binary.BigEndian.Uint64(sum[:8])
}

// arc returns the index of the first point at or after id's point,
// wrapping past the top of the circle: the arc id falls on.
func (r *Ring) arc(id string) int {
	h := keyPoint(id)
	lo, hi := 0, len(r.points)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.points[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo % len(r.points)
}

// owners appends to out the indexes of the R distinct peers that follow
// point start clockwise, primary first.
func (r *Ring) owners(start, replicas int, out []int) []int {
	for i := 0; len(out) < replicas && i < len(r.points); i++ {
		if pt := r.points[(start+i)%len(r.points)]; !slices.Contains(out, pt.peer) {
			out = append(out, pt.peer)
		}
	}
	return out
}

// clamp bounds an ownership factor to [1, peer count].
func (r *Ring) clamp(replicas int) int { return min(max(replicas, 1), len(r.peers)) }

// Owners returns the R distinct peers owning id, primary first,
// walking clockwise from the run's point. R is clamped to the peer
// count.
func (r *Ring) Owners(id string, replicas int) []string {
	replicas = r.clamp(replicas)
	owners := make([]string, 0, replicas)
	for _, p := range r.owners(r.arc(id), replicas, make([]int, 0, replicas)) {
		owners = append(owners, r.peers[p])
	}
	return owners
}

// Partitions splits the key space by owner set: two IDs share a
// partition exactly when the same R peers own them, whichever of them
// is primary. Partition i is the i-th distinct owner set in the order of
// the sets' sorted peer URLs, so every peer built from the same
// membership numbers the partitions alike, whatever the order of its
// peer list. The table is built once; Of looks an ID up without
// allocating.
type Partitions struct {
	ring *Ring
	arcs []int // arcs[i]: the partition of the IDs on the arc ending at point i
}

// Partitions builds the ring's partition table for ownership factor R
// (clamped as in Owners).
func (r *Ring) Partitions(replicas int) *Partitions {
	replicas = r.clamp(replicas)
	keys := make([]string, len(r.points))
	set := make([]string, 0, replicas)
	for i := range r.points {
		set = set[:0]
		for _, p := range r.owners(i, replicas, make([]int, 0, replicas)) {
			set = append(set, r.peers[p])
		}
		slices.Sort(set)
		keys[i] = strings.Join(set, "\n")
	}
	distinct := slices.Clone(keys)
	slices.Sort(distinct)
	distinct = slices.Compact(distinct)
	pt := &Partitions{ring: r, arcs: make([]int, len(keys))}
	for i, k := range keys {
		pt.arcs[i], _ = slices.BinarySearch(distinct, k)
	}
	return pt
}

// Of returns the partition id falls in: an index into the distinct
// owner sets.
func (pt *Partitions) Of(id string) int { return pt.arcs[pt.ring.arc(id)] }
