package mesh

import (
	"errors"
	"net/http"
	"testing"

	"chameleon/internal/obs"
)

// A call's per-peer counters are found with a lookup that allocates
// nothing; a transport error and a 5xx count as failures, a 4xx does
// not, and a peer outside the membership counts nothing.
func TestPeerCountersAllocateNothing(t *testing.T) {
	reg := obs.NewRegistry()
	peers := []string{"http://a:1", "http://b:2", "http://c:3"}
	n, err := NewNode(Options{Self: peers[0], Peers: peers, Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	peer := peers[1]
	unavailable := &http.Response{StatusCode: http.StatusServiceUnavailable}
	if allocs := testing.AllocsPerRun(100, func() { n.count(peer, 64, unavailable, nil) }); allocs != 0 {
		t.Fatalf("counting a call allocated %.1f times", allocs)
	}
	n.count(peer, 10, &http.Response{StatusCode: http.StatusNotFound}, nil)
	n.count(peer, 0, nil, errors.New("refused"))
	n.count("http://elsewhere:4", 99, nil, errors.New("refused"))
	snap := reg.Snapshot()
	label := `{peer="` + peer + `"}`
	// AllocsPerRun runs its function once more than it reports on.
	if reqs, bytesOut, errs := snap.Counters["mesh_peer_requests"+label], snap.Counters["mesh_peer_bytes_out"+label],
		snap.Counters["mesh_peer_errors"+label]; reqs != 103 || bytesOut != 101*64+10 || errs != 102 {
		t.Fatalf("%s: %d requests, %d bytes, %d errors; want 103, %d, 102", peer, reqs, bytesOut, errs, 101*64+10)
	}
	if v, ok := snap.Counters[`mesh_peer_requests{peer="`+peers[2]+`"}`]; !ok || v != 0 {
		t.Fatalf("the idle peer's counter: %d, registered %v", v, ok)
	}
	if _, ok := snap.Counters[`mesh_peer_requests{peer="`+peers[0]+`"}`]; ok {
		t.Fatal("self has per-peer counters")
	}
}
