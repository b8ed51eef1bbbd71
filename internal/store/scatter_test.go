package store

// The federated listing (scatterList, mergeList) against a brute-force
// model: whatever the replication factor, the split of copies over the
// peers, the skew between their clocks, the filter and the page, a page
// cut through any edge equals the page cut from the newest-copy-wins
// union of every peer's full listing.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"testing"
	"time"

	"chameleon/internal/clock"
	"chameleon/internal/mesh"
	"chameleon/internal/obs"
	"chameleon/internal/tracegen"
)

// newestUnion is the model of GET /runs over a mesh: the holders' full
// matches for q, one record per run — its newest copy — paged.
func newestUnion(q Query, holders []*fedPeer) ListResponse {
	best := map[string]Run{}
	for _, p := range holders {
		for _, r := range p.a.match(q) {
			if b, ok := best[r.ID]; !ok || r.Ingested.After(b.Ingested) {
				best[r.ID] = *r
			}
		}
	}
	union := make([]*Run, 0, len(best))
	for _, r := range best {
		union = append(union, &r)
	}
	page, total := q.page(union)
	return listPage(q, page, total)
}

// listVia lists through one edge and returns the decoded page and the
// body as sent.
func listVia(t *testing.T, edge *fedPeer, query string) (ListResponse, []byte) {
	t.Helper()
	code, body, _ := tenantDo(t, http.MethodGet, edge.url+"/runs?"+query, "", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("GET /runs?%s via %s: %d: %s", query, edge.url, code, body)
	}
	var lr ListResponse
	if err := json.Unmarshal(body, &lr); err != nil {
		t.Fatalf("GET /runs?%s via %s: %v", query, edge.url, err)
	}
	return lr, body
}

// sameList fails the test unless got and want encode identically.
func sameList(t *testing.T, what string, got, want ListResponse) {
	t.Helper()
	g, _ := json.Marshal(got)
	w, _ := json.Marshal(want)
	if !bytes.Equal(g, w) {
		t.Fatalf("%s:\n got %s\nwant %s", what, g, w)
	}
}

// fakeClocks returns one clock.Fake per peer, peer i at start[i].
func fakeClocks(start ...time.Time) ([]*clock.Fake, func(int) clock.Clock) {
	clocks := make([]*clock.Fake, len(start))
	for i, s := range start {
		clocks[i] = clock.NewFake(s)
	}
	return clocks, func(i int) clock.Clock { return clocks[i] }
}

var epoch = time.Unix(1_700_000_000, 0)

func TestScatterListModel(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	seed := uint64(0)
	for _, shape := range []struct{ peers, replicas int }{{3, 1}, {3, 2}, {3, 3}, {4, 1}, {4, 2}, {4, 3}} {
		t.Run(fmt.Sprintf("n%d_R%d", shape.peers, shape.replicas), func(t *testing.T) {
			// Whole-second skews, often shared, so one run's copies are
			// stamped in any order and sometimes alike.
			start := make([]time.Time, shape.peers)
			for i := range start {
				start[i] = epoch.Add(time.Duration(rng.Intn(5)-2) * time.Second)
			}
			clocks, clk := fakeClocks(start...)
			peers := startMesh(t, shape.peers, meshConfig{replicas: shape.replicas, clock: clk})
			tick := func() {
				for _, c := range clocks {
					c.Advance(time.Duration(rng.Intn(3)) * time.Second)
				}
			}
			for k := 0; k < 20; k++ {
				seed++
				f := tracegen.SendRecvTrace(2+2*rng.Intn(2), []string{"lu", "cg", "ft"}[rng.Intn(3)], 40, seed)
				tick()
				if rng.Intn(2) == 0 {
					pushVia(t, peers[rng.Intn(len(peers))], "", f) // onto the run's R owners
					continue
				}
				// A random split, as fallback replicas leave it: any
				// non-empty set of peers, each copy at its own moment.
				first := rng.Intn(len(peers))
				for i, p := range peers {
					if i == first || rng.Intn(3) == 0 {
						if _, _, err := p.a.Ingest(f); err != nil {
							t.Fatal(err)
						}
						tick()
					}
				}
			}

			some := newestUnion(Query{}, peers).Runs[rng.Intn(20)]
			filters := []struct {
				raw string
				q   Query
			}{
				{"", Query{}},
				{"benchmark=lu", Query{Benchmark: "lu"}},
				{"p=4", Query{P: 4}},
				{"benchmark=cg&p=2", Query{Benchmark: "cg", P: 2}},
				{"sigset=" + some.SigSet, Query{SigSet: some.SigSet}},
			}
			for _, f := range filters {
				total := newestUnion(f.q, peers).Total
				for _, edge := range peers {
					for j := 0; j < 4; j++ {
						q := f.q
						q.Limit, q.Offset = 1+rng.Intn(7), rng.Intn(total+3)
						raw := fmt.Sprintf("%s&limit=%d&offset=%d", f.raw, q.Limit, q.Offset)
						got, body := listVia(t, edge, raw)
						sameList(t, "GET /runs?"+raw+" via "+edge.url, got, newestUnion(q, peers))
						if bytes.Contains(body, []byte(`"partial"`)) {
							t.Fatalf("every peer answered, yet the page says partial: %s", body)
						}
					}
				}

				// A walk through one edge sees every run once, in the
				// model's order.
				edge, size := peers[rng.Intn(len(peers))], 1+rng.Intn(5)
				var walked []string
				for offset := 0; ; {
					lr, _ := listVia(t, edge, fmt.Sprintf("%s&limit=%d&offset=%d", f.raw, size, offset))
					for _, r := range lr.Runs {
						walked = append(walked, r.ID)
					}
					if lr.Next == 0 {
						break
					}
					offset = lr.Next
				}
				var want []string
				for _, r := range newestUnion(f.q, peers).Runs {
					want = append(want, r.ID)
				}
				if !slices.Equal(walked, want) {
					t.Fatalf("walk of %q by %d via %s:\n got %v\nwant %v", f.raw, size, edge.url, walked, want)
				}
			}
		})
	}
}

// TestScatterListEdgeIndependence: with the peers' clocks minutes apart,
// each copy of a run carries a different stamp. Every edge still serves
// the same bytes for the same query, so a client may switch edges
// between pages and see every run exactly once.
func TestScatterListEdgeIndependence(t *testing.T) {
	clocks, clk := fakeClocks(epoch.Add(10*time.Minute), epoch, epoch.Add(5*time.Minute))
	peers := startMesh(t, 3, meshConfig{replicas: 2, clock: clk})
	const runs = 40
	for k := 0; k < runs; k++ {
		pushVia(t, peers[k%3], "", tracegen.SendRecvTrace(4, "indep", 40, uint64(k)))
		for _, c := range clocks {
			c.Advance(time.Second)
		}
	}

	for _, q := range []string{"limit=7", "limit=7&offset=7", "limit=5&offset=33", "benchmark=indep&limit=100",
		"limit=100&offset=9223372036854775807"} {
		_, want := listVia(t, peers[0], q)
		for _, p := range peers[1:] {
			if _, got := listVia(t, p, q); !bytes.Equal(got, want) {
				t.Fatalf("GET /runs?%s: %s serves\n%s\n%s serves\n%s", q, peers[0].url, want, p.url, got)
			}
		}
	}

	// The edge asks each peer for offset+limit runs, and offset is any
	// int a client sends: the sum saturates instead of wrapping negative,
	// which every peer would refuse.
	if lr, body := listVia(t, peers[0], "limit=100&offset=9223372036854775807"); len(lr.Runs) != 0 ||
		lr.Total != runs || lr.Next != 0 || lr.Partial != nil {
		t.Fatalf("offset MaxInt: %s; want no runs, total %d, no next, no partial", body, runs)
	}

	seen := map[string]int{}
	for offset, page := 0, 0; ; page++ {
		lr, _ := listVia(t, peers[page%3], fmt.Sprintf("limit=7&offset=%d", offset))
		for _, r := range lr.Runs {
			seen[r.ID]++
		}
		if lr.Next == 0 {
			break
		}
		offset = lr.Next
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("a walk alternating edges saw run %s %d times", id[:12], n)
		}
	}
	if len(seen) != runs {
		t.Fatalf("a walk alternating edges saw %d runs, want %d", len(seen), runs)
	}
}

// TestScatterListPartial: a peer that answers 500, or 200 with a body cut
// short, is named in Partial, and the page is the one the peers that did
// answer make.
func TestScatterListPartial(t *testing.T) {
	broken := map[int]http.Handler{
		2: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "disk on fire", http.StatusInternalServerError)
		}),
		3: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`{"total":3,"offset":0,"runs":[{"id":"`))
		}),
	}
	peers := startMesh(t, 4, meshConfig{replicas: 2, stub: func(i int) http.Handler { return broken[i] }})
	live := peers[:2]
	for k := 0; k < 12; k++ {
		f := tracegen.SendRecvTrace(4, "partial", 40, uint64(k))
		for _, i := range [][]int{{0}, {1}, {0, 1}}[k%3] {
			if _, _, err := live[i].a.Ingest(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, edge := range live {
		var down []string
		for _, o := range edge.node.Others() {
			if o == peers[2].url || o == peers[3].url {
				down = append(down, o)
			}
		}
		for _, q := range []Query{{Limit: 5}, {Limit: 5, Offset: 5}, {Limit: 5, Offset: 10}, {Limit: 100}} {
			raw := fmt.Sprintf("limit=%d&offset=%d", q.Limit, q.Offset)
			got, _ := listVia(t, edge, raw)
			want := newestUnion(q, live)
			want.Partial = down
			sameList(t, "GET /runs?"+raw+" via "+edge.url, got, want)
		}
	}
}

// placedMesh is a 3-peer R=2 mesh holding runs of "budget", run k
// stamped k seconds after epoch on every peer, so the bytes a listing
// costs do not depend on where the ring puts the random ports.
type placedMesh struct {
	peers []*fedPeer
	regs  []*obs.Registry
	ids   []string // newest last
}

// placeRuns stores each run on its ring owners and, when stray says so,
// a fallback copy on the peer that does not own it, as a PUT leaves one
// while an owner is down. client, when set, is peer i's mesh client.
func placeRuns(t *testing.T, runs int, stray func(id string, node *mesh.Node) bool, client func(i int) *http.Client) placedMesh {
	t.Helper()
	m := placedMesh{regs: []*obs.Registry{obs.NewRegistry(), obs.NewRegistry(), obs.NewRegistry()}}
	clocks, clk := fakeClocks(epoch, epoch, epoch)
	m.peers = startMesh(t, 3, meshConfig{replicas: 2, clock: clk, client: client,
		server: func(i int) ServerOptions { return ServerOptions{Reg: m.regs[i]} }})
	at := map[string]*fedPeer{}
	for _, p := range m.peers {
		at[p.url] = p
	}
	for k := 0; k < runs; k++ {
		payload, id, err := Encode(tracegen.SendRecvTrace(4, "budget", 40, uint64(k)))
		if err != nil {
			t.Fatal(err)
		}
		holders := m.peers[0].node.Owners(id)
		if stray != nil && stray(id, m.peers[0].node) {
			holders = m.peers[0].node.Peers()
		}
		for _, h := range holders {
			if _, _, err := at[h].a.IngestBytes(payload); err != nil {
				t.Fatal(err)
			}
		}
		m.ids = append(m.ids, id)
		for _, c := range clocks {
			c.Advance(time.Second)
		}
	}
	return m
}

// counter sums one counter over the peers of m.
func (m placedMesh) counter(name string, peers ...int) uint64 {
	var n uint64
	for _, i := range peers {
		n += m.regs[i].Counter(name).Value()
	}
	return n
}

// TestScatterListPeerBytes holds the push-down's gain: a first page of 5
// costs the two asked peers their 5 newest records and one sum per
// partition they hold, whatever the archive's size. Measured: 4 204
// bytes at 200 runs, 4 209 at 800. The Rest protocol, which sent the ID
// of every other match, cost 20 702 and 72 764.
func TestScatterListPeerBytes(t *testing.T) {
	sent := map[int]uint64{}
	for _, runs := range []int{200, 800} {
		m := placeRuns(t, runs, nil, nil)
		before := m.counter("chamd_bytes_out", 1, 2)
		lr, _ := listVia(t, m.peers[0], "limit=5")
		sent[runs] = m.counter("chamd_bytes_out", 1, 2) - before
		t.Logf("peers wrote %d bytes for a page of %d of %d runs", sent[runs], len(lr.Runs), lr.Total)
		if lr.Total != runs || len(lr.Runs) != 5 {
			t.Fatalf("total %d, %d runs; want %d, 5", lr.Total, len(lr.Runs), runs)
		}
		// The harness's own check on a full page.
		if lr, _ = listVia(t, m.peers[1], "limit=100"); len(lr.Runs) != 100 || lr.Total != runs {
			t.Fatalf("page of 100: %d runs of %d", len(lr.Runs), lr.Total)
		}
		if n := m.counter("chamd_list_recounts", 0, 1, 2); n != 0 {
			t.Fatalf("a mesh with every run on its owners recounted %d partitions", n)
		}
	}
	if grown := float64(sent[800]) / float64(sent[200]); grown > 1.1 {
		t.Fatalf("a page of 5 cost the peers %d bytes at 200 runs and %d at 800 (%.2fx)", sent[200], sent[800], grown)
	}
}

// recountLog is a mesh client transport that keeps the IDs of every
// second-round answer the edge receives.
type recountLog struct {
	mu  sync.Mutex
	ids []string
}

func (l *recountLog) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || !req.URL.Query().Has("parts") {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	var ml meshList
	if err := json.Unmarshal(body, &ml); err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.ids = append(l.ids, ml.IDs...)
	l.mu.Unlock()
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// take returns the IDs kept so far and forgets them.
func (l *recountLog) take() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	ids := l.ids
	l.ids = nil
	return ids
}

// TestScatterListRecountsDisputed: some runs of one partition also sit
// on the peer that does not own them. The page and the total stay
// exact, that one partition is recounted, and the second round carries
// the IDs of that partition and no other.
func TestScatterListRecountsDisputed(t *testing.T) {
	const runs = 200
	var disputed = -1
	strays := 0
	log := &recountLog{}
	m := placeRuns(t, runs, func(id string, node *mesh.Node) bool {
		if disputed < 0 {
			disputed = node.Partition(id)
		}
		if node.Partition(id) != disputed || id[0] >= '4' {
			return false
		}
		strays++
		return true
	}, func(i int) *http.Client { return &http.Client{Transport: log} })
	if strays == 0 {
		t.Fatal("no run was placed off its ring")
	}
	for _, q := range []Query{{Limit: 5}, {Limit: 100, Offset: 150}, {Limit: 7, Offset: 63}} {
		raw := fmt.Sprintf("limit=%d&offset=%d", q.Limit, q.Offset)
		before := m.counter("chamd_list_recounts", 0)
		got, _ := listVia(t, m.peers[0], raw)
		ids := log.take()
		sameList(t, "GET /runs?"+raw, got, newestUnion(q, m.peers))
		if got.Total != runs {
			t.Fatalf("total %d with %d fallback copies, want %d", got.Total, strays, runs)
		}
		if n := m.counter("chamd_list_recounts", 0) - before; n != 1 {
			t.Fatalf("the edge recounted %d partitions, want 1", n)
		}
		if len(ids) == 0 {
			t.Fatal("no peer was asked for the disputed partition's IDs")
		}
		for _, id := range ids {
			if p := m.peers[0].node.Partition(id); p != disputed {
				t.Fatalf("the second round carried %s of partition %d; only %d is disputed", id[:12], p, disputed)
			}
		}
	}
}

// TestEdgeListingAllocationBound: a page of 5 through one edge, client
// decode and all three peers' work included, allocates by its page and
// its peers, not by the 800 runs behind it. Measured: ~53 KB. The Rest
// protocol, which copied every match on every peer and sent the IDs of
// all of them, allocated ~755 KB.
func TestEdgeListingAllocationBound(t *testing.T) {
	skipUnderRace(t)
	const bound = 160 << 10
	m := placeRuns(t, 800, nil, nil)
	list := func() {
		lr, err := FetchRuns(m.peers[0].url, "", 5, 0)
		if err != nil || len(lr.Runs) != 5 || lr.Total != 800 || lr.Partial != nil {
			t.Fatalf("listing: %d runs of %d, partial %v, %v", len(lr.Runs), lr.Total, lr.Partial, err)
		}
	}
	list() // warm the connections
	got := bytesAllocated(10, list)
	t.Logf("GET /runs?limit=5 over 800 runs on 3 peers: %d B allocated, bound %d", got, bound)
	if got > bound {
		t.Fatalf("an edge listing allocated %d B, bound %d", got, bound)
	}
}

// TestScatterListLendsRecords: listings hold the index's records past
// its lock while the same runs are deleted, re-ingested off their ring,
// compacted away and pulled home by a sweep. The index replaces records
// and never writes one, so under -race no listing races the churn, and
// every page still names each run once.
func TestScatterListLendsRecords(t *testing.T) {
	peers := startMesh(t, 3, meshConfig{replicas: 2})
	var payloads [][]byte
	var ids []string
	for k := 0; k < 12; k++ {
		payload, id, err := Encode(tracegen.SendRecvTrace(4, "lend", 40, uint64(k)))
		if err != nil {
			t.Fatal(err)
		}
		payloads, ids = append(payloads, payload), append(ids, id)
		pushVia(t, peers[k%3], "", tracegen.SendRecvTrace(4, "lend", 40, uint64(k)))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, edge := range peers {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				lr, err := FetchRuns(url, "benchmark=lend", 5, 0)
				if err != nil || lr.Partial != nil {
					t.Errorf("listing via %s: partial %v, %v", url, lr.Partial, err)
					return
				}
				seen := map[string]bool{}
				for _, r := range lr.Runs {
					if seen[r.ID] || r.Benchmark != "lend" {
						t.Errorf("listing via %s: run %s twice or of %q", url, r.ID[:12], r.Benchmark)
						return
					}
					seen[r.ID] = true
				}
			}
		}(edge.url)
	}
	for round := 0; round < 36; round++ {
		k, p := round%len(ids), peers[round%3]
		if err := p.a.Delete(ids[k]); err != nil && !errors.Is(err, ErrNotFound) {
			t.Error(err)
		}
		if _, _, err := peers[(round+1)%3].a.IngestBytes(payloads[k]); err != nil {
			t.Error(err)
		}
		if _, err := p.a.Compact(); err != nil {
			t.Error(err)
		}
		if _, err := p.node.Sweep(p.a.MeshTarget(), nil); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
}

// fuzzPart is FuzzScatterMerge's ring: four partitions, partition p
// owned by holders p and p+1 mod 4.
func fuzzPart(id string) int {
	n := 0
	for i := 0; i < len(id); i++ {
		n = n*31 + int(id[i])
	}
	return n & 3
}

// roundTrip encodes a holder's answer as a peer sends it and decodes it
// as the edge reads it.
func roundTrip[T any](t *testing.T, v T) *T {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var out T
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("an honest answer does not decode: %v: %s", err, body)
	}
	return &out
}

// FuzzScatterMerge feeds mergeList first- and second-round answers
// decoded from bytes as a peer's body would be. Whatever they say, the
// page has no repeated ID, is in listing order, fits under the total
// and names exactly the failed peers. And when the answers are honest —
// built from a model the bytes also describe, where copies sit on their
// partition's owners, miss one of them, or stray off the ring, and peers
// may be down — the page is the brute-force newest-copy-wins one and
// the Rest protocol's (scatter_ref_test.go).
func FuzzScatterMerge(f *testing.F) {
	f.Add([]byte(`{"runs":[{"id":"a","ingested":"2023-11-14T22:13:21Z"}],"parts":[{"part":1,"count":1,"sum":"x"}]}`+"\n"+
		`{"runs":[{"id":"b","ingested":"2023-11-14T22:13:22Z"},{"id":"a","ingested":"2023-11-14T22:13:20Z"}],"parts":[{"part":1,"count":2,"sum":"y"},{"part":2,"count":1,"sum":"z"}]}`+"\n"+
		`{"runs":[null],"parts":[{"part":2,"count":-4,"sum":"z"}]}`+"\n{\"runs\":[\n"+`{"ids":["a","c","c"]}`+"\n"+`{"ids":["b","q"]}`),
		uint8(1), uint8(2), uint8(4))
	f.Add([]byte("\x00\x13\x27\x35\x41\x52\x66\x73\x88\x9a\xab\xbc\xcd\xde\xef\xf0"), uint8(0), uint8(3), uint8(0))
	f.Add([]byte("\x10\x10\x20\x20\x30\x31\x01\x02\x11\x12\x21\x22\x31\x32"), uint8(2), uint8(0), uint8(2))
	f.Add([]byte("\x01\x10\x05\x21\x09\x32\x21\x40\x26\x51\x2a\x62\x13\x73\x34\x04"), uint8(0), uint8(4), uint8(8))
	f.Fuzz(func(t *testing.T, data []byte, offset, limit, down uint8) {
		q := Query{Offset: int(offset), Limit: int(limit)}
		names := []string{"p1", "p2", "p3"}

		// Anything at all: lines 0-3 are the first-round answers of this
		// peer and of p1-p3, lines 4-7 their second-round answers.
		lines := bytes.Split(data, []byte("\n"))
		line := func(i int) *meshList {
			if i >= len(lines) {
				return nil
			}
			return readList(http.StatusOK, bytes.NewReader(lines[i]), -1)
		}
		answers := []*meshList{line(0), line(1), line(2), line(3)}
		if answers[0] == nil {
			answers[0] = &meshList{}
		}
		var asked []bool
		got, _ := mergeList(q, fuzzPart, names, answers, func(parts []int, ask []bool) []*meshList {
			asked = ask
			out := make([]*meshList, len(ask))
			for h := range ask {
				if ask[h] {
					out[h] = line(4 + h)
				}
			}
			return out
		})
		var failed []string
		for i, name := range names {
			if answers[1+i] == nil || asked != nil && asked[1+i] && line(5+i) == nil {
				failed = append(failed, name)
			}
		}
		checkPage(t, q, failed, got)

		// Honest answers: byte pairs place copies of 12 runs on four
		// holders (0 is this peer) with stamps 0-7 s; peer i is down when
		// bit i of down is set.
		held := make([]map[string]Run, 4)
		for i := range held {
			held[i] = map[string]Run{}
		}
		for i := 0; i+1 < len(data); i += 2 {
			id := fmt.Sprintf("r%02d", data[i]%12)
			stamp, other := data[i+1]%8, int(data[i+1]>>4%4)
			owner := fuzzPart(id)
			var on []int
			switch data[i] >> 4 % 4 {
			case 0: // its owners
				on = []int{owner, (owner + 1) % 4}
			case 1: // one owner missed the write
				on = []int{(owner + other%2) % 4}
			case 2: // its owners and a fallback copy
				on = []int{owner, (owner + 1) % 4, other}
			case 3: // anywhere
				on = []int{other}
			}
			for j, h := range on {
				if _, ok := held[h][id]; !ok {
					held[h][id] = Run{ID: id, Ingested: epoch.Add(time.Duration((int(stamp)+j*int(data[i]>>6))%8) * time.Second)}
				}
			}
		}
		list := func(h map[string]Run) []Run {
			out := make([]Run, 0, len(h))
			for _, r := range h {
				out = append(out, r)
			}
			return out
		}
		lend := func(h map[string]Run) []*Run {
			out := make([]*Run, 0, len(h))
			for _, r := range h {
				out = append(out, &r)
			}
			return out
		}
		best := map[string]Run{}
		answers = make([]*meshList, 4)
		refAnswers := make([]*refMeshList, 3)
		for i, h := range held {
			if i > 0 && down>>i&1 == 1 {
				continue
			}
			for id, r := range h {
				if b, ok := best[id]; !ok || r.Ingested.After(b.Ingested) {
					best[id] = r
				}
			}
			answers[i] = roundTrip(t, *firstRound(lend(h), fuzzPart, q))
			if i > 0 {
				refAnswers[i-1] = roundTrip(t, refAnswer(Query{Limit: q.window()}, list(h)))
			}
		}
		got, recounted := mergeList(q, fuzzPart, names, answers, func(parts []int, ask []bool) []*meshList {
			out := make([]*meshList, len(ask))
			for h := range ask {
				if ask[h] {
					out[h] = roundTrip(t, *secondRound(lend(held[h]), fuzzPart, parts))
				}
			}
			return out
		})
		failed = nil
		for i, name := range names {
			if down>>(i+1)&1 == 1 {
				failed = append(failed, name)
			}
		}
		checkPage(t, q, failed, got)
		if recounted > 4 {
			t.Fatalf("recounted %d of 4 partitions", recounted)
		}
		union := make([]*Run, 0, len(best))
		for _, r := range best {
			union = append(union, &r)
		}
		page, total := q.page(union)
		want := listPage(q, page, total)
		want.Partial = failed
		what := fmt.Sprintf("merge of honest answers, offset %d limit %d", offset, limit)
		sameList(t, what+" against the union", got, want)
		sameList(t, what+" against the Rest protocol", got, refMergeList(q, list(held[0]), names, refAnswers))
	})
}

// checkPage holds what a merged page must satisfy whatever the peers
// answered: no run twice, listing order, no more than a page, a total
// no smaller than the runs shown, and Partial naming exactly failed.
func checkPage(t *testing.T, q Query, failed []string, lr ListResponse) {
	t.Helper()
	seen := map[string]bool{}
	for i, r := range lr.Runs {
		if seen[r.ID] {
			t.Fatalf("run %q twice on one page", r.ID)
		}
		seen[r.ID] = true
		if i > 0 {
			prev := lr.Runs[i-1]
			if r.Ingested.After(prev.Ingested) || r.Ingested.Equal(prev.Ingested) && r.ID < prev.ID {
				t.Fatalf("page out of order at %d: %q (%v) after %q (%v)", i, r.ID, r.Ingested, prev.ID, prev.Ingested)
			}
		}
	}
	if q.Limit > 0 && len(lr.Runs) > q.Limit {
		t.Fatalf("%d runs on a page of %d", len(lr.Runs), q.Limit)
	}
	if len(lr.Runs) > 0 && lr.Total < q.Offset+len(lr.Runs) {
		t.Fatalf("total %d under offset %d + %d runs", lr.Total, q.Offset, len(lr.Runs))
	}
	if !slices.Equal(lr.Partial, failed) {
		t.Fatalf("partial %v, want %v", lr.Partial, failed)
	}
}
