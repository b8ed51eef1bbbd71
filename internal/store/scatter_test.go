package store

// The federated listing (scatterList, mergeList) against a brute-force
// model: whatever the replication factor, the split of copies over the
// peers, the skew between their clocks, the filter and the page, a page
// cut through any edge equals the page cut from the newest-copy-wins
// union of every peer's full listing.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"testing"
	"time"

	"chameleon/internal/clock"
	"chameleon/internal/obs"
)

// newestUnion is the model of GET /runs over a mesh: the holders' full
// matches for q, one record per run — its newest copy — paged.
func newestUnion(q Query, holders []*fedPeer) ListResponse {
	best := map[string]Run{}
	for _, p := range holders {
		for _, r := range p.a.match(q) {
			if b, ok := best[r.ID]; !ok || r.Ingested.After(b.Ingested) {
				best[r.ID] = r
			}
		}
	}
	union := make([]Run, 0, len(best))
	for _, r := range best {
		union = append(union, r)
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
				f := mkTrace(2+2*rng.Intn(2), []string{"lu", "cg", "ft"}[rng.Intn(3)], seed)
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
		pushVia(t, peers[k%3], "", mkTrace(4, "indep", uint64(k)))
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
		f := mkTrace(4, "partial", uint64(k))
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

// TestScatterListPeerBytes holds the push-down's gain: a first page of 5
// from a mesh of 200 runs costs the two asked peers their 5 newest
// records and the IDs of the rest, not their whole listings.
func TestScatterListPeerBytes(t *testing.T) {
	// Measured: 21 106 bytes, most of it the two Rest lists. Asking the
	// peers unpaged, as before the push-down, costs 101 041.
	const budget = 25 << 10
	regs := []*obs.Registry{obs.NewRegistry(), obs.NewRegistry(), obs.NewRegistry()}
	clocks, clk := fakeClocks(epoch, epoch, epoch)
	peers := startMesh(t, 3, meshConfig{replicas: 2, clock: clk,
		server: func(i int) ServerOptions { return ServerOptions{Reg: regs[i]} }})
	// A fixed split (run k on peers k and k+1 mod 3) and fixed stamps:
	// the bytes do not depend on where the ring puts the random ports.
	const runs = 200
	for k := 0; k < runs; k++ {
		f := mkTrace(4, "budget", uint64(k))
		for _, p := range []*fedPeer{peers[k%3], peers[(k+1)%3]} {
			if _, _, err := p.a.Ingest(f); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range clocks {
			c.Advance(time.Second)
		}
	}
	out := func() uint64 {
		return regs[1].Counter("chamd_bytes_out").Value() + regs[2].Counter("chamd_bytes_out").Value()
	}
	before := out()
	lr, _ := listVia(t, peers[0], "limit=5")
	sent := out() - before
	t.Logf("peers wrote %d bytes for a page of %d of %d runs", sent, len(lr.Runs), lr.Total)
	if lr.Total != runs || len(lr.Runs) != 5 {
		t.Fatalf("total %d, %d runs; want %d, 5", lr.Total, len(lr.Runs), runs)
	}
	if sent > budget {
		t.Fatalf("peers wrote %d bytes for a page of 5, budget %d", sent, budget)
	}
	// The harness's own check on a full page.
	if lr, _ = listVia(t, peers[1], "limit=100"); len(lr.Runs) != min(100, lr.Total) {
		t.Fatalf("page of 100: %d runs of %d", len(lr.Runs), lr.Total)
	}
}

// FuzzScatterMerge feeds mergeList peer answers decoded from bytes as a
// peer's body would be. Whatever they say, the page has no repeated ID,
// is in listing order, fits under the total and names exactly the
// failed peers. And when the answers are honest — each holder's top
// offset+limit plus the IDs of the rest, built from a model the bytes
// also describe — the page is the brute-force newest-copy-wins one.
func FuzzScatterMerge(f *testing.F) {
	honest, _ := json.Marshal(meshList{
		ListResponse: ListResponse{Total: 3, Runs: []Run{{ID: "b", Ingested: epoch.Add(time.Second)}, {ID: "a", Ingested: epoch}}},
		Rest:         []string{"c"},
	})
	f.Add(append(append([]byte(`{"runs":[{"id":"a","ingested":"2023-11-14T22:13:21Z"}]}`+"\n"), honest...), "\n{\"runs\":["...), uint8(1), uint8(2), uint8(4))
	f.Add([]byte("\x00\x13\x27\x35\x41\x52\x66\x73\x88\x9a\xab\xbc\xcd\xde\xef\xf0"), uint8(0), uint8(3), uint8(0))
	f.Add([]byte("\x10\x10\x20\x20\x30\x31\x01\x02\x11\x12\x21\x22\x31\x32"), uint8(2), uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, offset, limit, down uint8) {
		q := Query{Offset: int(offset), Limit: int(limit)}

		// Anything at all: the first line is this peer's own runs, each
		// later line a peer's body.
		lines := bytes.Split(data, []byte("\n"))
		var self []Run
		if own := readList(http.StatusOK, bytes.NewReader(lines[0]), -1); own != nil {
			self = own.Runs
		}
		var names []string
		var answers []*meshList
		for i, line := range lines[1:min(len(lines), 5)] {
			names = append(names, fmt.Sprintf("p%d", i))
			answers = append(answers, readList(http.StatusOK, bytes.NewReader(line), -1))
		}
		checkPage(t, q, names, answers, mergeList(q, self, names, answers))

		// Honest answers: byte pairs place copies of 12 runs on four
		// holders (0 is this peer) with stamps 0-7 s; peer i is down
		// when bit i of down is set.
		held := make([]map[string]Run, 4)
		for i := range held {
			held[i] = map[string]Run{}
		}
		for i := 0; i+1 < len(data); i += 2 {
			id := fmt.Sprintf("r%02d", data[i]%12)
			h := held[data[i]>>4%4]
			if _, ok := h[id]; !ok {
				h[id] = Run{ID: id, Ingested: epoch.Add(time.Duration(data[i+1]%8) * time.Second)}
			}
		}
		list := func(h map[string]Run) []Run {
			out := make([]Run, 0, len(h))
			for _, r := range h {
				out = append(out, r)
			}
			return out
		}
		best := map[string]Run{}
		names, answers = []string{"p1", "p2", "p3"}, make([]*meshList, 3)
		for i, h := range held {
			if i > 0 && down>>i&1 == 1 {
				continue
			}
			for id, r := range h {
				if b, ok := best[id]; !ok || r.Ingested.After(b.Ingested) {
					best[id] = r
				}
			}
			if i == 0 {
				continue
			}
			all := list(h)
			top, total := Query{Limit: q.window()}.page(all)
			ans := meshList{ListResponse: listPage(Query{Limit: q.window()}, top, total)}
			for _, r := range all[len(top):] {
				ans.Rest = append(ans.Rest, r.ID)
			}
			body, err := json.Marshal(ans)
			if err != nil {
				t.Fatal(err)
			}
			if answers[i-1] = readList(http.StatusOK, bytes.NewReader(body), int64(len(body))); answers[i-1] == nil {
				t.Fatalf("an honest answer does not decode: %s", body)
			}
		}
		got := mergeList(q, list(held[0]), names, answers)
		checkPage(t, q, names, answers, got)
		page, total := q.page(list(best))
		want := listPage(q, page, total)
		want.Partial = got.Partial
		sameList(t, fmt.Sprintf("merge of honest answers, offset %d limit %d", offset, limit), got, want)
	})
}

// checkPage holds what a merged page must satisfy whatever the peers
// answered.
func checkPage(t *testing.T, q Query, names []string, answers []*meshList, lr ListResponse) {
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
	var failed []string
	for i, a := range answers {
		if a == nil {
			failed = append(failed, names[i])
		}
	}
	if !slices.Equal(lr.Partial, failed) {
		t.Fatalf("partial %v, want %v", lr.Partial, failed)
	}
}
