package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"chameleon/internal/clock"
	"chameleon/internal/cq"
	"chameleon/internal/mesh"
	"chameleon/internal/trace"
	"chameleon/internal/tracegen"
)

// fedPeer is one in-process federated chamd: archive, ring state, CQ
// engine, and a live HTTP listener on a real port (the mesh dials
// peers over loopback TCP, exactly like production).
type fedPeer struct {
	url  string
	a    *Archive
	node *mesh.Node
	eng  *cq.Engine
	srv  *httptest.Server
}

// meshConfig tunes startMesh per test.
type meshConfig struct {
	replicas int
	secret   string
	archive  func(i int) Options
	server   func(i int) ServerOptions
	// clock, when set, stamps peer i's ingests instead of the wall clock.
	clock func(i int) clock.Clock
	// stub, when it returns a handler for i, puts that handler on peer
	// i's address instead of a chamd: the peer is in every node's
	// membership but has no archive, node or engine.
	stub func(i int) http.Handler
	// client, when set, is peer i's intra-mesh HTTP client.
	client func(i int) *http.Client
}

// startMesh boots n federated peers. Ports are reserved up front so
// every node is built with the full, final peer list.
func startMesh(t *testing.T, n int, cfg meshConfig) []*fedPeer {
	t.Helper()
	if cfg.replicas == 0 {
		cfg.replicas = 2
	}
	listeners := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		urls[i] = "http://" + l.Addr().String()
	}

	serve := func(i int, h http.Handler) *httptest.Server {
		srv := httptest.NewUnstartedServer(h)
		srv.Listener.Close()
		srv.Listener = listeners[i]
		srv.Start()
		return srv
	}
	peers := make([]*fedPeer, n)
	for i := range peers {
		if cfg.stub != nil {
			if h := cfg.stub(i); h != nil {
				srv := serve(i, h)
				peers[i] = &fedPeer{url: urls[i], srv: srv}
				t.Cleanup(srv.Close)
				continue
			}
		}
		var aOpts Options
		if cfg.archive != nil {
			aOpts = cfg.archive(i)
		}
		a, err := Open(t.TempDir(), aOpts)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.clock != nil {
			a.clk = cfg.clock(i)
		}
		var sOpts ServerOptions
		if cfg.server != nil {
			sOpts = cfg.server(i)
		}
		mOpts := mesh.Options{Self: urls[i], Peers: urls, Replicas: cfg.replicas, Secret: cfg.secret, Reg: sOpts.Reg}
		if cfg.client != nil {
			mOpts.Client = cfg.client(i)
		}
		node, err := mesh.NewNode(mOpts)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := cq.New(cq.Options{
			Lookup:  FedLookup(a, node),
			Origin:  urls[i],
			OnEvent: BroadcastCQEvents(node),
		})
		if err != nil {
			t.Fatal(err)
		}
		sOpts.Mesh, sOpts.CQ = node, eng
		srv := serve(i, NewServer(a, sOpts))
		peers[i] = &fedPeer{url: urls[i], a: a, node: node, eng: eng, srv: srv}
		t.Cleanup(func() { srv.Close(); a.Close() })
	}
	return peers
}

// tenantDo issues a request with an explicit tenant header and optional
// extra headers, returning status, body, and response headers.
func tenantDo(t *testing.T, method, url, tenant string, body []byte, hdr map[string]string) (int, []byte, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set(mesh.HeaderTenant, tenant)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out, resp.Header
}

// localGet reads strictly from one peer (forwarded header suppresses
// the proxy), so tests can assert where replicas physically live.
func localGet(t *testing.T, p *fedPeer, tenant, path string) (int, []byte) {
	t.Helper()
	code, body, _ := tenantDo(t, http.MethodGet, p.url+path, tenant, nil,
		map[string]string{mesh.HeaderForward: mesh.ForwardFanout})
	return code, body
}

// pushVia PUTs a trace through one peer and returns the stored run.
func pushVia(t *testing.T, p *fedPeer, tenant string, f *trace.File) Run {
	t.Helper()
	canon, _, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	code, body, _ := tenantDo(t, http.MethodPut, p.url+"/runs", tenant, canon, nil)
	if code != http.StatusOK && code != http.StatusCreated {
		t.Fatalf("PUT /runs via %s: %d: %s", p.url, code, body)
	}
	var run Run
	if err := json.Unmarshal(body, &run); err != nil {
		t.Fatalf("PUT /runs response: %v", err)
	}
	return run
}

func TestFedReplicationAndByteIdenticalReads(t *testing.T) {
	peers := startMesh(t, 3, meshConfig{replicas: 2})

	type pushed struct {
		id    string
		canon []byte
	}
	var runs []pushed
	for seed := uint64(0); seed < 12; seed++ {
		f := tracegen.SendRecvTrace(4, "lulesh", 40, seed)
		canon, id, err := Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		run := pushVia(t, peers[int(seed)%3], "", f)
		if run.ID != id {
			t.Fatalf("stored ID %s != content address %s", run.ID, id)
		}
		runs = append(runs, pushed{id: id, canon: canon})
	}

	for _, r := range runs {
		owners := peers[0].node.Owners(r.id)
		if len(owners) != 2 {
			t.Fatalf("run %s: %d owners", r.id[:12], len(owners))
		}
		ownerSet := map[string]bool{}
		for _, o := range owners {
			ownerSet[o] = true
		}
		copies := 0
		for _, p := range peers {
			code, body := localGet(t, p, "", "/runs/"+r.id)
			switch code {
			case http.StatusOK:
				copies++
				if !bytes.Equal(body, r.canon) {
					t.Fatalf("run %s: replica on %s not byte-identical", r.id[:12], p.url)
				}
				if !ownerSet[p.url] {
					t.Fatalf("run %s: replica on non-owner %s", r.id[:12], p.url)
				}
			case http.StatusNotFound:
				if ownerSet[p.url] {
					t.Fatalf("run %s: owner %s lacks its replica", r.id[:12], p.url)
				}
			default:
				t.Fatalf("run %s: local GET on %s: %d", r.id[:12], p.url, code)
			}
		}
		if copies != 2 {
			t.Fatalf("run %s: %d copies, want R=2", r.id[:12], copies)
		}

		// Every peer serves the same bytes publicly, proxying when the
		// replica lives elsewhere.
		for _, p := range peers {
			code, body, hdr := tenantDo(t, http.MethodGet, p.url+"/runs/"+r.id, "", nil, nil)
			if code != http.StatusOK || !bytes.Equal(body, r.canon) {
				t.Fatalf("run %s: public GET via %s: %d (%d bytes)", r.id[:12], p.url, code, len(body))
			}
			if etag := hdr.Get("ETag"); etag != `"`+r.id+`"` {
				t.Fatalf("run %s: ETag %q", r.id[:12], etag)
			}
		}
	}
}

func TestFedScatterListPagination(t *testing.T) {
	peers := startMesh(t, 3, meshConfig{replicas: 2})
	want := map[string]bool{}
	for seed := uint64(0); seed < 12; seed++ {
		run := pushVia(t, peers[int(seed)%3], "", tracegen.SendRecvTrace(4, "lulesh", 40, seed))
		want[run.ID] = true
	}

	got := map[string]bool{}
	offset, pages := 0, 0
	for {
		lr, err := FetchRuns(peers[1].url, "", 5, offset)
		if err != nil {
			t.Fatal(err)
		}
		if lr.Total != 12 {
			t.Fatalf("page at offset %d: total %d, want 12", offset, lr.Total)
		}
		if lr.Offset != offset {
			t.Fatalf("page echoed offset %d, want %d", lr.Offset, offset)
		}
		for _, r := range lr.Runs {
			if got[r.ID] {
				t.Fatalf("run %s appeared on two pages", r.ID[:12])
			}
			got[r.ID] = true
		}
		pages++
		if lr.Next == 0 {
			break
		}
		if lr.Next != offset+len(lr.Runs) {
			t.Fatalf("next %d, want %d", lr.Next, offset+len(lr.Runs))
		}
		offset = lr.Next
	}
	if pages != 3 || len(got) != 12 {
		t.Fatalf("walked %d pages, %d runs; want 3 pages, 12 runs", pages, len(got))
	}
	for id := range want {
		if !got[id] {
			t.Fatalf("scatter list lost run %s", id[:12])
		}
	}

	// No explicit limit: the server's documented default page size
	// applies (100 — covers all 12 here) and the listing is exhausted.
	lr, err := FetchRuns(peers[2].url, "", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(lr.Runs) != 12 || lr.Next != 0 {
		t.Fatalf("default page: %d runs, next %d", len(lr.Runs), lr.Next)
	}
	// Oversized limits are clamped server-side, not errors.
	if _, err := FetchRuns(peers[0].url, "", 100000, 0); err != nil {
		t.Fatalf("oversized limit: %v", err)
	}

	// Filters ride the scatter: only the lulesh runs at p=4 match a
	// different-p filter negatively.
	lr, err = FetchRuns(peers[0].url, "benchmark=lulesh&p=8", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lr.Total != 0 {
		t.Fatalf("p=8 filter matched %d runs", lr.Total)
	}

	// Filter values are forwarded to the peers verbatim, whatever they
	// contain: a space must not malform the peer's request line (the
	// peer then silently drops out of the merge), and an '&' must not
	// smuggle a parameter into the uncapped intra-mesh read.
	for _, label := range []string{"LU A", "a&limit=1"} {
		for seed := uint64(0); seed < 6; seed++ {
			pushVia(t, peers[int(seed)%3], "", tracegen.SendRecvTrace(4, label, 40, 50+seed))
		}
		for _, p := range peers {
			lr, err := FetchRuns(p.url, "benchmark="+url.QueryEscape(label), 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if lr.Total != 6 || len(lr.Runs) != 6 {
				t.Fatalf("benchmark=%q via %s: total %d, %d runs; want 6 through every edge", label, p.url, lr.Total, len(lr.Runs))
			}
		}
	}
}

func TestFedTenantIsolationAndQuota(t *testing.T) {
	small := tracegen.SendRecvTrace(4, "quota", 40, 1)
	canonSmall, _, err := Encode(small)
	if err != nil {
		t.Fatal(err)
	}
	// A tenant can hold exactly the small run and nothing more;
	// mkWideTrace is strictly larger, so it busts the quota on every
	// peer whether or not that peer already holds the small run.
	quota := int64(len(canonSmall))
	peers := startMesh(t, 3, meshConfig{
		replicas: 2,
		archive:  func(int) Options { return Options{QuotaBytes: quota} },
	})

	run := pushVia(t, peers[0], "capped", small)

	// Tenant isolation: the run is invisible to other tenants on every
	// peer, even through the proxy.
	for _, p := range peers {
		if code, _, _ := tenantDo(t, http.MethodGet, p.url+"/runs/"+run.ID, "elsewhere", nil, nil); code != http.StatusNotFound {
			t.Fatalf("cross-tenant GET via %s: %d, want 404", p.url, code)
		}
	}
	lr, err := FetchRuns(peers[1].url, "", 0, 0) // default tenant
	if err != nil {
		t.Fatal(err)
	}
	if lr.Total != 0 {
		t.Fatalf("capped tenant's run leaked into the default listing: %+v", lr)
	}

	// Over quota: 429 with Retry-After, on whichever peer takes the PUT.
	wide := mkWideTrace(4, "quota", 2)
	wideCanon, _, err := Encode(wide)
	if err != nil {
		t.Fatal(err)
	}
	code, body, hdr := tenantDo(t, http.MethodPut, peers[2].url+"/runs", "capped", wideCanon, nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-quota PUT: %d: %s", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("over-quota 429 missing Retry-After")
	}
	if !strings.Contains(string(body), "quota") {
		t.Fatalf("over-quota body does not say why: %s", body)
	}

	// Quotas are counted per tenant: the bytes that fill "capped" land
	// fine under a second tenant on the same owners, and re-pushing a
	// run the tenant already owns stays idempotent.
	if r := pushVia(t, peers[2], "roomy", small); r.ID != run.ID {
		t.Fatalf("second tenant's push of the small run: ID %s, want %s", r.ID, run.ID)
	}
	if r := pushVia(t, peers[1], "capped", small); r.ID != run.ID {
		t.Fatalf("idempotent re-push changed ID: %s vs %s", r.ID, run.ID)
	}

	// Malformed tenant names are rejected at the edge.
	if code, _, _ := tenantDo(t, http.MethodGet, peers[0].url+"/runs", "..", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("tenant \"..\": %d, want 400", code)
	}
}

func TestFedRateLimit(t *testing.T) {
	a := openTemp(t, Options{})
	clk := clock.NewFake(time.Unix(1_700_000_000, 0))
	a.clk = clk
	srv := httptest.NewServer(NewServer(a, ServerOptions{RateLimit: 0.25, RateBurst: 2}))
	defer srv.Close()
	get := func(want int, wantRetry string) {
		t.Helper()
		code, _, hdr := tenantDo(t, http.MethodGet, srv.URL+"/runs", "", nil, nil)
		if ra := hdr.Get("Retry-After"); code != want || ra != wantRetry {
			t.Fatalf("GET /runs: %d, Retry-After %q; want %d, %q", code, ra, want, wantRetry)
		}
	}

	// The burst spends both tokens; the next request waits for a whole
	// token at 0.25/s, then for the half a token 2s has not refilled.
	get(http.StatusOK, "")
	get(http.StatusOK, "")
	get(http.StatusTooManyRequests, "4")
	clk.Advance(2 * time.Second)
	get(http.StatusTooManyRequests, "2")
	// 4s refill exactly one token: one request, then dry again.
	clk.Advance(2 * time.Second)
	get(http.StatusOK, "")
	get(http.StatusTooManyRequests, "4")

	// Tenant buckets are independent: a different tenant still gets in.
	if code, _, _ := tenantDo(t, http.MethodGet, srv.URL+"/runs", "other", nil, nil); code != http.StatusOK {
		t.Fatalf("second tenant throttled by the first: %d", code)
	}
	// Intra-mesh traffic and probes are exempt.
	if code, _, _ := tenantDo(t, http.MethodGet, srv.URL+"/runs", "", nil,
		map[string]string{mesh.HeaderForward: mesh.ForwardFanout}); code != http.StatusOK {
		t.Fatalf("forwarded request throttled: %d", code)
	}
	if code, _, _ := tenantDo(t, http.MethodGet, srv.URL+"/healthz", "", nil, nil); code != http.StatusOK {
		t.Fatalf("healthz throttled: %d", code)
	}
}

// TestRateLimiterBoundsTenants: tenant names come from outside, so
// rotating them must not grow the limiter without bound. Buckets that
// have refilled are dropped; a dry one survives the sweep, and a wait
// under a second is still reported as one.
func TestRateLimiterBoundsTenants(t *testing.T) {
	const rate, burst, perRound = 4.0, 2, 1000
	clk := clock.NewFake(time.Unix(1_700_000_000, 0))
	rl := newRateLimiter(clk, rate, burst)
	for i := 0; i < burst; i++ {
		rl.allow("hog")
	}
	for round := 0; round < 10; round++ {
		for i := 0; i < perRound; i++ {
			if ok, _ := rl.allow(fmt.Sprintf("t%d-%d", round, i)); !ok {
				t.Fatalf("a tenant's first request throttled")
			}
		}
		if n := len(rl.buckets); n > 2*perRound {
			t.Fatalf("round %d: %d buckets for %d active tenants", round, n, perRound)
		}
		if round == 0 {
			if ok, wait := rl.allow("hog"); ok || wait != time.Second {
				t.Fatalf("dry bucket after sweeps: allowed %v, wait %v; want throttled for 1s", ok, wait)
			}
		}
		clk.Advance(time.Duration(burst / rate * float64(time.Second)))
	}
}

func TestFedConditionalStatsAndWaves(t *testing.T) {
	peers := startMesh(t, 3, meshConfig{replicas: 2})
	f := tracegen.SendRecvTrace(4, "etag", 40, 3)
	run := pushVia(t, peers[0], "", f)

	// stats: the report is a pure function of the run, so the ETag is
	// stable and honored on every peer (including across the proxy).
	var etag string
	for i, p := range peers {
		code, _, hdr := tenantDo(t, http.MethodGet, p.url+"/runs/"+run.ID+"/stats", "", nil, nil)
		if code != http.StatusOK {
			t.Fatalf("stats via %s: %d", p.url, code)
		}
		if i == 0 {
			etag = hdr.Get("ETag")
			if etag == "" {
				t.Fatal("stats response missing ETag")
			}
		} else if hdr.Get("ETag") != etag {
			t.Fatalf("stats ETag differs across peers: %q vs %q", hdr.Get("ETag"), etag)
		}
	}
	for _, p := range peers {
		code, _, _ := tenantDo(t, http.MethodGet, p.url+"/runs/"+run.ID+"/stats", "", nil,
			map[string]string{"If-None-Match": etag})
		if code != http.StatusNotModified {
			t.Fatalf("conditional stats via %s: %d, want 304", p.url, code)
		}
	}

	// waves: attach a sidecar on a peer that physically holds the run.
	holder := peers[0]
	for _, p := range peers {
		if code, _ := localGet(t, p, "", "/runs/"+run.ID); code == http.StatusOK {
			holder = p
			break
		}
	}
	sidecar := []byte(`{"from":0,"to":1,"seq":1,"send_ns":100,"arrive_ns":200,"recv_ns":250}` + "\n")
	if code, body, _ := tenantDo(t, http.MethodPut, holder.url+"/runs/"+run.ID+"/edges", "", sidecar, nil); code != http.StatusOK {
		t.Fatalf("PUT edges: %d: %s", code, body)
	}
	code, _, hdr := tenantDo(t, http.MethodGet, holder.url+"/runs/"+run.ID+"/waves", "", nil, nil)
	if code != http.StatusOK || hdr.Get("ETag") == "" {
		t.Fatalf("waves: %d, ETag %q", code, hdr.Get("ETag"))
	}
	wavesTag := hdr.Get("ETag")
	if code, _, _ = tenantDo(t, http.MethodGet, holder.url+"/runs/"+run.ID+"/waves", "", nil,
		map[string]string{"If-None-Match": wavesTag}); code != http.StatusNotModified {
		t.Fatalf("conditional waves: %d, want 304", code)
	}
	// The sidecar is replaceable, so its ETag covers the bytes: a new
	// sidecar invalidates the old tag.
	sidecar2 := append(sidecar, []byte(`{"from":1,"to":2,"seq":2,"send_ns":300,"arrive_ns":400,"recv_ns":500}`+"\n")...)
	if code, _, _ := tenantDo(t, http.MethodPut, holder.url+"/runs/"+run.ID+"/edges", "", sidecar2, nil); code != http.StatusOK {
		t.Fatalf("PUT edges (replace): %d", code)
	}
	code, _, hdr = tenantDo(t, http.MethodGet, holder.url+"/runs/"+run.ID+"/waves", "", nil,
		map[string]string{"If-None-Match": wavesTag})
	if code != http.StatusOK || hdr.Get("ETag") == wavesTag {
		t.Fatalf("stale waves ETag survived a sidecar replace: %d %q", code, hdr.Get("ETag"))
	}
}

func TestFedCQRegressionGate(t *testing.T) {
	peers := startMesh(t, 3, meshConfig{replicas: 2})

	golden := pushVia(t, peers[0], "", tracegen.SendRecvTrace(4, "lulesh", 40, 7))

	spec, err := RegisterCQ(peers[0].url, cq.Spec{Name: "gate", Benchmark: "lulesh", Golden: golden.ID[:16]})
	if err != nil {
		t.Fatal(err)
	}
	if spec.Tenant != DefaultTenant || spec.UpdatedUnixMs == 0 {
		t.Fatalf("stored spec: %+v", spec)
	}
	// Registration fans out: every peer can be a future primary owner.
	for _, p := range peers {
		specs, err := FetchCQs(p.url)
		if err != nil {
			t.Fatal(err)
		}
		if len(specs) != 1 || specs[0].Name != "gate" {
			t.Fatalf("spec not fanned out to %s: %+v", p.url, specs)
		}
	}

	// An equivalent run under a different content address gates ok:
	// timings differ, structure does not.
	ok := tracegen.SendRecvTrace(4, "lulesh", 40, 7)
	ok.Nodes[1].Delta.Add(999)
	okRun := pushVia(t, peers[1], "", ok)
	if okRun.ID == golden.ID {
		t.Fatal("timing perturbation did not change the content address")
	}

	// A structural drift gates as a regression, and the event reaches a
	// watcher long-polling any peer.
	drift := tracegen.SendRecvTrace(4, "lulesh", 40, 7)
	drift.Nodes[0].Iters++
	driftRun := pushVia(t, peers[2], "", drift)

	view, err := WatchCQFeed(peers[1].url, 0, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(view.Events) != 2 {
		t.Fatalf("feed has %d events, want 2: %+v", len(view.Events), view.Events)
	}
	byRun := map[string]cq.Event{}
	for _, ev := range view.Events {
		byRun[ev.Run] = ev
	}
	if ev := byRun[okRun.ID]; ev.Verdict != cq.VerdictOK {
		t.Fatalf("equivalent run gated %q (%s)", ev.Verdict, ev.Reason)
	}
	if ev := byRun[driftRun.ID]; ev.Verdict != cq.VerdictRegression || ev.Reason == "" {
		t.Fatalf("drifted run gated %q (%s)", ev.Verdict, ev.Reason)
	}
	if byRun[driftRun.ID].Golden != golden.ID {
		t.Fatalf("event resolved golden %q, want %s", byRun[driftRun.ID].Golden, golden.ID)
	}

	// Broadcast: every peer's feed carries the same events (same IDs).
	for _, p := range peers {
		fv, err := FetchCQFeed(p.url)
		if err != nil {
			t.Fatal(err)
		}
		ids := map[string]bool{}
		for _, ev := range fv.Events {
			ids[ev.ID] = true
		}
		for _, ev := range view.Events {
			if !ids[ev.ID] {
				t.Fatalf("event %s missing from %s's feed", ev.ID, p.url)
			}
		}
	}

	// External clients cannot forge feed entries.
	forged := []byte(`{"id":"evil#1","tenant":"default","verdict":"regression"}`)
	if code, _, _ := tenantDo(t, http.MethodPost, peers[0].url+"/cq/events", "", forged, nil); code != http.StatusForbidden {
		t.Fatalf("unforwarded event POST: %d, want 403", code)
	}

	// Deletion fans out too.
	if err := DeleteCQ(peers[2].url, "gate"); err != nil {
		t.Fatal(err)
	}
	for _, p := range peers {
		specs, err := FetchCQs(p.url)
		if err != nil {
			t.Fatal(err)
		}
		if len(specs) != 0 {
			t.Fatalf("deleted spec survives on %s: %+v", p.url, specs)
		}
	}
}

func TestFedAntiEntropySweep(t *testing.T) {
	peers := startMesh(t, 3, meshConfig{replicas: 2})

	// Simulate a fallback replica: a run living only on a peer that
	// does not own it (its owners were down at ingest time).
	f := tracegen.SendRecvTrace(4, "repair", 40, 11)
	_, id, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	owners := map[string]bool{}
	for _, o := range peers[0].node.Owners(id) {
		owners[o] = true
	}
	var stray, owner *fedPeer
	for _, p := range peers {
		if owners[p.url] {
			owner = p
		} else {
			stray = p
		}
	}
	if _, _, err := stray.a.Tenant("acme").Ingest(f); err != nil {
		t.Fatal(err)
	}
	// An edge sidecar attached to the stray replica must converge too —
	// owners pull sidecars alongside the runs they repair.
	sidecar := []byte(`{"from":0,"to":1,"seq":1,"send_ns":100,"arrive_ns":200,"recv_ns":250}` + "\n")
	if _, _, err := stray.a.Tenant("acme").PutEdges(id, sidecar); err != nil {
		t.Fatal(err)
	}
	// A CQ registered only on the stray peer rides the same sweep.
	if _, err := stray.eng.Register(cq.Spec{Tenant: "acme", Name: "synced", Golden: id}); err != nil {
		t.Fatal(err)
	}

	if code, _ := localGet(t, owner, "acme", "/runs/"+id); code != http.StatusNotFound {
		t.Fatalf("owner already has the run before the sweep: %d", code)
	}

	rep, err := TriggerSweep(owner.url)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pulled < 1 {
		t.Fatalf("sweep pulled %d runs, want >=1: %+v", rep.Pulled, rep)
	}
	if rep.EdgesPulled < 1 {
		t.Fatalf("sweep pulled %d sidecars, want >=1: %+v", rep.EdgesPulled, rep)
	}
	if rep.CQMerged < 1 {
		t.Fatalf("sweep merged %d CQ specs, want >=1: %+v", rep.CQMerged, rep)
	}

	code, body := localGet(t, owner, "acme", "/runs/"+id)
	if code != http.StatusOK {
		t.Fatalf("owner lacks the run after the sweep: %d", code)
	}
	canon, _, _ := Encode(f)
	if !bytes.Equal(body, canon) {
		t.Fatal("pulled replica not byte-identical")
	}
	if code, got := localGet(t, owner, "acme", "/runs/"+id+"/edges"); code != http.StatusOK || !bytes.Equal(got, sidecar) {
		t.Fatalf("owner lacks the sidecar after the sweep: %d", code)
	}
	if specs := owner.eng.List("acme"); len(specs) != 1 || specs[0].Name != "synced" {
		t.Fatalf("CQ spec did not sync: %+v", specs)
	}

	// Sweeps are idempotent: a second pass finds nothing to do.
	rep, err = TriggerSweep(owner.url)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pulled != 0 || rep.EdgesPulled != 0 {
		t.Fatalf("second sweep re-pulled %d runs, %d sidecars", rep.Pulled, rep.EdgesPulled)
	}
}

func TestFedWriteSurvivesDeadOwners(t *testing.T) {
	peers := startMesh(t, 3, meshConfig{replicas: 2})
	survivor := peers[0]

	// Find a run owned by neither... impossible at R=2 with one
	// survivor in the write path only when both owners are the dead
	// peers — hunt for such an ID.
	var f *trace.File
	var id string
	for seed := uint64(100); ; seed++ {
		cand := tracegen.SendRecvTrace(4, "failover", 40, seed)
		_, cid, err := Encode(cand)
		if err != nil {
			t.Fatal(err)
		}
		ownedBySurvivor := false
		for _, o := range survivor.node.Owners(cid) {
			if o == survivor.url {
				ownedBySurvivor = true
			}
		}
		if !ownedBySurvivor {
			f, id = cand, cid
			break
		}
	}
	peers[1].srv.Close()
	peers[2].srv.Close()

	run := pushVia(t, survivor, "", f)
	if run.ID != id {
		t.Fatalf("fallback ingest stored %s, want %s", run.ID, id)
	}
	// The write landed locally (off-ring) and is served locally.
	if code, _ := localGet(t, survivor, "", "/runs/"+id); code != http.StatusOK {
		t.Fatalf("fallback replica not on the surviving peer: %d", code)
	}
	// Reads and scatter lists degrade gracefully with the fleet down.
	if code, _, _ := tenantDo(t, http.MethodGet, survivor.url+"/runs/"+id, "", nil, nil); code != http.StatusOK {
		t.Fatalf("public GET with dead owners: %d", code)
	}
	lr, err := FetchRuns(survivor.url, "", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lr.Total != 1 {
		t.Fatalf("degraded scatter list total %d, want 1", lr.Total)
	}
	// ...and say so: the page names the peers it could not hear from.
	if dead := survivor.node.Others(); !slices.Equal(lr.Partial, dead) {
		t.Fatalf("degraded scatter list partial %v, want the dead peers %v", lr.Partial, dead)
	}
}

func TestFedEdgesFanout(t *testing.T) {
	peers := startMesh(t, 3, meshConfig{replicas: 2})
	run := pushVia(t, peers[0], "", tracegen.SendRecvTrace(4, "edges", 40, 5))

	owners := map[string]bool{}
	for _, o := range peers[0].node.Owners(run.ID) {
		owners[o] = true
	}
	var nonOwner *fedPeer
	for _, p := range peers {
		if !owners[p.url] {
			nonOwner = p
		}
	}

	// An edge PUT through a peer that does not hold the run fans out to
	// its owners instead of failing with a strictly-local 404.
	sidecar := []byte(`{"from":0,"to":1,"seq":1,"send_ns":100,"arrive_ns":200,"recv_ns":250}` + "\n")
	code, body, _ := tenantDo(t, http.MethodPut, nonOwner.url+"/runs/"+run.ID+"/edges", "", sidecar, nil)
	if code != http.StatusOK {
		t.Fatalf("edge PUT via non-owner: %d: %s", code, body)
	}
	var res struct {
		ID    string `json:"id"`
		Edges int    `json:"edges"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.ID != run.ID || res.Edges != 1 {
		t.Fatalf("edge PUT result: %s", body)
	}

	// The sidecar physically lands on the run's owners, not the ingress
	// peer, and every peer serves it publicly via the proxy.
	for _, p := range peers {
		code, got := localGet(t, p, "", "/runs/"+run.ID+"/edges")
		switch {
		case owners[p.url] && (code != http.StatusOK || !bytes.Equal(got, sidecar)):
			t.Fatalf("owner %s lacks the sidecar: %d", p.url, code)
		case !owners[p.url] && code != http.StatusNotFound:
			t.Fatalf("non-owner %s holds the sidecar: %d", p.url, code)
		}
	}
	for _, p := range peers {
		code, got, _ := tenantDo(t, http.MethodGet, p.url+"/runs/"+run.ID+"/edges", "", nil, nil)
		if code != http.StatusOK || !bytes.Equal(got, sidecar) {
			t.Fatalf("public edge GET via %s: %d", p.url, code)
		}
	}

	// Prefix references resolve across the fan-out too, and a re-push
	// replaces the sidecar everywhere it lives.
	sidecar2 := append(append([]byte{}, sidecar...),
		[]byte(`{"from":1,"to":2,"seq":2,"send_ns":300,"arrive_ns":400,"recv_ns":450}`+"\n")...)
	code, body, _ = tenantDo(t, http.MethodPut, nonOwner.url+"/runs/"+run.ID[:16]+"/edges", "", sidecar2, nil)
	if code != http.StatusOK {
		t.Fatalf("edge PUT by prefix via non-owner: %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.ID != run.ID || res.Edges != 2 {
		t.Fatalf("prefix edge PUT result: %s", body)
	}
	for _, p := range peers {
		if code, got, _ := tenantDo(t, http.MethodGet, p.url+"/runs/"+run.ID+"/edges", "", nil, nil); code != http.StatusOK || !bytes.Equal(got, sidecar2) {
			t.Fatalf("replaced sidecar via %s: %d", p.url, code)
		}
	}

	// Malformed payloads and unknown runs fail at the ingress edge.
	if code, _, _ := tenantDo(t, http.MethodPut, nonOwner.url+"/runs/"+run.ID+"/edges", "", []byte("not an edge\n"), nil); code != http.StatusBadRequest {
		t.Fatalf("malformed edges: %d, want 400", code)
	}
	if code, _, _ := tenantDo(t, http.MethodPut, nonOwner.url+"/runs/ffffffffffffffff/edges", "", sidecar, nil); code != http.StatusNotFound {
		t.Fatalf("edges for unknown run: %d, want 404", code)
	}
}

func TestFedDiffProxies(t *testing.T) {
	peers := startMesh(t, 3, meshConfig{replicas: 2})

	// Hunt for two distinct runs placed on the same owner pair: the
	// third peer then holds neither side, so a strictly-local diff
	// there cannot work.
	ownerKey := func(id string) string {
		o := append([]string{}, peers[0].node.Owners(id)...)
		sort.Strings(o)
		return strings.Join(o, "|")
	}
	type cand struct {
		f  *trace.File
		id string
	}
	first := map[string]cand{}
	var a, b cand
	for seed := uint64(0); ; seed++ {
		f := tracegen.SendRecvTrace(4, "diff", 40, seed)
		_, id, err := Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		k := ownerKey(id)
		if prev, ok := first[k]; ok && prev.id != id {
			a, b = prev, cand{f, id}
			break
		}
		first[k] = cand{f, id}
	}
	pushVia(t, peers[0], "", a.f)
	pushVia(t, peers[1], "", b.f)

	var outside *fedPeer
	owned := map[string]bool{}
	for _, o := range peers[0].node.Owners(a.id) {
		owned[o] = true
	}
	for _, p := range peers {
		if !owned[p.url] {
			outside = p
		}
	}
	if code, _ := localGet(t, outside, "", "/runs/"+a.id); code != http.StatusNotFound {
		t.Fatalf("outside peer unexpectedly holds run A: %d", code)
	}
	if code, _ := localGet(t, outside, "", "/runs/"+b.id); code != http.StatusNotFound {
		t.Fatalf("outside peer unexpectedly holds run B: %d", code)
	}

	// The diff endpoint resolves each side from its owners, so the
	// outside peer answers even though it holds neither run.
	code, body, _ := tenantDo(t, http.MethodGet, outside.url+"/runs/"+a.id+"/diff/"+b.id, "", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("federated diff via outside peer: %d: %s", code, body)
	}
	var d DiffResponse
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	if d.A != a.id || d.B != b.id {
		t.Fatalf("diff resolved (%s, %s), want (%s, %s)", d.A, d.B, a.id, b.id)
	}
	// Self-diff through the proxy is trivially equivalent.
	code, body, _ = tenantDo(t, http.MethodGet, outside.url+"/runs/"+a.id+"/diff/"+a.id, "", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("federated self-diff: %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	if !d.Equivalent {
		t.Fatalf("self-diff not equivalent: %s", body)
	}
	// Unknown runs still 404 rather than 502.
	if code, _, _ := tenantDo(t, http.MethodGet, outside.url+"/runs/"+a.id+"/diff/ffffffffffffffff", "", nil, nil); code != http.StatusNotFound {
		t.Fatalf("diff against unknown run: %d, want 404", code)
	}
}

func TestFedMeshSecret(t *testing.T) {
	const key = "swordfish"
	peers := startMesh(t, 3, meshConfig{replicas: 2, secret: key})
	withKey := func(h map[string]string) map[string]string {
		out := map[string]string{mesh.HeaderKey: key}
		for k, v := range h {
			out[k] = v
		}
		return out
	}
	spoof := map[string]string{mesh.HeaderForward: mesh.ForwardFanout}

	// The mesh still functions end-to-end with the key in play: PUT
	// fan-out places R=2 replicas, public reads proxy.
	run := pushVia(t, peers[0], "acme", tracegen.SendRecvTrace(4, "secured", 40, 3))
	copies := 0
	for _, p := range peers {
		code, _, _ := tenantDo(t, http.MethodGet, p.url+"/runs/"+run.ID, "acme", nil, withKey(spoof))
		if code == http.StatusOK {
			copies++
		}
	}
	if copies != 2 {
		t.Fatalf("secured mesh placed %d copies, want 2", copies)
	}
	for _, p := range peers {
		if code, _, _ := tenantDo(t, http.MethodGet, p.url+"/runs/"+run.ID, "acme", nil, nil); code != http.StatusOK {
			t.Fatalf("public GET via %s: %d", p.url, code)
		}
	}

	// A spoofed forward header without the key carries no privilege:
	// feed events cannot be forged...
	ev := []byte(`{"id":"evil#1","tenant":"acme","verdict":"regression"}`)
	if code, _, _ := tenantDo(t, http.MethodPost, peers[0].url+"/cq/events", "acme", ev, spoof); code != http.StatusForbidden {
		t.Fatal("spoofed forward header forged a feed event")
	}
	if code, _, _ := tenantDo(t, http.MethodPost, peers[0].url+"/cq/events", "acme", ev, withKey(spoof)); code != http.StatusNoContent {
		t.Fatal("key-carrying event broadcast rejected")
	}

	// ...?all=1 listings stay scoped to the caller's tenant...
	specJSON := []byte(`{"name":"gate","golden":"` + run.ID + `"}`)
	if code, body, _ := tenantDo(t, http.MethodPut, peers[0].url+"/cq", "acme", specJSON, nil); code != http.StatusCreated {
		t.Fatalf("register CQ under acme: %d: %s", code, body)
	}
	code, body, _ := tenantDo(t, http.MethodGet, peers[0].url+"/cq?all=1", "other", nil, spoof)
	var specs []cq.Spec
	if code != http.StatusOK || json.Unmarshal(body, &specs) != nil {
		t.Fatalf("spoofed ?all=1: %d: %s", code, body)
	}
	if len(specs) != 0 {
		t.Fatalf("spoofed ?all=1 leaked other tenants' specs: %+v", specs)
	}
	code, body, _ = tenantDo(t, http.MethodGet, peers[0].url+"/cq?all=1", "other", nil, withKey(spoof))
	if code != http.StatusOK || json.Unmarshal(body, &specs) != nil || len(specs) != 1 {
		t.Fatalf("keyed ?all=1: %d: %s", code, body)
	}

	// ...and the manifest reveals only the caller's own holdings.
	code, body, _ = tenantDo(t, http.MethodGet, peers[0].url+"/mesh/manifest", "other", nil, nil)
	var entries []mesh.Entry
	if code != http.StatusOK || json.Unmarshal(body, &entries) != nil {
		t.Fatalf("manifest: %d: %s", code, body)
	}
	for _, e := range entries {
		if e.Tenant != "other" {
			t.Fatalf("unkeyed manifest leaked tenant %q's run %s", e.Tenant, e.ID[:12])
		}
	}
	code, body, _ = tenantDo(t, http.MethodGet, peers[0].url+"/mesh/manifest", "other", nil, withKey(spoof))
	if code != http.StatusOK || json.Unmarshal(body, &entries) != nil {
		t.Fatalf("keyed manifest: %d: %s", code, body)
	}
	found := false
	for _, e := range entries {
		if e.Tenant == "acme" && e.ID == run.ID {
			found = true
		}
	}
	if !found && len(peers[0].node.Owners(run.ID)) > 0 {
		// peers[0] only advertises what it physically holds; ask an owner.
		owner := peers[0].node.Owners(run.ID)[0]
		code, body, _ = tenantDo(t, http.MethodGet, owner+"/mesh/manifest", "other", nil, withKey(spoof))
		if code != http.StatusOK || json.Unmarshal(body, &entries) != nil {
			t.Fatalf("keyed owner manifest: %d: %s", code, body)
		}
		for _, e := range entries {
			if e.Tenant == "acme" && e.ID == run.ID {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("keyed manifest hides the acme run from the mesh")
	}

	// Anti-entropy keeps working under the secret (sweeps carry the key).
	if rep, err := TriggerSweep(peers[0].url); err != nil || rep.PeersFailed != 0 {
		t.Fatalf("sweep on secured mesh: %+v, %v", rep, err)
	}
}

func TestFedMeshSecretRateLimit(t *testing.T) {
	// On a secured mesh a spoofed forward header must not bypass the
	// per-tenant rate limit; the real mesh key stays exempt.
	peers := startMesh(t, 2, meshConfig{
		replicas: 1,
		secret:   "swordfish",
		server:   func(int) ServerOptions { return ServerOptions{RateLimit: 1, RateBurst: 2} },
	})
	spoof := map[string]string{mesh.HeaderForward: mesh.ForwardFanout}
	var last int
	var hdr http.Header
	for i := 0; i < 3; i++ {
		last, _, hdr = tenantDo(t, http.MethodGet, peers[0].url+"/runs", "probe", nil, spoof)
	}
	if last != http.StatusTooManyRequests {
		t.Fatalf("spoofed forward header bypassed the rate limit: %d", last)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("throttled response missing Retry-After")
	}
	keyed := map[string]string{mesh.HeaderForward: mesh.ForwardFanout, mesh.HeaderKey: "swordfish"}
	for i := 0; i < 3; i++ {
		if code, _, _ := tenantDo(t, http.MethodGet, peers[0].url+"/runs", "probe", nil, keyed); code != http.StatusOK {
			t.Fatalf("key-carrying mesh request throttled: %d", code)
		}
	}
}

func TestFedCQDeleteTombstone(t *testing.T) {
	peers := startMesh(t, 3, meshConfig{replicas: 2})
	golden := pushVia(t, peers[0], "", tracegen.SendRecvTrace(4, "lulesh", 40, 7))
	if _, err := RegisterCQ(peers[0].url, cq.Spec{Name: "gate", Benchmark: "lulesh", Golden: golden.ID}); err != nil {
		t.Fatal(err)
	}

	// Simulate a delete whose fan-out one peer missed: retire the spec
	// on peer 0's engine only. Peers 1 and 2 still list it.
	if err := peers[0].eng.Delete(DefaultTenant, "gate"); err != nil {
		t.Fatal(err)
	}
	if specs := peers[1].eng.List(DefaultTenant); len(specs) != 1 {
		t.Fatalf("peer 1 lost the spec without a delete: %+v", specs)
	}

	// Anti-entropy must not resurrect the deleted gate: peer 0 sweeps
	// against two peers that still advertise the live spec.
	if _, err := TriggerSweep(peers[0].url); err != nil {
		t.Fatal(err)
	}
	if specs, err := FetchCQs(peers[0].url); err != nil || len(specs) != 0 {
		t.Fatalf("deleted CQ resurrected by the sweep: %+v (%v)", specs, err)
	}
	// And the tombstone retires the spec on the peers that missed the
	// delete once they sweep.
	for _, p := range peers[1:] {
		if _, err := TriggerSweep(p.url); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range peers {
		if specs, err := FetchCQs(p.url); err != nil || len(specs) != 0 {
			t.Fatalf("deleted CQ survives on %s: %+v (%v)", p.url, specs, err)
		}
	}

	// Re-registration out-ranks the tombstone mesh-wide.
	if _, err := RegisterCQ(peers[2].url, cq.Spec{Name: "gate", Benchmark: "lulesh", Golden: golden.ID}); err != nil {
		t.Fatal(err)
	}
	for _, p := range peers {
		if specs, err := FetchCQs(p.url); err != nil || len(specs) != 1 {
			t.Fatalf("re-registered CQ missing on %s: %+v (%v)", p.url, specs, err)
		}
	}
}

func TestFedMeshStatus(t *testing.T) {
	peers := startMesh(t, 3, meshConfig{replicas: 2})
	pushVia(t, peers[0], "acme", tracegen.SendRecvTrace(4, "status", 40, 21))

	st, err := FetchMeshStatus(peers[0].url)
	if err != nil {
		t.Fatal(err)
	}
	if st.Self != peers[0].url || len(st.Peers) != 3 || st.Replicas != 2 {
		t.Fatalf("mesh status: %+v", st)
	}
	totalRuns := 0
	for _, p := range peers {
		s, err := FetchMeshStatus(p.url)
		if err != nil {
			t.Fatal(err)
		}
		totalRuns += s.Runs
		if s.Runs > 0 && s.Tenants["acme"] <= 0 {
			t.Fatalf("peer %s holds runs but reports no acme usage: %+v", p.url, s)
		}
	}
	if totalRuns != 2 {
		t.Fatalf("fleet holds %d copies, want 2", totalRuns)
	}
}
