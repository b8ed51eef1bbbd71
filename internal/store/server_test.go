package store

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"chameleon/internal/obs"
	"chameleon/internal/tracegen"
)

func newTestServer(t *testing.T, archOpts Options, srvOpts ServerOptions) (*Archive, *httptest.Server) {
	t.Helper()
	a, err := Open(t.TempDir(), archOpts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(a, srvOpts))
	t.Cleanup(func() { srv.Close(); a.Close() })
	return a, srv
}

func putTrace(t *testing.T, url string, payload []byte, gzipBody bool) (*http.Response, Run) {
	t.Helper()
	body := payload
	if gzipBody {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		if _, err := zw.Write(payload); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		body = buf.Bytes()
	}
	req, err := http.NewRequest(http.MethodPut, url+"/runs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if gzipBody {
		req.Header.Set("Content-Encoding", "gzip")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var run Run
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&run); err != nil {
			t.Fatal(err)
		}
	}
	return resp, run
}

func TestPutIdempotent(t *testing.T) {
	_, srv := newTestServer(t, Options{}, ServerOptions{})
	payload, id, err := Encode(tracegen.SendRecvTrace(8, "PHASE", 40, 1))
	if err != nil {
		t.Fatal(err)
	}

	resp1, run1 := putTrace(t, srv.URL, payload, false)
	if resp1.StatusCode != http.StatusCreated {
		t.Fatalf("first PUT: %s, want 201", resp1.Status)
	}
	if run1.ID != id {
		t.Fatalf("server content address %s, client computed %s", run1.ID, id)
	}
	if etag := resp1.Header.Get("ETag"); etag != `"`+id+`"` {
		t.Fatalf("ETag %q, want content address", etag)
	}

	resp2, run2 := putTrace(t, srv.URL, payload, false)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("duplicate PUT: %s, want 200 (dedup)", resp2.Status)
	}
	if run2.ID != run1.ID {
		t.Fatal("dedup PUT returned a different run")
	}
}

func TestGetBinaryJSONAndCache(t *testing.T) {
	a, srv := newTestServer(t, Options{}, ServerOptions{})
	f := tracegen.SendRecvTrace(8, "PHASE", 40, 2)
	payload, id, _ := Encode(f)
	if _, _, err := a.Ingest(f); err != nil {
		t.Fatal(err)
	}

	// Binary fetch is byte-identical to the canonical payload.
	resp, err := http.Get(srv.URL + "/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, payload) {
		t.Fatalf("binary GET: %s, %d bytes (want %d)", resp.Status, len(got), len(payload))
	}
	if resp.Header.Get("X-Raw-Bytes") == "" {
		t.Fatal("missing X-Raw-Bytes counter header")
	}

	// Prefix resolution over HTTP.
	resp, err = http.Get(srv.URL + "/runs/" + id[:12])
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prefix GET: %s", resp.Status)
	}

	// JSON rendering decodes as a trace file.
	resp, err = http.Get(srv.URL + "/runs/" + id + "?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var js map[string]any
	err = json.NewDecoder(resp.Body).Decode(&js)
	resp.Body.Close()
	if err != nil || js["p"] != float64(8) {
		t.Fatalf("JSON GET: err=%v p=%v", err, js["p"])
	}

	// Conditional fetch via ETag.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/runs/"+id, nil)
	req.Header.Set("If-None-Match", `"`+id+`"`)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional GET: %s, want 304", resp.Status)
	}

	// Unknown run.
	resp, err = http.Get(srv.URL + "/runs/ffffffffffffffff")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing run GET: %s, want 404", resp.Status)
	}
}

func TestGzipTransferEndToEnd(t *testing.T) {
	// Archive stores gzip segments; PUT arrives gzip; GET streams the
	// stored frame as Content-Encoding: gzip without recompressing.
	_, srv := newTestServer(t, Options{Gzip: true}, ServerOptions{})
	payload, id, _ := Encode(mkWideTrace(16, "STENCIL", 3))

	resp, run := putTrace(t, srv.URL, payload, true)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("gzip PUT: %s", resp.Status)
	}
	if !run.Gzip || run.StoredBytes >= run.RawBytes {
		t.Fatalf("segment should be stored compressed: stored=%d raw=%d", run.StoredBytes, run.RawBytes)
	}

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/runs/"+id, nil)
	req.Header.Set("Accept-Encoding", "gzip")
	tr := &http.Transport{DisableCompression: true}
	resp2, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.Header.Get("Content-Encoding") != "gzip" {
		t.Fatalf("Content-Encoding = %q, want gzip", resp2.Header.Get("Content-Encoding"))
	}
	wire, _ := io.ReadAll(resp2.Body)
	if int64(len(wire)) != run.StoredBytes {
		t.Fatalf("wire bytes %d != stored segment bytes %d (should stream the stored frame)", len(wire), run.StoredBytes)
	}
	zr, err := gzip.NewReader(bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, payload) {
		t.Fatal("gzip transfer lost bytes")
	}

	// The client helper sees both byte counts.
	fTrace, stats, err := LoadTraceStats(srv.URL + "/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	if fTrace.P != 16 || stats == nil || !stats.Gzip ||
		stats.WireBytes != run.StoredBytes || stats.RawBytes != run.RawBytes {
		t.Fatalf("LoadTraceStats: P=%d stats=%+v", fTrace.P, stats)
	}
}

func TestListEndpoint(t *testing.T) {
	a, srv := newTestServer(t, Options{}, ServerOptions{})
	for i := uint64(0); i < 3; i++ {
		if _, _, err := a.Ingest(tracegen.SendRecvTrace(8, "PHASE", 40, 10+i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := a.Ingest(tracegen.SendRecvTrace(4, "LU", 40, 20)); err != nil {
		t.Fatal(err)
	}

	get := func(query string) (int, []Run) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/runs" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /runs%s: %s", query, resp.Status)
		}
		var out struct {
			Total int   `json:"total"`
			Runs  []Run `json:"runs"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out.Total, out.Runs
	}

	if total, runs := get(""); total != 4 || len(runs) != 4 {
		t.Fatalf("list all: %d/%d", len(runs), total)
	}
	if total, runs := get("?benchmark=PHASE&limit=2"); total != 3 || len(runs) != 2 {
		t.Fatalf("list PHASE limit 2: %d/%d", len(runs), total)
	}
	if total, _ := get("?p=4"); total != 1 {
		t.Fatalf("list p=4: %d", total)
	}
	_, all := get("")
	sigRun := all[0]
	if total, runs := get("?sig=" + "0x" + strings.ToLower(hexSig(sigRun.Sigs[0]))); total != 1 || runs[0].ID != sigRun.ID {
		t.Fatalf("list by sig: total=%d", total)
	}

	resp, err := http.Get(srv.URL + "/runs?limit=bogus")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad limit: %s, want 400", resp.Status)
	}
}

func hexSig(s uint64) string {
	const digits = "0123456789abcdef"
	out := make([]byte, 0, 16)
	for i := 60; i >= 0; i -= 4 {
		out = append(out, digits[(s>>uint(i))&0xf])
	}
	return string(out)
}

func TestDiffEndpoint(t *testing.T) {
	a, srv := newTestServer(t, Options{}, ServerOptions{})
	same1, _, err := a.Ingest(tracegen.SendRecvTrace(8, "PHASE", 40, 30))
	if err != nil {
		t.Fatal(err)
	}
	// Same structure re-ingested dedups, so diff a run against itself
	// and against a structurally different one.
	other, _, err := a.Ingest(tracegen.SendRecvTrace(8, "PHASE", 40, 31))
	if err != nil {
		t.Fatal(err)
	}

	var d DiffResponse
	resp, err := http.Get(srv.URL + "/runs/" + same1.ID + "/diff/" + same1.ID)
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&d)
	resp.Body.Close()
	if err != nil || !d.Equivalent {
		t.Fatalf("self-diff: err=%v equivalent=%v reason=%q", err, d.Equivalent, d.Reason)
	}

	resp, err = http.Get(srv.URL + "/runs/" + same1.ID + "/diff/" + other.ID)
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&d)
	resp.Body.Close()
	if err != nil || d.Equivalent || d.Reason == "" {
		t.Fatalf("cross-diff: err=%v equivalent=%v reason=%q", err, d.Equivalent, d.Reason)
	}
}

func TestMaxBodyLimit(t *testing.T) {
	_, srv := newTestServer(t, Options{}, ServerOptions{MaxBodyBytes: 64})
	payload, _, _ := Encode(tracegen.SendRecvTrace(8, "PHASE", 40, 40))
	resp, _ := putTrace(t, srv.URL, payload, false)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize PUT: %s, want 413", resp.Status)
	}
}

func TestBadPayloadRejected(t *testing.T) {
	_, srv := newTestServer(t, Options{}, ServerOptions{})
	resp, _ := putTrace(t, srv.URL, []byte("not a trace at all"), false)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage PUT: %s, want 400", resp.Status)
	}
}

// TestHugeRankCountRejected: a 19-byte payload that claims 2^40 ranks
// is refused at the PUT, so no stats query ever sizes a per-rank table
// by it.
func TestHugeRankCountRejected(t *testing.T) {
	_, srv := newTestServer(t, Options{}, ServerOptions{})
	payload := binary.AppendUvarint([]byte("CHAMTRC2"), 1<<40)
	payload = append(payload, 0, 0, 0, 0, 0) // flags, benchmark, tracer, no sites, no nodes
	if len(payload) != 19 {
		t.Fatalf("payload is %d bytes, want 19", len(payload))
	}
	resp, _ := putTrace(t, srv.URL, payload, false)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("PUT of P=2^40: %s, want 400", resp.Status)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	a, err := Open(t.TempDir(), Options{Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	srv := httptest.NewServer(NewServer(a, ServerOptions{Metrics: true, Reg: reg}))
	defer srv.Close()

	payload, _, _ := Encode(tracegen.SendRecvTrace(8, "PHASE", 40, 50))
	if resp, _ := putTrace(t, srv.URL, payload, false); resp.StatusCode != http.StatusCreated {
		t.Fatal("seed ingest failed")
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{"store_ingests 1", "chamd_ingest_requests 1", "chamd_latency_ns_count"} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics text missing %q:\n%s", want, text)
		}
	}

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/metrics", nil)
	req.Header.Set("Accept", "application/json")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil || snap.Counters["store_ingests"] != 1 {
		t.Fatalf("metrics JSON: err=%v counters=%v", err, snap.Counters)
	}

	// Without the flag the route does not exist.
	srv2 := httptest.NewServer(NewServer(a, ServerOptions{Reg: reg}))
	defer srv2.Close()
	resp, err = http.Get(srv2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("metrics without -metrics: %s, want 404", resp.Status)
	}
}

func TestHealthz(t *testing.T) {
	_, srv := newTestServer(t, Options{}, ServerOptions{})
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", resp.Status)
	}
}

func TestPushClient(t *testing.T) {
	a, srv := newTestServer(t, Options{}, ServerOptions{})
	f := tracegen.SendRecvTrace(8, "PHASE", 40, 60)

	run, created, err := Push(srv.URL, f, true)
	if err != nil || !created {
		t.Fatalf("push: created=%v err=%v", created, err)
	}
	if a.Len() != 1 {
		t.Fatal("push did not ingest")
	}
	_, created, err = Push(srv.URL+"/runs", f, false) // trailing /runs accepted, plain body
	if err != nil || created {
		t.Fatalf("re-push: created=%v err=%v (want dedup)", created, err)
	}

	got, err := LoadTrace(srv.URL + "/runs/" + run.ID)
	if err != nil {
		t.Fatal(err)
	}
	_, gotID, _ := Encode(got)
	if gotID != run.ID {
		t.Fatal("fetched trace does not round-trip to the pushed address")
	}
}

func TestStatsEndpoint(t *testing.T) {
	a, srv := newTestServer(t, Options{}, ServerOptions{})
	f := tracegen.SendRecvTrace(8, "PHASE", 40, 3)
	run, _, err := a.Ingest(f)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/runs/" + run.ID + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("stats GET: %s: %s", resp.Status, msg)
	}
	var out StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.ID != run.ID {
		t.Errorf("stats ID = %s, want %s", out.ID, run.ID)
	}
	// tracegen.SendRecvTrace: loop(40){Send, Recv} + Allreduce over 8 ranks.
	wantEvents := uint64((40*2 + 1) * 8)
	if out.Report == nil || out.Report.Events != wantEvents {
		t.Fatalf("stats report events = %+v, want %d", out.Report, wantEvents)
	}
	if out.Report.P != 8 || len(out.Report.Windows) != 2 {
		t.Errorf("report shape: P=%d windows=%d, want 8/2", out.Report.P, len(out.Report.Windows))
	}
	if !out.Report.Match.Consistent {
		t.Errorf("ring trace must be match-consistent: %+v", out.Report.Match)
	}

	// Prefix resolution and error mapping follow the other run routes.
	resp2, err := http.Get(srv.URL + "/runs/" + run.ID[:12] + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("prefix stats GET: %s", resp2.Status)
	}
	resp3, err := http.Get(srv.URL + "/runs/deadbeef/stats")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Errorf("missing run stats GET: %s, want 404", resp3.Status)
	}

	// The client helper round-trips the same report.
	got, err := FetchStats(srv.URL, run.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Report.Events != wantEvents {
		t.Errorf("FetchStats events = %d, want %d", got.Report.Events, wantEvents)
	}
}

// The /stats reply changed shape (rank classes instead of one row per
// rank), so its ETag changed too: a client that cached the per-rank
// shape under the old "stats-<id>" gets the new report, not a 304; one
// holding the new tag gets its 304.
func TestStatsETagNamesTheReportShape(t *testing.T) {
	a, srv := newTestServer(t, Options{}, ServerOptions{})
	run, _, err := a.Ingest(tracegen.SendRecvTrace(8, "PHASE", 40, 3))
	if err != nil {
		t.Fatal(err)
	}
	get := func(etag string) (*http.Response, []byte) {
		req, err := http.NewRequest(http.MethodGet, srv.URL+"/runs/"+run.ID+"/stats", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("If-None-Match", etag)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}
	resp, body := get(`"stats-` + run.ID + `"`)
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"rank_classes"`)) {
		t.Fatalf("GET with the old ETag: %s, body %.80s; want 200 with rank_classes", resp.Status, body)
	}
	etag := resp.Header.Get("ETag")
	if etag == `"stats-`+run.ID+`"` || !strings.Contains(etag, run.ID) {
		t.Fatalf("ETag %s, want a versioned tag of %s", etag, run.ID)
	}
	if resp, _ := get(etag); resp.StatusCode != http.StatusNotModified {
		t.Fatalf("GET with the current ETag: %s, want 304", resp.Status)
	}
}

// waveEdges synthesizes an edge stream with a clean idle wave from
// origin, JSONL-encoded the way chamrun -edges-out writes it.
func waveEdges(t *testing.T, p, origin int) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	emit := func(e obs.Edge) {
		if err := enc.Encode(&e); err != nil {
			t.Fatal(err)
		}
	}
	ms := int64(1e6)
	for it := int64(0); it < 40; it++ { // jitter-scale background
		for r := 0; r < p; r++ {
			emit(obs.Edge{From: (r + 1) % p, To: r, RecvVT: it*2*ms + int64(r)*1000, WaitVT: 20_000 + int64(r)*500})
		}
	}
	for d := 0; d < p; d++ { // the wave front, both directions
		for _, r := range []int{origin - d, origin + d} {
			if r < 0 || r >= p {
				continue
			}
			emit(obs.Edge{From: origin, To: r, RecvVT: 100*ms + int64(d)*2*ms, WaitVT: 50 * ms})
		}
	}
	return buf.Bytes()
}

func TestEdgesAndWavesEndpoints(t *testing.T) {
	a, srv := newTestServer(t, Options{}, ServerOptions{})
	payload, id, err := Encode(tracegen.SendRecvTrace(8, "PHASE", 40, 1))
	if err != nil {
		t.Fatal(err)
	}
	if resp, _ := putTrace(t, srv.URL, payload, false); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT trace: %s", resp.Status)
	}

	// No sidecar yet: 404 on both edge routes.
	for _, path := range []string{"/edges", "/waves"} {
		resp, err := http.Get(srv.URL + "/runs/" + id + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s before push: %s, want 404", path, resp.Status)
		}
	}

	jsonl := waveEdges(t, 8, 3)
	if err := PushEdges(srv.URL, id, jsonl, true); err != nil {
		t.Fatalf("PushEdges: %v", err)
	}
	// Replacing the sidecar is idempotent.
	if err := PushEdges(srv.URL, id[:12], jsonl, false); err != nil {
		t.Fatalf("PushEdges by prefix: %v", err)
	}

	edges, err := FetchEdges(srv.URL, id)
	if err != nil {
		t.Fatalf("FetchEdges: %v", err)
	}
	want, _ := obs.ReadEdges(bytes.NewReader(jsonl))
	if len(edges) != len(want) {
		t.Fatalf("fetched %d edges, want %d", len(edges), len(want))
	}

	waves, err := FetchWaves(srv.URL, id, 0)
	if err != nil {
		t.Fatalf("FetchWaves: %v", err)
	}
	if waves.ID != id || waves.Report == nil {
		t.Fatalf("waves response: %+v", waves)
	}
	if len(waves.Report.Waves) != 1 || waves.Report.Waves[0].OriginRank != 3 {
		t.Fatalf("server-side detector: %+v", waves.Report.Waves)
	}

	// ?cols= switches the detector to grid (Manhattan) rank distance;
	// the report must still come back, and a bad value is a 400.
	if _, err := FetchWaves(srv.URL, id, 4); err != nil {
		t.Fatalf("FetchWaves cols=4: %v", err)
	}
	resp400, err := http.Get(srv.URL + "/runs/" + id + "/waves?cols=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp400.Body.Close()
	if resp400.StatusCode != http.StatusBadRequest {
		t.Fatalf("waves?cols=bogus: %s, want 400", resp400.Status)
	}

	// Garbage bodies are rejected.
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/runs/"+id+"/edges",
		strings.NewReader("{\"from\": not json\n"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad edge body: %s, want 400", resp.Status)
	}

	// Deleting the run orphans the sidecar; Compact reclaims it.
	if err := a.Delete(id); err != nil {
		t.Fatal(err)
	}
	removed, err := a.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if removed < 2 { // segment + sidecar
		t.Fatalf("compact removed %d files, want >= 2", removed)
	}
	if _, _, err := a.EdgesPayload(id); err == nil {
		t.Fatal("sidecar survived delete+compact")
	}
}
