package store

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"chameleon/internal/cq"
	"chameleon/internal/mesh"
	"chameleon/internal/obs"
	"chameleon/internal/tracegen"
)

// conformanceRig is one server under test — the pipeline NewServer
// builds — beside two stub peers that only count the requests they
// receive (and answer 404).
type conformanceRig struct {
	s        *server
	reg      *obs.Registry
	eng      *cq.Engine
	peerHits *atomic.Int64
	runBody  []byte
	id       string // what fire puts for a route's run and session IDs
}

func newConformanceRig(t *testing.T, opts ServerOptions) *conformanceRig {
	t.Helper()
	rig := &conformanceRig{reg: obs.NewRegistry(), peerHits: new(atomic.Int64), id: "ffffffffffffffff"}
	urls := []string{"http://self.invalid"}
	for i := 0; i < 2; i++ {
		stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rig.peerHits.Add(1)
			http.NotFound(w, r)
		}))
		t.Cleanup(stub.Close)
		urls = append(urls, stub.URL)
	}
	node, err := mesh.NewNode(mesh.Options{Self: urls[0], Peers: urls, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	a := openTemp(t, Options{Reg: rig.reg})
	rig.eng, err = cq.New(cq.Options{Lookup: FedLookup(a, node)})
	if err != nil {
		t.Fatal(err)
	}
	opts.Reg, opts.Metrics, opts.Mesh, opts.CQ = rig.reg, true, node, rig.eng
	rig.s = NewServer(a, opts).(*server)
	if rig.runBody, _, err = Encode(tracegen.SendRecvTrace(4, "conformance", 40, 1)); err != nil {
		t.Fatal(err)
	}
	return rig
}

var pathParam = regexp.MustCompile(`\{[a-z]+\}`)

// fire sends one request matching the route's pattern, with a body the
// route's handler can parse.
func (rig *conformanceRig) fire(t *testing.T, rt route, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	method, path, _ := strings.Cut(rt.pattern, " ")
	path = strings.ReplaceAll(path, "{name}", "gate")
	path = pathParam.ReplaceAllString(path, rig.id)
	var body []byte
	switch rt.pattern {
	case "PUT /runs":
		body = rig.runBody
	case "PUT /runs/{id}/edges":
		body = []byte(`{"from":0,"to":1,"seq":1,"send_ns":100,"arrive_ns":200,"recv_ns":250}` + "\n")
	case "PUT /cq":
		body = []byte(`{"name":"gate","golden":"ffffffffffffffff"}`)
	case "DELETE /cq/{name}":
		// Something to delete, so the request gets past the local handler.
		if _, err := rig.eng.Register(cq.Spec{Tenant: "acme", Name: "gate", Golden: "ffffffffffffffff"}); err != nil {
			t.Fatal(err)
		}
	case "POST /cq/events":
		body = []byte(`{"id":"peer#1","tenant":"acme","verdict":"ok"}`)
	case "POST /live/sessions/{id}/deltas":
		body = []byte(`[]`)
	case "GET /live/sessions/{id}/watch":
		path += "?timeout=10ms" // the deltas route above created the session
	}
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	req.Header.Set(mesh.HeaderTenant, "acme")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	rig.s.ServeHTTP(rec, req)
	return rec
}

// TestRouteTableConformance ranges over the server's own route table, so
// a new route is held to the pipeline's contract by construction.
func TestRouteTableConformance(t *testing.T) {
	trusted := map[string]string{mesh.HeaderForward: mesh.ForwardFanout}

	t.Run("invalid tenant is 400 on every tenant-scoped route", func(t *testing.T) {
		rig := newConformanceRig(t, ServerOptions{})
		for _, rt := range rig.s.routes() {
			code := rig.fire(t, rt, map[string]string{mesh.HeaderTenant: ".."}).Code
			if rt.class.scoped() && code != http.StatusBadRequest {
				t.Errorf("%s: invalid tenant answered %d, want 400", rt.pattern, code)
			}
			if !rt.class.scoped() && code == http.StatusBadRequest {
				t.Errorf("%s: not tenant-scoped, yet an invalid tenant answered 400", rt.pattern)
			}
		}
	})

	t.Run("a drained bucket throttles every route but the probes", func(t *testing.T) {
		rig := newConformanceRig(t, ServerOptions{RateLimit: 0.001, RateBurst: 1})
		if code := rig.fire(t, route{pattern: "GET /runs"}, nil).Code; code != http.StatusOK {
			t.Fatalf("the request spending the only token: %d", code)
		}
		for _, rt := range rig.s.routes() {
			before := rig.reg.Snapshot().Counters["chamd_throttled"]
			rec := rig.fire(t, rt, nil)
			throttled := rig.reg.Snapshot().Counters["chamd_throttled"] - before
			if rt.class == classProbe {
				if rec.Code != http.StatusOK || throttled != 0 {
					t.Errorf("%s: probe answered %d, throttled +%d", rt.pattern, rec.Code, throttled)
				}
				continue
			}
			if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") == "" || throttled != 1 {
				t.Errorf("%s: %d, Retry-After %q, chamd_throttled +%d; want 429 with Retry-After, +1",
					rt.pattern, rec.Code, rec.Header().Get("Retry-After"), throttled)
			}
			// The mesh itself is never throttled.
			if code := rig.fire(t, rt, trusted).Code; code == http.StatusTooManyRequests {
				t.Errorf("%s: trusted intra-mesh request throttled", rt.pattern)
			}
		}
	})

	t.Run("a trusted request never leaves this peer", func(t *testing.T) {
		rig := newConformanceRig(t, ServerOptions{})
		federated := 0
		for _, rt := range rig.s.routes() {
			if rt.fed == nil {
				continue
			}
			federated++
			before := rig.peerHits.Load()
			rig.fire(t, rt, trusted)
			if n := rig.peerHits.Load() - before; n != 0 {
				t.Errorf("%s: trusted request made %d outbound peer requests", rt.pattern, n)
			}
			// Control: the same request from outside does reach the peers,
			// so the zero above is the loop guard and not a dead stub.
			rig.fire(t, rt, nil)
			if n := rig.peerHits.Load() - before; n == 0 {
				t.Errorf("%s: federated route made no outbound request for an external client", rt.pattern)
			}
		}
		if federated < 9 {
			t.Fatalf("only %d federated routes in the table", federated)
		}
	})

	t.Run("every outcome is counted and timed exactly once", func(t *testing.T) {
		rig := newConformanceRig(t, ServerOptions{})
		classCounters := map[class]string{
			classIngest: "chamd_ingest_requests", classQuery: "chamd_query_requests", classLive: "chamd_live_requests"}
		classHistograms := map[class]string{
			classIngest: "chamd_ingest_latency_ns", classQuery: "chamd_query_latency_ns"}
		for _, rt := range rig.s.routes() {
			// One request the handler sees (most answer 404 for the
			// made-up run), one the pipeline rejects before it.
			for _, hdr := range []map[string]string{nil, {mesh.HeaderTenant: ".."}} {
				before := rig.reg.Snapshot()
				code := rig.fire(t, rt, hdr).Code
				after := rig.reg.Snapshot()
				if d := after.Counters["chamd_requests"] - before.Counters["chamd_requests"]; d != 1 {
					t.Errorf("%s (%d): chamd_requests +%d", rt.pattern, code, d)
				}
				for c, name := range classCounters {
					want := uint64(0)
					if c == rt.class {
						want = 1
					}
					if d := after.Counters[name] - before.Counters[name]; d != want {
						t.Errorf("%s (%d): %s +%d, want +%d", rt.pattern, code, name, d, want)
					}
				}
				for c, name := range classHistograms {
					want := uint64(0)
					if c == rt.class {
						want = 1
					}
					if d := after.Histograms[name].Count - before.Histograms[name].Count; d != want {
						t.Errorf("%s (%d): %s observed %d times, want %d", rt.pattern, code, name, d, want)
					}
				}
			}
		}
	})

	t.Run("every JSON reply is one Encoder's output, with its length", func(t *testing.T) {
		rig := newConformanceRig(t, ServerOptions{})
		// Re-register the route table with each policy and handler
		// noting what it answered; the outermost one notes last, so
		// answer is the value the pipeline wrote.
		var answer any
		rig.s.mux = http.NewServeMux()
		for _, rt := range rig.s.routes() {
			rt := rt
			handle, fed := rt.handle, rt.fed
			rt.handle = func(s *server, q *request) (any, error) {
				v, err := handle(s, q)
				answer = v
				return v, err
			}
			if fed != nil {
				rt.fed = func(s *server, r *route, q *request) (any, error) {
					v, err := fed(s, r, q)
					answer = v
					return v, err
				}
			}
			rig.s.mux.HandleFunc(rt.pattern, func(w http.ResponseWriter, r *http.Request) { rig.s.serve(w, r, &rt) })
		}
		checked := 0
		// Plain, then asking for JSON (the run as JSON, the metrics as
		// JSON). The run pushed first is what every other route names.
		for _, hdr := range []map[string]string{nil, {"Accept": "application/json"}} {
			for _, rt := range rig.s.routes() {
				answer = nil
				rec := rig.fire(t, rt, hdr)
				got := rec.Result()
				if rt.pattern == "PUT /runs" {
					var run Run
					if err := json.Unmarshal(rec.Body.Bytes(), &run); err != nil || run.ID == "" {
						t.Fatalf("PUT /runs: %d %s", rec.Code, rec.Body)
					}
					rig.id = run.ID
				}
				if got.Header.Get("Content-Type") != "application/json" {
					continue
				}
				checked++
				if cl := got.Header.Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
					t.Errorf("%s (%d): Content-Length %q, body %d bytes", rt.pattern, rec.Code, cl, rec.Body.Len())
				}
				body := asReply(answer).body
				if _, raw := body.([]byte); raw || body == nil {
					continue // rendered by the handler, not encoded by the pipeline
				}
				var want bytes.Buffer
				if err := json.NewEncoder(&want).Encode(body); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
					t.Errorf("%s (%d): body\n%s\nis not json.Encoder's\n%s", rt.pattern, rec.Code, rec.Body, want.Bytes())
				}
			}
		}
		t.Logf("%d JSON replies checked", checked)
		if checked < 20 {
			t.Fatalf("only %d JSON replies checked", checked)
		}
	})
}
