package store

// The local handlers behind the route table (server.go): each answers
// one route from this peer's archive, live tracker, and CQ engine alone,
// returning a value (sent as 200 + JSON), a reply, or an error for the
// pipeline's status map. Federation wraps them from outside (fed.go).

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"chameleon/internal/analysis"
	"chameleon/internal/cq"
	"chameleon/internal/mesh"
	"chameleon/internal/obs"
	"chameleon/internal/wave"
	"chameleon/internal/zan"
)

const (
	// defaultListLimit is the page size GET /runs uses when the client
	// sends no limit; maxListLimit is the server-side cap a client
	// cannot exceed. Intra-mesh reads are uncapped — an edge asks each
	// peer for its newest offset+limit matches, however many that is.
	defaultListLimit = 100
	maxListLimit     = 500
)

func (s *server) putRun(q *request) (any, error) {
	tv := s.a.Tenant(q.tenant)
	if err := q.parse(tv); err != nil {
		return nil, err
	}
	run, created, err := tv.ingest(&q.run)
	if err != nil {
		return nil, err
	}
	// Gates fire once per new run, on its primary owner. Repair ingests
	// skip them: anti-entropy must converge replicas without re-firing.
	if created && !q.repair && s.cq != nil && s.primary(run.ID) {
		s.cq.Evaluate(q.tenant, run.ID, run.Benchmark, run.P)
	}
	rep := reply{
		etag:   `"` + run.ID + `"`,
		header: http.Header{"Location": {"/runs/" + run.ID}},
		body:   run,
	}
	if created {
		rep.status = http.StatusCreated
	}
	return rep, nil
}

func (s *server) getRun(q *request) (any, error) {
	tv := s.a.Tenant(q.tenant)
	run, err := tv.Resolve(q.r.PathValue("id"))
	if err != nil {
		return nil, err
	}
	etag := `"` + run.ID + `"`
	if q.matches(etag) {
		return notModified(etag), nil
	}

	if q.r.URL.Query().Get("format") == "json" || strings.Contains(q.r.Header.Get("Accept"), "application/json") {
		f, _, err := tv.Get(run.ID)
		if err != nil {
			return nil, failf(http.StatusInternalServerError, "%v", err)
		}
		var buf bytes.Buffer
		if err := f.Write(&buf); err != nil {
			return nil, failf(http.StatusInternalServerError, "%v", err)
		}
		return reply{etag: etag, ctype: "application/json", body: buf.Bytes()}, nil
	}

	rep := reply{etag: etag, ctype: "application/octet-stream", header: http.Header{
		"X-Raw-Bytes":    {strconv.FormatInt(run.RawBytes, 10)},
		"X-Stored-Bytes": {strconv.FormatInt(run.StoredBytes, 10)},
	}}
	var payload []byte
	if run.Gzip && strings.Contains(q.r.Header.Get("Accept-Encoding"), "gzip") {
		// The segment is already a gzip frame; stream it as the
		// transfer encoding without recompressing.
		payload, _, err = tv.StoredPayload(run.ID)
		rep.header.Set("Content-Encoding", "gzip")
	} else {
		payload, _, err = tv.Payload(run.ID)
	}
	if err != nil {
		return nil, failf(http.StatusInternalServerError, "%v", err)
	}
	rep.body = payload
	return rep, nil
}

// ListResponse is the JSON shape of GET /runs. Next, when present, is
// the offset of the page after this one; its absence means the listing
// is exhausted. Partial, when present, names the mesh peers that did not
// answer: the page and the total then cover the rest of the mesh only.
// A server fills Runs with the records its index lends
// (TenantView.match), so nothing may write through them.
type ListResponse struct {
	Total   int      `json:"total"`
	Offset  int      `json:"offset"`
	Next    int      `json:"next,omitempty"`
	Runs    []*Run   `json:"runs"`
	Partial []string `json:"partial,omitempty"`
}

// listQuery parses GET /runs parameters. An untrusted request gets the
// server-side page bounds: an unspecified limit becomes the documented
// default, an oversized one is clamped.
func listQuery(q *request) (Query, error) {
	params := q.r.URL.Query()
	out := Query{Benchmark: params.Get("benchmark"), SigSet: params.Get("sigset")}
	var err error
	if v := params.Get("p"); v != "" {
		if out.P, err = strconv.Atoi(v); err != nil {
			return out, failf(http.StatusBadRequest, "p: %v", err)
		}
	}
	if v := params.Get("sig"); v != "" {
		// Signatures print as hex (chamdump -sites); accept 0x-prefixed
		// hex, bare hex, or decimal.
		if out.Sig, err = parseSig(v); err != nil {
			return out, failf(http.StatusBadRequest, "sig: %v", err)
		}
	}
	if v := params.Get("limit"); v != "" {
		if out.Limit, err = strconv.Atoi(v); err != nil || out.Limit < 0 {
			return out, failf(http.StatusBadRequest, "limit: %q", v)
		}
	}
	if v := params.Get("offset"); v != "" {
		if out.Offset, err = strconv.Atoi(v); err != nil || out.Offset < 0 {
			return out, failf(http.StatusBadRequest, "offset: %q", v)
		}
	}
	if !q.trusted {
		switch {
		case out.Limit == 0:
			out.Limit = defaultListLimit
		case out.Limit > maxListLimit:
			out.Limit = maxListLimit
		}
	}
	return out, nil
}

func parseSig(v string) (uint64, error) {
	if strings.HasPrefix(v, "0x") || strings.HasPrefix(v, "0X") {
		return strconv.ParseUint(v[2:], 16, 64)
	}
	if n, err := strconv.ParseUint(v, 10, 64); err == nil {
		return n, nil
	}
	return strconv.ParseUint(v, 16, 64)
}

// listPage shapes one page of a listing.
func listPage(query Query, runs []*Run, total int) ListResponse {
	resp := ListResponse{Total: total, Offset: query.Offset, Runs: runs}
	if resp.Runs == nil {
		resp.Runs = []*Run{}
	}
	if next := query.Offset + len(runs); len(runs) > 0 && next < total {
		resp.Next = next
	}
	return resp
}

func (s *server) listRuns(q *request) (any, error) {
	query, err := listQuery(q)
	if err != nil {
		return nil, err
	}
	v := s.a.Tenant(q.tenant)
	if q.trusted && s.node != nil {
		return meshAnswer(v, s.node.Partition, query, q.r.URL.Query().Get("parts"))
	}
	runs, total := query.page(v.match(query))
	return listPage(query, runs, total), nil
}

// StatsResponse is the JSON shape of GET /runs/{id}/stats: the
// compressed-domain analysis report, computed in one walk over the
// stored bytes (zan.AnalyzeBytes) — the archive neither builds the RSD
// tree nor expands the trace or a rank list to serve it, and the report
// holds one row per rank class, not one per rank.
type StatsResponse struct {
	ID     string      `json:"id"`
	Report *zan.Report `json:"report"`
}

// statsShape versions the ETag of GET /runs/{id}/stats: the report is a
// pure function of the payload only for one shape of it, so a reply
// cached under an older shape (per-rank rows, the unversioned
// "stats-<id>") must not be answered 304.
const statsShape = "stats-v2-"

func (s *server) getStats(q *request) (any, error) {
	tv := s.a.Tenant(q.tenant)
	run, err := tv.Resolve(q.r.PathValue("id"))
	if err != nil {
		return nil, err
	}
	// The report is a pure function of the immutable payload, so the
	// content address, under the report's shape, is its ETag.
	etag := `"` + statsShape + run.ID + `"`
	if q.matches(etag) {
		return notModified(etag), nil
	}
	payload, _, err := tv.Payload(run.ID)
	if err != nil {
		return nil, err
	}
	rep, err := zan.AnalyzeBytes(payload, zan.Options{})
	if err != nil {
		return nil, fmt.Errorf("store: segment %s: %w", run.ID[:12], err)
	}
	return reply{etag: etag, body: StatsResponse{ID: run.ID, Report: rep}}, nil
}

// edgesResult is the JSON shape of PUT /runs/{id}/edges.
type edgesResult struct {
	ID    string `json:"id"`
	Edges int    `json:"edges"`
}

func (s *server) putEdges(q *request) (any, error) {
	n, run, err := s.a.Tenant(q.tenant).PutEdges(q.r.PathValue("id"), q.body)
	if err != nil {
		return nil, err
	}
	return edgesResult{ID: run.ID, Edges: n}, nil
}

func (s *server) getEdges(q *request) (any, error) {
	payload, _, err := s.a.Tenant(q.tenant).EdgesPayload(q.r.PathValue("id"))
	if err != nil {
		return nil, err
	}
	return reply{ctype: "application/x-ndjson", body: payload}, nil
}

// WavesResponse is the JSON shape of GET /runs/{id}/waves: the idle-wave
// detector report computed server-side over the run's edge sidecar.
type WavesResponse struct {
	ID     string       `json:"id"`
	Report *wave.Report `json:"report"`
}

func (s *server) getWaves(q *request) (any, error) {
	cols := 0
	if v := q.r.URL.Query().Get("cols"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return nil, failf(http.StatusBadRequest, "bad cols %q: want a non-negative integer", v)
		}
		cols = n
	}
	tv := s.a.Tenant(q.tenant)
	sidecar, run, err := tv.EdgesPayload(q.r.PathValue("id"))
	if err != nil {
		return nil, err
	}
	// Unlike the trace payload the sidecar is replaceable, so the ETag
	// must cover its bytes (plus the detector's cols knob), not just
	// the run identity.
	sum := sha256.New()
	fmt.Fprintf(sum, "%s|%d|", run.ID, cols)
	sum.Write(sidecar)
	etag := `"waves-` + hex.EncodeToString(sum.Sum(nil)[:16]) + `"`
	if q.matches(etag) {
		return notModified(etag), nil
	}
	rep, _, err := tv.Waves(run.ID, cols)
	if err != nil {
		return nil, err
	}
	return reply{etag: etag, body: WavesResponse{ID: run.ID, Report: rep}}, nil
}

// DiffResponse is the JSON shape of GET /runs/{a}/diff/{b}: the
// chamstat per-site divergence verdict computed server-side.
type DiffResponse struct {
	A              string           `json:"a"`
	B              string           `json:"b"`
	Equivalent     bool             `json:"equivalent"`
	Reason         string           `json:"reason,omitempty"`
	TolerateRanks  []int            `json:"tolerate_ranks,omitempty"`
	MissingInA     int              `json:"missing_in_a,omitempty"`
	MissingInB     int              `json:"missing_in_b,omitempty"`
	EventDeltas    map[string]int64 `json:"event_deltas,omitempty"`
	SiteCountDelta map[string]int64 `json:"site_count_deltas,omitempty"`
}

func (s *server) getDiff(q *request) (any, error) {
	fa, idA, err := q.lookup(q.tenant, q.r.PathValue("a"))
	if err != nil {
		return nil, err
	}
	fb, idB, err := q.lookup(q.tenant, q.r.PathValue("b"))
	if err != nil {
		return nil, err
	}

	tol, err := cq.TolerateRanks(q.r.URL.Query().Get("tolerate"), fa, fb)
	if err != nil {
		return nil, err
	}

	d := analysis.CompareWith(fa, fb, analysis.CompareOpts{TolerateRanks: tol})
	resp := DiffResponse{
		A:              idA,
		B:              idB,
		Equivalent:     d.Equivalent(),
		TolerateRanks:  tol,
		MissingInA:     len(d.MissingInA),
		MissingInB:     len(d.MissingInB),
		EventDeltas:    map[string]int64{}, // empty maps are omitted from the JSON
		SiteCountDelta: map[string]int64{},
	}
	if !d.Equivalent() {
		resp.Reason = d.Reason()
	}
	for rank, delta := range d.EventDeltas {
		resp.EventDeltas[strconv.Itoa(rank)] = delta
	}
	for site, delta := range d.SiteCountDeltas {
		resp.SiteCountDelta[fmt.Sprintf("%#x", site)] = delta
	}
	return resp, nil
}

func (s *server) getHealthz(*request) (any, error) {
	return reply{ctype: "text/plain; charset=utf-8", body: []byte("ok\n")}, nil
}

func (s *server) getMetrics(q *request) (any, error) {
	snap := s.opts.Reg.Snapshot()
	rep, render := reply{ctype: obs.PrometheusContentType}, snap.WritePrometheus
	if strings.Contains(q.r.Header.Get("Accept"), "application/json") {
		rep.ctype, render = "application/json", snap.WriteJSON
	}
	var buf bytes.Buffer
	if err := render(&buf); err != nil {
		return nil, failf(http.StatusInternalServerError, "%v", err)
	}
	rep.body = buf.Bytes()
	return rep, nil
}

// --- live telemetry endpoints ---

func (s *server) postLiveDeltas(q *request) (any, error) {
	var batch []obs.Delta
	if err := json.Unmarshal(q.body, &batch); err != nil {
		return nil, failf(http.StatusBadRequest, "delta batch: %v", err)
	}
	ackSeq, err := s.live.Apply(q.tenant, q.r.PathValue("id"), batch)
	if err != nil {
		return nil, err
	}
	return obs.Ack{AckSeq: ackSeq}, nil
}

func (s *server) listLive(q *request) (any, error) {
	return struct {
		Sessions []LiveSummary `json:"sessions"`
	}{s.live.List(q.tenant)}, nil // never nil: encodes as [] when empty
}

func (s *server) getLive(q *request) (any, error) {
	return s.live.View(q.tenant, q.r.PathValue("id"), q.r.URL.Query().Get("metrics") == "1")
}

func (s *server) watchLive(q *request) (any, error) {
	after, wait, err := s.longPoll(q)
	if err != nil {
		return nil, err
	}
	return s.live.Watch(q.tenant, q.r.PathValue("id"), after, wait)
}

// longPoll parses a long-poll's ?version= (0 when absent) and resolves
// its ?timeout= against the server's request timeout (serve answers 503
// at a request's deadline, so the poll must resolve inside it).
func (s *server) longPoll(q *request) (after uint64, wait time.Duration, err error) {
	params := q.r.URL.Query()
	if v := params.Get("version"); v != "" {
		if after, err = strconv.ParseUint(v, 10, 64); err != nil {
			return 0, 0, failf(http.StatusBadRequest, "version: %q", v)
		}
	}
	wait = s.opts.RequestTimeout * 3 / 4
	if v := params.Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return 0, 0, failf(http.StatusBadRequest, "timeout: %q", v)
		}
		if d < wait {
			wait = d
		}
	}
	return after, wait, nil
}

// --- continuous-query endpoints ---

// putCQ registers a gate. Under federation the stored spec — stamp
// included — is broadcast, so every peer can be the primary owner of a
// future ingest; anti-entropy re-syncs any peer that was down.
func (s *server) putCQ(q *request) (any, error) {
	var spec cq.Spec
	if err := json.Unmarshal(q.body, &spec); err != nil {
		return nil, failf(http.StatusBadRequest, "cq spec: %v", err)
	}
	spec.Tenant = q.tenant
	stored, err := s.cq.Register(spec)
	if err != nil {
		return nil, err
	}
	return reply{status: http.StatusCreated, body: stored}, nil
}

func (s *server) listCQ(q *request) (any, error) {
	if q.trusted && q.r.URL.Query().Get("all") == "1" {
		// Anti-entropy sync path: a sweeping peer needs every tenant's
		// registrations; external clients only ever see their own.
		return s.cq.All(), nil
	}
	return s.cq.List(q.tenant), nil
}

// deleteCQ retires a gate. Peers that miss the broadcast converge
// anyway: Delete leaves a tombstone whose stamp out-ranks the live
// spec, and the anti-entropy merge propagates it instead of
// resurrecting.
func (s *server) deleteCQ(q *request) (any, error) {
	if err := s.cq.Delete(q.tenant, q.r.PathValue("name")); err != nil {
		return nil, err
	}
	return reply{status: http.StatusNoContent}, nil
}

func (s *server) getCQEvents(q *request) (any, error) {
	if q.r.URL.Query().Get("version") == "" {
		return s.cq.Feed(q.tenant), nil
	}
	after, wait, err := s.longPoll(q)
	if err != nil {
		return nil, err
	}
	return s.cq.Watch(q.tenant, after, wait), nil
}

// postCQEvent receives a peer's event broadcast. Trusted-only
// (key-checked under -mesh-secret): external clients cannot forge feed
// entries on a secured mesh; without a secret the gate is cooperative
// (docs/STORE.md, "Trust model").
func (s *server) postCQEvent(q *request) (any, error) {
	if !q.trusted {
		return nil, failf(http.StatusForbidden, "cq event broadcast is mesh-internal")
	}
	var ev cq.Event
	if err := json.Unmarshal(q.body, &ev); err != nil {
		return nil, failf(http.StatusBadRequest, "cq event: %v", err)
	}
	s.cq.Append(ev)
	return reply{status: http.StatusNoContent}, nil
}

// --- mesh endpoints ---

func (s *server) getMeshManifest(q *request) (any, error) {
	entries := s.a.MeshTarget().Entries()
	if s.node != nil && s.node.Secured() && !q.trusted {
		// On a secured mesh the full cross-tenant manifest is reserved
		// for key-carrying peers; anyone else sees only their own
		// tenant's holdings.
		if q.badTenant != nil {
			return nil, failf(http.StatusBadRequest, "%v", q.badTenant)
		}
		scoped := entries[:0]
		for _, e := range entries {
			if e.Tenant == q.tenant {
				scoped = append(scoped, e)
			}
		}
		entries = scoped
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Tenant != entries[j].Tenant {
			return entries[i].Tenant < entries[j].Tenant
		}
		return entries[i].ID < entries[j].ID
	})
	return entries, nil
}

// MeshStatus is the JSON shape of GET /mesh/status.
type MeshStatus struct {
	Self     string           `json:"self,omitempty"`
	Peers    []string         `json:"peers,omitempty"`
	Replicas int              `json:"replicas,omitempty"`
	Runs     int              `json:"runs"`
	Tenants  map[string]int64 `json:"tenants,omitempty"` // tenant -> used raw bytes
}

func (s *server) getMeshStatus(*request) (any, error) {
	st := MeshStatus{Runs: s.a.Len(), Tenants: s.a.Usage()}
	if s.node != nil {
		st.Self = s.node.Self()
		st.Peers = s.node.Peers()
		st.Replicas = s.node.Replicas()
	}
	return st, nil
}

// sweepResult is the JSON shape of POST /mesh/sweep.
type sweepResult struct {
	mesh.SweepReport
	Error string `json:"error,omitempty"`
}

func (s *server) postMeshSweep(*request) (any, error) {
	if s.node == nil {
		return nil, failf(http.StatusNotFound, "this peer is not part of a mesh")
	}
	rep, err := s.node.Sweep(s.a.MeshTarget(), s.cq)
	out := sweepResult{SweepReport: rep}
	if err != nil {
		out.Error = err.Error()
	}
	return out, nil
}
