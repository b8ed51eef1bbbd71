package store

// The HTTP face of the archive: the handler cmd/chamd serves and the
// httptest harness exercises. One route table (routes) is driven by one
// request pipeline (ServeHTTP, serve, admit, bounded, write):
//
//	count -> trust -> tenant -> rate limit -> body cap + gzip
//	      -> [own goroutine, until RequestTimeout: federation policy -> handler]
//	      -> error-to-status (503 at the deadline) | JSON/ETag write -> class latency
//
// Handlers (handlers.go) are plain functions of the request, tenant
// resolved, over the local archive; they never touch metrics, response
// headers, or the mesh. They return values and never write, so serve is
// the only code that touches the ResponseWriter: it answers with the
// handler's value, or with a 503 when the handler has not returned by
// the request's deadline. A reply is built once: a JSON value is
// encoded into a pooled buffer and written with its Content-Length.
//
// Every run, live session, and query is namespaced by the X-Cham-Tenant
// header (default "default"); tenants are rate-limited (429 +
// Retry-After) and quota-bounded at this edge.
//
// When a mesh.Node is configured the federation layer (fed.go) wraps
// each handler in its route's policy: PUT replicates to the run's R
// owners, a GET miss proxies to a peer that has the run, GET /runs
// scatter-gathers the fleet. Intra-mesh traffic carries the X-Cham-Mesh
// header; that trust is evaluated once per request, and a trusted
// request skips the rate limit and the federation layer — it is served
// strictly locally, which is the loop guard. On a mesh started with a
// shared secret the header is only honored alongside the matching
// X-Cham-Mesh-Key, so external clients cannot claim intra-mesh trust;
// without a secret the header is cooperative (docs/STORE.md).
//
// Requests and responses speak optional gzip (Content-Encoding /
// Accept-Encoding); when the archive itself stores gzip segments a
// compressed GET streams the stored frame without recompressing.

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"chameleon/internal/cq"
	"chameleon/internal/mesh"
	"chameleon/internal/obs"
)

// ServerOptions harden and instrument the HTTP layer.
type ServerOptions struct {
	// MaxBodyBytes caps PUT bodies (after transfer decompression);
	// 0 means the 64 MiB default.
	MaxBodyBytes int64
	// RequestTimeout bounds one request's handling; 0 means 30s.
	RequestTimeout time.Duration
	// Metrics exposes the registry at GET /metrics.
	Metrics bool
	// Reg receives request counters and latency histograms (it may be
	// the same registry the archive reports into).
	Reg *obs.Registry
	// Live tracks in-flight sessions; nil builds a default tracker
	// reporting into Reg (live endpoints are always served).
	Live *Live
	// Mesh, when non-nil, federates this peer: PUT fan-out, GET proxy,
	// scatter-gather list, anti-entropy endpoints.
	Mesh *mesh.Node
	// CQ, when non-nil, serves the continuous-query endpoints and
	// evaluates registered gates on ingest.
	CQ *cq.Engine
	// RateLimit throttles each tenant to this many requests/second at
	// the edge (0 disables). Intra-mesh traffic is exempt.
	RateLimit float64
	// RateBurst is the token-bucket depth (default: RateLimit).
	RateBurst int
}

const (
	defaultMaxBody        = 64 << 20
	maxBodyPresize        = 1 << 20
	defaultRequestTimeout = 30 * time.Second

	// quotaRetryAfter is the Retry-After (seconds) of a 429 that is not
	// the rate limiter's: a quota frees up on delete + compaction, not on
	// a clock.
	quotaRetryAfter = "60"
)

// class groups routes for instrumentation: every request bumps its
// class's counter and observes its class's latency histogram (where the
// class has one) exactly once, whatever the outcome.
type class string

const (
	classIngest class = "ingest" // writes: traces, edge sidecars
	classQuery  class = "query"  // reads and continuous queries
	classLive   class = "live"   // in-flight session telemetry
	classMesh   class = "mesh"   // peer-to-peer and operator endpoints; not tenant-scoped
	classProbe  class = "probe"  // /healthz, /metrics: no tenant, never throttled
)

// scoped reports whether the class's routes act on one tenant's data,
// so an invalid X-Cham-Tenant is a 400.
func (c class) scoped() bool { return c == classIngest || c == classQuery || c == classLive }

// route is one row of the server's route table.
type route struct {
	pattern string // http.ServeMux pattern
	class   class
	// fed is the federation policy wrapped around handle when this peer
	// is part of a mesh (fed.go); nil means the route is served locally.
	fed func(*server, *route, *request) (any, error)
	// handle serves the request from the local archive alone.
	handle func(*server, *request) (any, error)
}

// routes is the route table. docs/STORE.md ("HTTP API") mirrors it.
func (s *server) routes() []route {
	rs := []route{
		{"PUT /runs", classIngest, (*server).replicateRun, (*server).putRun},
		{"GET /runs", classQuery, (*server).scatterList, (*server).listRuns},
		{"GET /runs/{id}", classQuery, (*server).proxyOnMiss, (*server).getRun},
		{"GET /runs/{id}/stats", classQuery, (*server).proxyOnMiss, (*server).getStats},
		{"PUT /runs/{id}/edges", classIngest, (*server).replicateEdges, (*server).putEdges},
		{"GET /runs/{id}/edges", classQuery, (*server).proxyOnMiss, (*server).getEdges},
		{"GET /runs/{id}/waves", classQuery, (*server).proxyOnMiss, (*server).getWaves},
		{"GET /runs/{a}/diff/{b}", classQuery, (*server).meshLookup, (*server).getDiff},
		{"POST /live/sessions/{id}/deltas", classLive, nil, (*server).postLiveDeltas},
		{"GET /live/sessions", classLive, nil, (*server).listLive},
		{"GET /live/sessions/{id}", classLive, nil, (*server).getLive},
		{"GET /live/sessions/{id}/watch", classLive, nil, (*server).watchLive},
		{"GET /mesh/manifest", classMesh, nil, (*server).getMeshManifest},
		{"GET /mesh/status", classMesh, nil, (*server).getMeshStatus},
		{"POST /mesh/sweep", classMesh, nil, (*server).postMeshSweep},
		{"GET /healthz", classProbe, nil, (*server).getHealthz},
	}
	if s.cq != nil {
		rs = append(rs,
			route{"PUT /cq", classQuery, (*server).broadcast, (*server).putCQ},
			route{"GET /cq", classQuery, nil, (*server).listCQ},
			route{"DELETE /cq/{name}", classQuery, (*server).broadcast, (*server).deleteCQ},
			route{"GET /cq/events", classQuery, nil, (*server).getCQEvents},
			route{"POST /cq/events", classMesh, nil, (*server).postCQEvent},
		)
	}
	if s.opts.Metrics {
		rs = append(rs, route{"GET /metrics", classProbe, nil, (*server).getMetrics})
	}
	return rs
}

type server struct {
	a       *Archive
	opts    ServerOptions
	live    *Live
	node    *mesh.Node // read by the federation layer (fed.go) and the /mesh/* handlers only
	cq      *cq.Engine
	limiter *rateLimiter
	lookup  cq.Lookup // run references resolved from this archive alone
	mux     *http.ServeMux

	mRequests, mErrors  *obs.Counter
	mBytesIn, mBytesOut *obs.Counter
	mThrottled          *obs.Counter
	mFanouts, mProxied  *obs.Counter
	mRecounts           *obs.Counter // partitions a listing's second round recounted
	hLatency            *obs.Histogram
	classReqs           map[class]*obs.Counter   // classes without an entry count nothing
	classLatency        map[class]*obs.Histogram // likewise
}

// NewServer builds the archive's HTTP handler: the route table behind
// the request pipeline, each request answered within RequestTimeout.
func NewServer(a *Archive, opts ServerOptions) http.Handler { return newServer(a, opts) }

func newServer(a *Archive, opts ServerOptions) *server {
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = defaultMaxBody
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = defaultRequestTimeout
	}
	if opts.Live == nil {
		opts.Live = NewLive(LiveOptions{Reg: opts.Reg})
	}
	s := &server{
		a:       a,
		opts:    opts,
		live:    opts.Live,
		node:    opts.Mesh,
		cq:      opts.CQ,
		limiter: newRateLimiter(a.clk, opts.RateLimit, opts.RateBurst),
		lookup:  FedLookup(a, nil),
		mux:     http.NewServeMux(),

		mRequests:  opts.Reg.Counter("chamd_requests"),
		mErrors:    opts.Reg.Counter("chamd_errors"),
		mBytesIn:   opts.Reg.Counter("chamd_bytes_in"),
		mBytesOut:  opts.Reg.Counter("chamd_bytes_out"),
		mThrottled: opts.Reg.Counter("chamd_throttled"),
		mFanouts:   opts.Reg.Counter("chamd_mesh_fanouts"),
		mProxied:   opts.Reg.Counter("chamd_mesh_proxied"),
		mRecounts:  opts.Reg.Counter("chamd_list_recounts"),
		hLatency:   opts.Reg.Histogram("chamd_latency_ns"),
		classReqs: map[class]*obs.Counter{
			classIngest: opts.Reg.Counter("chamd_ingest_requests"),
			classQuery:  opts.Reg.Counter("chamd_query_requests"),
			classLive:   opts.Reg.Counter("chamd_live_requests"),
		},
		classLatency: map[class]*obs.Histogram{
			classIngest: opts.Reg.Histogram("chamd_ingest_latency_ns"),
			classQuery:  opts.Reg.Histogram("chamd_query_latency_ns"),
		},
	}
	for _, rt := range s.routes() {
		rt := rt
		s.mux.HandleFunc(rt.pattern, func(w http.ResponseWriter, r *http.Request) { s.serve(w, r, &rt) })
	}
	return s
}

// ServeHTTP is the part of the pipeline every request passes, matched
// to a route or not: count it, time it, size its response.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now() // hLatency measures this process, not policy time
	s.mRequests.Inc()
	cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
	s.mux.ServeHTTP(cw, r)
	s.hLatency.Observe(time.Since(start).Nanoseconds())
	s.mBytesOut.Add(uint64(cw.bytes))
	if cw.status >= 400 {
		s.mErrors.Inc()
	}
}

// countingWriter tracks status and body bytes for instrumentation.
type countingWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (c *countingWriter) WriteHeader(code int) {
	c.status = code
	c.ResponseWriter.WriteHeader(code)
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.bytes += int64(n)
	return n, err
}

// copyBufs holds the buffers relayed bodies are copied through.
var copyBufs = sync.Pool{New: func() any { return new([32 << 10]byte) }}

// ReadFrom copies a relayed body to the response through a pooled
// buffer, and counts what it copied. Without it io.Copy allocates a
// buffer per relay; so does the response's own ReadFrom, which hands a
// body past its first 512 bytes to the connection's, and that copies a
// source that is neither a file nor a socket through a fresh 32 KB.
func (c *countingWriter) ReadFrom(r io.Reader) (int64, error) {
	buf := copyBufs.Get().(*[32 << 10]byte)
	defer copyBufs.Put(buf)
	n, err := io.CopyBuffer(struct{ io.Writer }{c.ResponseWriter}, r, buf[:])
	c.bytes += n
	return n, err
}

// request is what the pipeline hands a handler: the HTTP request plus
// what the stages before it established.
type request struct {
	r *http.Request
	// tenant is the validated X-Cham-Tenant ("default" when absent). On
	// routes that are not tenant-scoped an invalid one is not an error:
	// tenant is empty and badTenant says why.
	tenant    string
	badTenant error
	// trusted marks authenticated intra-mesh traffic: never throttled,
	// served strictly locally, allowed the mesh-internal views. repair
	// narrows that to an anti-entropy pull, whose ingests must not
	// re-fire continuous queries.
	trusted, repair bool
	body            []byte    // PUT/POST payload, capped and transfer-decoded
	lookup          cq.Lookup // resolves run references: locally, or mesh-wide under the meshLookup policy
	// lease is the claim on body's pooled bytes that serve holds until
	// the reply is written (readBody); nil when there is no body.
	lease *bodyBuf
	// run is a PUT /runs body made ingestible, once parse has run.
	run parsed
}

// parse makes the body ingestible (TenantView.parse), once: the
// replication policy needs the content address to place the run, the
// handler needs the rest to store it.
func (q *request) parse(tv TenantView) error {
	if q.run.id != "" {
		return nil
	}
	run, err := tv.parse(q.body)
	if err != nil {
		return failf(http.StatusBadRequest, "%v", err)
	}
	q.run = run
	return nil
}

// matches reports whether the client already holds the entity named by
// etag (If-None-Match), so the handler can answer notModified without
// computing the body.
func (q *request) matches(etag string) bool {
	match := q.r.Header.Get("If-None-Match")
	return match != "" && strings.Contains(match, etag)
}

// reply is a handler's answer when it is more than "200 + this value as
// JSON" (which a handler says by returning the value itself).
type reply struct {
	status int         // 0 means 200
	header http.Header // extra response headers, may be nil
	etag   string      // ETag, quotes included
	ctype  string      // Content-Type of a []byte or relayed body, unless header carries it
	// body is nil, a []byte written verbatim, an io.ReadCloser relayed
	// from a peer and closed once written (or dropped), or any other
	// value, sent as JSON.
	body any
}

func notModified(etag string) reply { return reply{status: http.StatusNotModified, etag: etag} }

// asReply lifts a handler's bare value into the reply it abbreviates.
func asReply(v any) reply {
	if rep, ok := v.(reply); ok {
		return rep
	}
	return reply{body: v}
}

// apiError is an error with an explicit HTTP status; everything else
// gets its status from statusOf's table.
type apiError struct {
	code int
	err  error
	// retryAfter is the Retry-After (seconds) of a 429; empty means
	// quotaRetryAfter.
	retryAfter string
}

func (e *apiError) Error() string { return e.err.Error() }
func (e *apiError) Unwrap() error { return e.err }

func failf(code int, format string, args ...any) error {
	return &apiError{code: code, err: fmt.Errorf(format, args...)}
}

// statusOf is the single error-to-status map.
func statusOf(err error) int {
	var ae *apiError
	switch {
	case errors.As(err, &ae):
		return ae.code
	case errors.Is(err, ErrQuotaExceeded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrNotFound), errors.Is(err, cq.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrAmbiguous):
		return http.StatusConflict
	}
	return http.StatusBadRequest
}

// errTimedOut answers a request whose handler missed its deadline.
var errTimedOut = failf(http.StatusServiceUnavailable, "request timed out")

// serve runs one matched request through the pipeline. Everything that
// touches w runs on this goroutine: the admission stages, and then the
// answer — the handler's, or a 503 at the request's deadline.
func (s *server) serve(w http.ResponseWriter, r *http.Request, rt *route) {
	start := time.Now() // classLatency measures this process, not policy time
	s.classReqs[rt.class].Inc()
	defer func() { s.classLatency[rt.class].Observe(time.Since(start).Nanoseconds()) }()

	q, err := s.admit(w, r, rt)
	var v any
	if err == nil {
		defer q.lease.Release() // after the reply below is written
		v, err = s.bounded(rt, q, start.Add(s.opts.RequestTimeout))
	}
	if err != nil {
		s.fail(w, err)
		return
	}
	s.write(w, asReply(v))
}

// fail answers err with its status and message.
func (s *server) fail(w http.ResponseWriter, err error) {
	code := statusOf(err)
	if code == http.StatusTooManyRequests {
		retry := quotaRetryAfter
		var ae *apiError
		if errors.As(err, &ae) && ae.retryAfter != "" {
			retry = ae.retryAfter
		}
		w.Header().Set("Retry-After", retry)
	}
	http.Error(w, "chamd: "+err.Error(), code)
}

// admit is the request half of the pipeline: establish who is asking,
// admit them, and read what they sent.
func (s *server) admit(w http.ResponseWriter, r *http.Request, rt *route) (*request, error) {
	q := &request{r: r, lookup: s.lookup}
	q.trusted, q.repair = s.trust(r)

	var err error
	if q.tenant, err = NormalizeTenant(r.Header.Get(mesh.HeaderTenant)); err != nil {
		if rt.class.scoped() {
			return nil, failf(http.StatusBadRequest, "%v", err)
		}
		q.badTenant = err
	} else if rt.class != classProbe && !q.trusted {
		if ok, wait := s.limiter.allow(q.tenant); !ok {
			s.mThrottled.Inc()
			return nil, &apiError{code: http.StatusTooManyRequests, err: errors.New("tenant rate limit exceeded"),
				retryAfter: strconv.Itoa(int(wait.Seconds() + 0.5))}
		}
	}

	if r.Method == http.MethodPut || r.Method == http.MethodPost {
		if q.lease, err = s.readBody(w, r); err != nil {
			return nil, err
		}
		q.body = q.lease.buf.Bytes()
	}
	return q, nil
}

// bounded hands q to the route's federation policy and handler on a
// goroutine of its own, and waits for their answer until deadline. At
// the deadline it gives up with errTimedOut; the handler runs on, and
// what it answers then is dropped (a relayed peer body is closed). The
// goroutine holds a reference on q's body until it returns, however
// long it outlives the 503. A panic in the handler is raised again
// here, where net/http recovers it, as http.TimeoutHandler does.
func (s *server) bounded(rt *route, q *request, deadline time.Time) (any, error) {
	wait := time.Until(deadline)
	if wait <= 0 { // the body took the whole bound to arrive
		return nil, errTimedOut
	}
	type answer struct {
		v     any
		err   error
		panic any
	}
	done, gone := make(chan answer), make(chan struct{})
	q.lease.Retain()
	go func() {
		defer q.lease.Release()
		var a answer
		defer func() {
			if p := recover(); p != nil {
				a = answer{panic: p}
			}
			select {
			case done <- a:
			case <-gone:
				if rc, ok := asReply(a.v).body.(io.Closer); ok {
					rc.Close()
				}
			}
		}()
		a.v, a.err = s.federate(rt, q)
	}()
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case a := <-done:
		if a.panic != nil {
			panic(a.panic)
		}
		return a.v, a.err
	case <-timer.C:
		close(gone)
		return nil, errTimedOut
	}
}

// bodyBuf is a request body read into a pooled buffer and shared by
// reference count. Its holders are serve, until the reply is written;
// bounded's handler goroutine, until it returns, even when that is after
// its 503; and every reader of it a mesh call hands the transport, until
// the transport closes that reader (mesh.Call.Lease). The last to let go
// puts the buffer back, unless it grew past maxBodyPresize. A reference
// that is never given back only loses the buffer to the pool: it is
// never reused early.
type bodyBuf struct {
	buf  bytes.Buffer
	refs atomic.Int32
}

var bodyBufs = sync.Pool{New: func() any { return new(bodyBuf) }}

// poisonReleased, when set (tests), overwrites a body's bytes when its
// last holder lets go, so a reader that outlived its reference reads
// garbage rather than, some other time, the next request's body.
var poisonReleased atomic.Bool

// Retain takes a reference on b (none on nil).
func (b *bodyBuf) Retain() {
	if b != nil {
		b.refs.Add(1)
	}
}

// Release gives a reference back.
func (b *bodyBuf) Release() {
	if b == nil {
		return
	}
	switch n := b.refs.Add(-1); {
	case n > 0:
		return
	case n < 0:
		panic("store: request body released more often than retained")
	}
	if poisonReleased.Load() {
		p := b.buf.Bytes()
		p = p[:cap(p)]
		for i := range p {
			p[i] = 0xA5
		}
	}
	if b.buf.Cap() <= maxBodyPresize {
		b.buf.Reset()
		bodyBufs.Put(b)
	}
}

// readBody drains a possibly-gzipped request body under the size cap
// into a pooled buffer, and hands the caller the one reference on it.
func (s *server) readBody(w http.ResponseWriter, r *http.Request) (*bodyBuf, error) {
	// The cap tells the response underneath, not the counting wrapper,
	// to close the connection once a body overruns it.
	if cw, ok := w.(*countingWriter); ok {
		w = cw.ResponseWriter
	}
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	defer body.Close()
	var in io.Reader = body
	presize := 0
	switch enc := r.Header.Get("Content-Encoding"); enc {
	case "", "identity":
		// A body that states its length is read into one buffer of that
		// size rather than grown to it. The length is the client's claim,
		// so what it may reserve up front is capped.
		if r.ContentLength > 0 {
			presize = int(min(r.ContentLength, maxBodyPresize)) + bytes.MinRead
		}
	case "gzip":
		zr, err := gzip.NewReader(body)
		if err != nil {
			return nil, failf(http.StatusBadRequest, "gzip body: %v", err)
		}
		defer zr.Close()
		in = zr
	default:
		return nil, failf(http.StatusUnsupportedMediaType, "unsupported Content-Encoding %q", enc)
	}
	b := bodyBufs.Get().(*bodyBuf)
	b.refs.Store(1)
	b.buf.Grow(presize)
	if _, err := b.buf.ReadFrom(in); err != nil {
		b.Release()
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, failf(http.StatusRequestEntityTooLarge, "body exceeds %d bytes", s.opts.MaxBodyBytes)
		}
		return nil, failf(http.StatusBadRequest, "read body: %v", err)
	}
	s.mBytesIn.Add(uint64(b.buf.Len()))
	return b, nil
}

// jsonBufs holds the buffers JSON replies are encoded into. A buffer
// that grew past maxBodyPresize for one large reply is not kept.
var jsonBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// write is the response half of the pipeline. Every body is written
// once: a JSON value is encoded whole into a pooled buffer first, so it
// goes out with its Content-Length (and a value that cannot be encoded
// is a 500, not a truncated 200).
func (s *server) write(w http.ResponseWriter, rep reply) {
	var body []byte
	var relay io.ReadCloser
	switch b := rep.body.(type) {
	case nil:
	case []byte:
		body = b
	case io.ReadCloser:
		relay = b
		defer relay.Close()
	default:
		buf := jsonBufs.Get().(*bytes.Buffer)
		defer func() {
			if buf.Cap() <= maxBodyPresize {
				buf.Reset()
				jsonBufs.Put(buf)
			}
		}()
		if err := json.NewEncoder(buf).Encode(b); err != nil {
			s.fail(w, failf(http.StatusInternalServerError, "encode reply: %v", err))
			return
		}
		body, rep.ctype = buf.Bytes(), "application/json"
	}
	h := w.Header()
	for k, vs := range rep.header {
		h[k] = vs
	}
	if rep.etag != "" {
		h.Set("ETag", rep.etag)
	}
	if rep.ctype != "" {
		h.Set("Content-Type", rep.ctype)
	}
	if body != nil {
		h.Set("Content-Length", strconv.Itoa(len(body)))
	}
	if rep.status != 0 {
		w.WriteHeader(rep.status)
	}
	var err error
	switch {
	case relay != nil:
		_, err = io.Copy(w, relay)
	case body != nil:
		_, err = w.Write(body)
	}
	if err != nil {
		s.mErrors.Inc() // too late for a status, not for the books
	}
}
