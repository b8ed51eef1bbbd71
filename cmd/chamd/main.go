// Command chamd serves a persistent Chameleon trace archive over HTTP:
// a content-addressed, append-only store of compressed online traces,
// queryable across runs (see docs/STORE.md).
//
// Usage:
//
//	chamd -dir /var/lib/chameleon -addr :8321 -gzip -metrics
//
// Endpoints (the route table of internal/store/server.go; docs/STORE.md
// lists each with its request class and federation policy):
//
//	PUT  /runs                            ingest a trace (idempotent; ETag = content address)      [replicate]
//	GET  /runs                            list runs (benchmark=, p=, sig=, sigset=, limit=, offset=; default page 100, cap 500, "next" = following offset) [scatter]
//	GET  /runs/{id}                       fetch one run (binary, or ?format=json)                  [proxy-on-miss]
//	GET  /runs/{a}/diff/{b}               per-site divergence between two archived runs            [lookup]
//	GET  /runs/{id}/stats                 compressed-domain analysis report (ETag/If-None-Match)   [proxy-on-miss]
//	PUT  /runs/{id}/edges                 attach a causal edge sidecar (chamrun -push-edges)       [replicate]
//	GET  /runs/{id}/edges                 fetch a run's edge sidecar (JSONL)                       [proxy-on-miss]
//	GET  /runs/{id}/waves                 idle-wave detector report over the sidecar (ETag/If-None-Match) [proxy-on-miss]
//	PUT  /cq                              register a continuous-query regression gate              [broadcast]
//	GET  /cq                              list this tenant's gates (?all=1 intra-mesh)
//	DELETE /cq/{name}                     unregister a gate                                        [broadcast]
//	GET  /cq/events                       the gate event feed (?version= long-polls)
//	POST /cq/events                       intra-mesh event broadcast (trusted peers only; 403 at the edge)
//	GET  /mesh/manifest                   this peer's local holdings (anti-entropy)
//	GET  /mesh/status                     ring membership + per-tenant usage
//	POST /mesh/sweep                      trigger one anti-entropy sweep now
//	POST /live/sessions/{id}/deltas       ingest live telemetry deltas (chamrun -live)
//	GET  /live/sessions                   list in-flight sessions
//	GET  /live/sessions/{id}              one session's current view (?metrics=1)
//	GET  /live/sessions/{id}/watch        long-poll for the next version (chamtop -follow)
//	GET  /metrics                         Prometheus text (with -metrics; JSON via Accept)
//	GET  /healthz                         liveness probe
//
// Every route runs through one request pipeline — count, intra-mesh
// trust, tenant, rate limit, body cap + gzip, federation policy around
// a purely local handler, error-to-status, write, latency — so
// instrumentation, tenancy and throttling are never restated per route.
//
// Federation (docs/STORE.md, "Federation"): starting several daemons
// with the same -peers list (each naming itself via -self) makes them
// one logical archive — every run is placed on -replicas owners by
// consistent hashing over its content address, and the bracketed
// policies above apply to requests from outside the mesh (requests
// between peers are served strictly locally): PUT replicates, a GET
// miss proxies, GET /runs scatter-gathers, and anti-entropy sweeps (ridden
// on background compaction, or extra via -anti-entropy-every) repair
// any peer that missed writes while down. Requests are namespaced per
// tenant (X-Cham-Tenant header; tools take -tenant), with optional
// per-tenant storage quotas (-tenant-quota-mb) and token-bucket rate
// limits (-rate-limit/-rate-burst); either breach answers 429 +
// Retry-After at the edge. A -mesh-secret (or $CHAMD_MESH_SECRET),
// shared by every peer, authenticates intra-mesh traffic — without
// one, the X-Cham-Mesh loop-guard header is honored cooperatively and
// tenancy/rate limiting are not a security boundary. Continuous
// queries (PUT /cq) gate every ingest of a benchmark
// against a golden run via the chamstat diff engine and append
// regression/ok events to a long-pollable per-tenant feed.
//
// Producers push with `chamrun ... -push http://host:8321`; the analysis
// tools (chamstat, chamdump, chamreplay, chamextrap) accept
// http(s)://host/runs/{id} references wherever they take a trace path.
//
// Live telemetry (docs/OBSERVABILITY.md): runs started with
// `chamrun -live http://host:8321` stream sequence-numbered deltas here;
// the daemon tracks per-rank heartbeats and window progress, flags
// stragglers, stalls, and desynchronized rank bands (nascent idle
// waves) in flight, and `chamtop -follow` renders the view.
// -live-heartbeat, -live-ttl, and -live-desync tune the detectors.
//
// The daemon is hardened for unattended use: per-request timeouts,
// a PUT body cap, periodic background compaction of orphaned segments,
// graceful shutdown on SIGINT/SIGTERM (in-flight requests drain, the
// compactor stops, the manifest is already durable at every point), and
// -debug-addr serves net/http/pprof and expvar on a side listener.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"chameleon/internal/cq"
	"chameleon/internal/mesh"
	"chameleon/internal/obs"
	"chameleon/internal/store"
)

func main() {
	addr := flag.String("addr", ":8321", "listen address")
	dir := flag.String("dir", "chameleon-store", "archive directory")
	gzipSegs := flag.Bool("gzip", false, "store segments gzip-compressed (and serve gzip transfers without recompressing)")
	metrics := flag.Bool("metrics", false, "expose the obs metrics registry at GET /metrics")
	journalOut := flag.String("journal-out", "", "append store journal events (JSONL) to this path")
	maxBodyMB := flag.Int64("max-body-mb", 64, "maximum PUT body size in MiB")
	reqTimeout := flag.Duration("timeout", 30*time.Second, "per-request handling timeout")
	compactEvery := flag.Duration("compact-every", 10*time.Minute, "background orphan-segment compaction period (0 = disabled)")
	liveHeartbeat := flag.Duration("live-heartbeat", 5*time.Second, "live sessions: missed-heartbeat threshold before a rank is flagged stalled")
	liveTTL := flag.Duration("live-ttl", 10*time.Minute, "live sessions: drop sessions idle longer than this")
	liveDesync := flag.Duration("live-desync", time.Millisecond, "live sessions: window-arrival skew before a contiguous rank band is flagged desynchronized (negative = disable)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof and expvar on this side address")
	peers := flag.String("peers", "", "comma-separated peer URLs forming a federated mesh (must include -self)")
	self := flag.String("self", "", "this peer's own URL as listed in -peers")
	replicas := flag.Int("replicas", 2, "mesh replication factor R (clamped to the peer count)")
	meshSecret := flag.String("mesh-secret", os.Getenv("CHAMD_MESH_SECRET"),
		"shared key authenticating intra-mesh requests (default $CHAMD_MESH_SECRET; empty = cooperative trust, see docs/STORE.md)")
	antiEntropyEvery := flag.Duration("anti-entropy-every", 0, "extra anti-entropy sweep period (0 = sweep only with background compaction)")
	rateLimit := flag.Float64("rate-limit", 0, "per-tenant request rate limit in req/s (0 = unlimited; breaches get 429 + Retry-After)")
	rateBurst := flag.Int("rate-burst", 0, "per-tenant rate-limit burst (default: the rate)")
	tenantQuotaMB := flag.Int64("tenant-quota-mb", 0, "per-tenant storage quota in MiB of raw trace bytes (0 = unlimited)")
	cqFile := flag.String("cq-file", "", "persist continuous-query registrations to this JSON file (default: <dir>/cq.json)")
	flag.Parse()

	reg := obs.NewRegistry()
	var journal *obs.Journal
	if *journalOut != "" {
		jf, err := os.OpenFile(*journalOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal("journal: %v", err)
		}
		defer jf.Close()
		journal = obs.NewJournal(jf)
	}

	// Federation: a -peers list turns this daemon into one peer of a
	// consistent-hash mesh (docs/STORE.md, "Federation").
	var node *mesh.Node
	if *peers != "" {
		if *self == "" {
			fatal("-peers requires -self")
		}
		n, err := mesh.NewNode(mesh.Options{
			Self:     *self,
			Peers:    strings.Split(*peers, ","),
			Replicas: *replicas,
			Secret:   *meshSecret,
			Reg:      reg,
		})
		if err != nil {
			fatal("%v", err)
		}
		node = n
	}

	// sweep is installed once the archive and CQ engine exist; the
	// background compactor may tick before then.
	var sweep atomic.Value // of func()
	storeOpts := store.Options{
		Gzip:         *gzipSegs,
		QuotaBytes:   *tenantQuotaMB << 20,
		Reg:          reg,
		Journal:      journal,
		CompactEvery: *compactEvery,
	}
	if node != nil {
		// Anti-entropy rides the compaction cadence: converge placement
		// in the same breath that reclaims orphans.
		storeOpts.OnCompact = func() {
			if f, ok := sweep.Load().(func()); ok {
				f()
			}
		}
	}
	archive, err := store.Open(*dir, storeOpts)
	if err != nil {
		fatal("%v", err)
	}
	defer archive.Close()

	cqPath := *cqFile
	if cqPath == "" {
		cqPath = filepath.Join(*dir, "cq.json")
	}
	engine, err := cq.New(cq.Options{
		Lookup:  store.FedLookup(archive, node),
		Persist: cqPath,
		Origin:  *self,
		OnEvent: store.BroadcastCQEvents(node),
		Reg:     reg,
	})
	if err != nil {
		fatal("cq: %v", err)
	}
	if node != nil {
		sweep.Store(func() {
			node.Sweep(archive.MeshTarget(), engine) //nolint:errcheck — next sweep retries
		})
	}

	live := store.NewLive(store.LiveOptions{
		HeartbeatTimeout: *liveHeartbeat,
		SessionTTL:       *liveTTL,
		DesyncSkewNs:     liveDesync.Nanoseconds(),
		Reg:              reg,
	})

	handler := store.NewServer(archive, store.ServerOptions{
		MaxBodyBytes:   *maxBodyMB << 20,
		RequestTimeout: *reqTimeout,
		Metrics:        *metrics,
		Reg:            reg,
		Live:           live,
		Mesh:           node,
		CQ:             engine,
		RateLimit:      *rateLimit,
		RateBurst:      *rateBurst,
	})

	if node != nil && *antiEntropyEvery > 0 {
		ticker := time.NewTicker(*antiEntropyEvery)
		defer ticker.Stop()
		go func() {
			for range ticker.C {
				node.Sweep(archive.MeshTarget(), engine) //nolint:errcheck — next sweep retries
			}
		}()
	}

	if *debugAddr != "" {
		// pprof registers on the default mux, which the main server's own
		// handler never exposes — only this side listener serves it.
		expvar.Publish("chameleon", expvar.Func(func() any {
			return reg.Snapshot()
		}))
		go func() {
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "chamd: debug server: %v\n", err)
			}
		}()
		fmt.Printf("chamd       debug http://%s/debug/pprof http://%s/debug/vars\n", *debugAddr, *debugAddr)
	}

	srv := &http.Server{
		Addr:    *addr,
		Handler: handler,
		// The handler's own timeout bounds work per request; these bound
		// slow-loris reads and stuck writes at the connection level.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       5 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("chamd       serving %s on %s (%d runs, gzip=%v, compact-every=%v)\n",
		*dir, *addr, archive.Len(), *gzipSegs, *compactEvery)

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal("serve: %v", err)
		}
	case <-ctx.Done():
		fmt.Println("chamd       shutting down (draining in-flight requests)")
		shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			fatal("shutdown: %v", err)
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "chamd: "+format+"\n", args...)
	os.Exit(1)
}
