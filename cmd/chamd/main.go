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
// miss proxies, GET /runs scatter-gathers, and anti-entropy sweeps (one
// after each -compact-every compaction, or POST /mesh/sweep) repair any
// peer that missed writes while down. Requests are namespaced per
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
// a PUT body cap, one maintenance loop that reclaims orphaned segments
// (and, in a mesh, sweeps) every -compact-every, graceful shutdown on
// SIGINT/SIGTERM (in-flight requests drain, the loop stops, the
// manifest is already durable at every point), and -debug-addr serves
// net/http/pprof and expvar on a side listener.
package main

import (
	"context"
	"os"

	"chameleon/internal/cli"
)

func main() {
	os.Exit(cli.Main(context.Background(), "chamd", os.Args[1:], os.Stdout, os.Stderr))
}
