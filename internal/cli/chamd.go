package cli

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"chameleon/internal/clock"
	"chameleon/internal/cq"
	"chameleon/internal/mesh"
	"chameleon/internal/obs"
	"chameleon/internal/store"
)

func chamd(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlags("chamd", stderr)
	addr := fs.String("addr", ":8321", "listen address")
	dir := fs.String("dir", "chameleon-store", "archive directory")
	gzipSegs := fs.Bool("gzip", false, "store segments gzip-compressed (and serve gzip transfers without recompressing)")
	metrics := fs.Bool("metrics", false, "expose the obs metrics registry at GET /metrics")
	journalOut := fs.String("journal-out", "", "append store journal events (JSONL) to this path")
	maxBodyMB := fs.Int64("max-body-mb", 64, "maximum PUT body size in MiB")
	reqTimeout := fs.Duration("timeout", 30*time.Second, "per-request handling timeout")
	compactEvery := fs.Duration("compact-every", 10*time.Minute, "background orphan-segment compaction period (0 = disabled)")
	liveHeartbeat := fs.Duration("live-heartbeat", 5*time.Second, "live sessions: missed-heartbeat threshold before a rank is flagged stalled")
	liveTTL := fs.Duration("live-ttl", 10*time.Minute, "live sessions: drop sessions idle longer than this")
	liveDesync := fs.Duration("live-desync", time.Millisecond, "live sessions: window-arrival skew before a contiguous rank band is flagged desynchronized (negative = disable)")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof and expvar on this side address")
	peers := fs.String("peers", "", "comma-separated peer URLs forming a federated mesh (must include -self)")
	self := fs.String("self", "", "this peer's own URL as listed in -peers")
	replicas := fs.Int("replicas", 2, "mesh replication factor R (clamped to the peer count)")
	meshSecret := fs.String("mesh-secret", os.Getenv("CHAMD_MESH_SECRET"),
		"shared key authenticating intra-mesh requests (default $CHAMD_MESH_SECRET; empty = cooperative trust, see docs/STORE.md)")
	rateLimit := fs.Float64("rate-limit", 0, "per-tenant request rate limit in req/s (0 = unlimited; breaches get 429 + Retry-After)")
	rateBurst := fs.Int("rate-burst", 0, "per-tenant rate-limit burst (default: the rate)")
	tenantQuotaMB := fs.Int64("tenant-quota-mb", 0, "per-tenant storage quota in MiB of raw trace bytes (0 = unlimited)")
	cqFile := fs.String("cq-file", "", "persist continuous-query registrations to this JSON file (default: <dir>/cq.json)")
	if err := parse(fs, args); err != nil {
		return err
	}

	// Shutdown is a cancelled context: SIGINT/SIGTERM for the binary, the
	// caller's cancel in-process. Returning cancels it too, which stops
	// the maintenance loop below.
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	reg := obs.NewRegistry()
	var journal *obs.Journal
	if *journalOut != "" {
		jf, err := os.OpenFile(*journalOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		defer jf.Close()
		journal = obs.NewJournal(jf)
	}

	// Federation: a -peers list turns this daemon into one peer of a
	// consistent-hash mesh (docs/STORE.md, "Federation").
	var node *mesh.Node
	if *peers != "" {
		if *self == "" {
			return usageError("-peers requires -self")
		}
		var err error
		node, err = mesh.NewNode(mesh.Options{
			Self:     *self,
			Peers:    strings.Split(*peers, ","),
			Replicas: *replicas,
			Secret:   *meshSecret,
			Reg:      reg,
		})
		if err != nil {
			return err
		}
	}

	archive, err := store.Open(*dir, store.Options{
		Gzip:       *gzipSegs,
		QuotaBytes: *tenantQuotaMB << 20,
		Reg:        reg,
		Journal:    journal,
	})
	if err != nil {
		return err
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
		return fmt.Errorf("cq: %w", err)
	}

	if *compactEvery > 0 {
		// The loop stops with ctx and is waited for before the archive
		// closes.
		done := make(chan struct{})
		go func() {
			defer close(done)
			maintain(ctx, clock.Real{}, *compactEvery, archive, node, engine)
		}()
		defer func() { stop(); <-done }()
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

	if *debugAddr != "" {
		defer serveDebug("chamd", *debugAddr, reg, stderr)()
		fmt.Fprintf(stdout, "chamd       debug http://%s/debug/pprof http://%s/debug/vars\n", *debugAddr, *debugAddr)
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

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(stdout, "chamd       serving %s on %s (%d runs, gzip=%v, compact-every=%v)\n",
		*dir, *addr, archive.Len(), *gzipSegs, *compactEvery)

	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			return fmt.Errorf("serve: %w", err)
		}
	case <-ctx.Done():
		fmt.Fprintln(stdout, "chamd       shutting down (draining in-flight requests)")
		shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
	}
	return nil
}

// maintain is chamd's one background loop: every period of clk it
// reclaims orphaned segments and then, in a mesh, runs one anti-entropy
// sweep, converging placement as often as orphans are reclaimed. It
// returns when ctx is done.
func maintain(ctx context.Context, clk clock.Clock, every time.Duration, a *store.Archive, node *mesh.Node, engine *cq.Engine) {
	clock.Every(ctx, clk, every, func() {
		a.Compact() //nolint:errcheck — the next period retries
		if node != nil {
			node.Sweep(a.MeshTarget(), engine) //nolint:errcheck — the next period retries
		}
	})
}
