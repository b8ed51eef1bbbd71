// Command chamrun traces one of the paper's benchmarks on the simulated
// MPI runtime and writes the resulting global trace file.
//
// Usage:
//
//	chamrun -bench LU -class D -p 64 -tracer chameleon -o lu.trace
//
// Tracers: none (timing only), scalatrace, chameleon, acurdion.
//
// Observability (see docs/OBSERVABILITY.md):
//
//	chamrun -bench PHASE -p 16 -metrics -journal -timeline
//
// -metrics prints a metrics snapshot after the run (JSON to a file via
// -metrics-out), -journal writes the structured JSONL event journal
// (path via -journal-out, summarized by chamtop), -timeline writes a
// Chrome trace-event JSON of per-rank virtual-time spans (path via
// -timeline-out) loadable in Perfetto or chrome://tracing, and
// -debug-addr serves net/http/pprof and expvar (including the live
// metrics snapshot under "chameleon") while the run executes.
//
// Causal tracing (-causal) records a matched send/recv edge for every
// message — point-to-point and every tree-collective hop — and writes
// them as JSONL (-edges-out) for chamtop -critical; combined with
// -timeline the Chrome trace gains flow events (Perfetto arrows) from
// each delaying send to the receive it blocked.
//
// Fault injection (see docs/FAULTS.md):
//
//	chamrun -bench PHASE -p 16 -faults 'crash rank=1 at marker=10' -fault-seed 7
//	chamrun -bench STENCIL -p 16 -faults @plan.json
//
// -faults takes an inline plan spec (or @file to load one); -fault-seed
// seeds the deterministic perturbation streams. Crash plans require the
// chameleon tracer (crashes fire at its markers).
//
// Noise plans (idle-wave studies, docs/OBSERVABILITY.md):
//
//	chamrun -bench STENCIL -p 16 -sync-every -1 -causal \
//	    -noise 'periodic ranks=5 start=400ms period=16ms extra=5ms count=10'
//
// -noise synthesizes a pulse-train fault plan from generator directives
// (periodic, resonant, random; see examples/noise/), reproducibly from
// -noise-seed, and merges it with -faults. -sync-every overrides a
// skeleton's built-in global synchronization period (negative disables
// it, letting idle waves propagate); -checkpoint-every injects a
// Recorder-style gather+IO checkpoint phase every N iterations.
// -push-edges uploads the causal edge stream as a sidecar of the pushed
// run so `chamd` serves GET /runs/{id}/waves (requires -causal -push).
//
// Multi-process fleets (see docs/ARCHITECTURE.md):
//
//	chamrun -bench STENCIL -p 8 -transport=tcp -join=:9307 -ranks=0..3 &
//	chamrun -bench STENCIL -p 8 -transport=tcp -join=:9307 -ranks=4..7
//
// -transport=tcp splits the world across OS processes: each invocation
// hosts the ranks named by -ranks, whichever process binds the -join
// address coordinates the rendezvous, and messages between processes
// cross real sockets. All members must pass identical run flags (the
// config fingerprint is checked at rendezvous). The member hosting
// rank 0 writes/pushes the merged trace; under -live every member
// ships its own telemetry deltas and chamd stitches them into one
// session.
//
// Trace archiving (see docs/STORE.md):
//
//	chamrun -bench PHASE -p 16 -push http://localhost:8321
//
// -push uploads the merged online trace to a chamd archive after the
// run; ingest is idempotent (content-addressed), so re-pushing an
// identical run stores nothing new.
package main

import (
	"bytes"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"sort"
	"strings"
	"time"

	"chameleon"
	"chameleon/internal/fleet"
	"chameleon/internal/mpi"
	"chameleon/internal/store"
)

func main() {
	bench := flag.String("bench", "LU", "benchmark: "+strings.Join(chameleon.Benchmarks(), ", "))
	class := flag.String("class", "D", "NPB input class (A-D)")
	p := flag.Int("p", 64, "number of ranks")
	tr := flag.String("tracer", "chameleon", "tracer: none, scalatrace, chameleon, acurdion")
	k := flag.Int("k", 0, "cluster budget K (0 = benchmark default)")
	freq := flag.Int("freq", 0, "marker frequency in timesteps (0 = benchmark default)")
	algo := flag.String("algo", "", "clustering algorithm: k-farthest, k-medoid, k-random")
	out := flag.String("o", "", "trace output path (empty = don't write)")
	useBinary := flag.Bool("binary", false, "write the trace in the compact binary format")
	push := flag.String("push", "", "after the run, upload the merged trace to this chamd archive URL")
	pushGzip := flag.Bool("push-gzip", true, "gzip the -push transfer")
	metrics := flag.Bool("metrics", false, "print a metrics snapshot after the run")
	metricsOut := flag.String("metrics-out", "", "also write the metrics snapshot as JSON to this path")
	journal := flag.Bool("journal", false, "write the structured JSONL event journal")
	journalOut := flag.String("journal-out", "chameleon.journal.jsonl", "journal output path")
	timeline := flag.Bool("timeline", false, "write a Chrome trace-event JSON timeline (Perfetto)")
	timelineOut := flag.String("timeline-out", "chameleon.trace.json", "timeline output path")
	causalFlag := flag.Bool("causal", false, "capture causal send/recv edges and write them as JSONL")
	edgesOut := flag.String("edges-out", "chameleon.edges.jsonl", "causal edge output path")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof and expvar on this address during the run")
	live := flag.String("live", "", "stream live telemetry deltas to this chamd URL during the run (watch with chamtop -follow)")
	liveInterval := flag.Duration("live-interval", 250*time.Millisecond, "live telemetry snapshot/ship period")
	liveSession := flag.String("live-session", "", "live session ID (default: random)")
	faults := flag.String("faults", "", "fault plan: inline spec, or @path to a plan file")
	faultSeed := flag.Uint64("fault-seed", 1, "seed for the fault injector's perturbation streams")
	noise := flag.String("noise", "", "noise-plan generator spec (periodic/resonant/random directives), merged with -faults")
	noiseSeed := flag.Uint64("noise-seed", 1, "seed for the -noise generators")
	syncEvery := flag.Int("sync-every", 0, "override the skeleton's global-sync period (0 = default, negative = disable)")
	checkpointEvery := flag.Int("checkpoint-every", 0, "inject a checkpoint (gather+IO) phase every N iterations")
	pushEdges := flag.Bool("push-edges", false, "also upload the causal edge stream as a sidecar of the pushed run (requires -causal and -push)")
	transport := flag.String("transport", "inproc", "rank transport: inproc (all P ranks in this process) or tcp (multi-process fleet)")
	join := flag.String("join", "", "tcp transport: rendezvous address (bind-or-dial; every fleet member passes the same address)")
	ranks := flag.String("ranks", "", `tcp transport: inclusive world-rank range hosted by this process ("lo..hi" or a single rank)`)
	crashExit := flag.Bool("crash-exit", true, "tcp transport: kill this process once all its ranks crash-stop (survivors journal the loss and fail over)")
	tenant := flag.String("tenant", "", "namespace requests to this archive tenant (X-Cham-Tenant header)")
	flag.Parse()
	if *tenant != "" {
		store.SetTenant(*tenant)
	}

	if *pushEdges && (*push == "" || !*causalFlag) {
		fatal("push-edges: requires both -causal and -push")
	}

	var plan *chameleon.FaultPlan
	if *faults != "" {
		var err error
		if (*faults)[0] == '@' {
			plan, err = chameleon.LoadFaultPlan((*faults)[1:])
		} else {
			plan, err = chameleon.ParseFaultPlan(*faults)
		}
		if err != nil {
			fatal("faults: %v", err)
		}
	}
	if *noise != "" {
		np, err := chameleon.ParseNoisePlan(*noise, *p, *noiseSeed)
		if err != nil {
			fatal("noise: %v", err)
		}
		if plan == nil {
			plan = np
		} else {
			plan.Merge(np)
		}
	}
	var injector *chameleon.FaultInjector
	if plan != nil {
		if plan.HasCrashes() && *tr != "chameleon" {
			fatal("faults: crash directives require -tracer chameleon (crashes fire at its markers)")
		}
		var err error
		injector, err = chameleon.NewFaultInjector(plan, *faultSeed, *p)
		if err != nil {
			fatal("faults: %v", err)
		}
	}

	// Fleet rendezvous happens before the observer exists so the crash
	// hook can flush whatever telemetry sinks get built below; the
	// closure reads shipper/journalFile at crash time, not now.
	var (
		journalFile *os.File
		shipper     *chameleon.LiveShipper
		fleetTr     *mpi.TCPTransport
		fleetInfo   mpi.FleetInfo
	)
	hostsRank0 := true // inproc hosts the whole world
	switch *transport {
	case "inproc":
		if *join != "" || *ranks != "" {
			fatal("transport: -join/-ranks require -transport=tcp")
		}
	case "tcp":
		if *ranks == "" {
			fatal("transport: -transport=tcp requires -ranks")
		}
		// Every member must run the identical configuration — the
		// fingerprint is compared at rendezvous so a mismatched fleet
		// fails fast instead of silently diverging.
		fp := fmt.Sprintf("bench=%s class=%s p=%d tracer=%s k=%d freq=%d algo=%s faults=%s noise=%s fseed=%d nseed=%d sync=%d ckpt=%d",
			*bench, *class, *p, *tr, *k, *freq, *algo, *faults, *noise,
			*faultSeed, *noiseSeed, *syncEvery, *checkpointEvery)
		var err error
		fleetTr, err = fleet.Connect(*ranks, mpi.TCPOptions{
			Join:        *join,
			P:           *p,
			Session:     *liveSession,
			Fingerprint: fp,
			ExitOnCrash: *crashExit,
			OnCrashExit: func() {
				// Last words before the self-kill: flush the live
				// shipper and the journal so watchers see the
				// crash-stop instead of a silent disappearance.
				if shipper != nil {
					shipper.Stop()
				}
				if journalFile != nil {
					journalFile.Sync()
				}
			},
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "chamrun: fleet: "+format+"\n", args...)
			},
		})
		if err != nil {
			fatal("transport: %v", err)
		}
		// The transport is closed by the runtime's Run lifecycle.
		fleetInfo = fleetTr.Info()
		hostsRank0 = fleetInfo.HostsRank0
		fmt.Printf("fleet       session %s, member %d of %d, hosting ranks %s\n",
			fleetInfo.Session, fleetInfo.Member, fleetInfo.Members, *ranks)
	default:
		fatal("transport: unknown transport %q (inproc or tcp)", *transport)
	}

	opts := chameleon.ObsOptions{
		Metrics: *metrics || *metricsOut != "" || *debugAddr != "" || *live != "",
	}
	if *live != "" {
		// Live telemetry needs the progress board and a journal tail ring
		// even when no journal file was requested.
		opts.ProgressRanks = *p
		opts.JournalRing = 1024
	}
	if *journal {
		f, err := os.Create(*journalOut)
		if err != nil {
			fatal("journal: %v", err)
		}
		journalFile = f
		opts.Journal = f
	}
	if *timeline {
		opts.TimelineRanks = *p
	}
	if *causalFlag {
		opts.CausalRanks = *p
	}
	observer := chameleon.NewObserver(opts)

	if *debugAddr != "" {
		expvar.Publish("chameleon", expvar.Func(func() any {
			return observer.Reg.Snapshot()
		}))
		go func() {
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "chamrun: debug server: %v\n", err)
			}
		}()
		fmt.Printf("debug       http://%s/debug/pprof http://%s/debug/vars\n", *debugAddr, *debugAddr)
	}

	if *live != "" {
		shipOpts := chameleon.LiveShipperOptions{
			URL:       *live,
			Session:   *liveSession,
			Benchmark: *bench,
			P:         *p,
			Interval:  *liveInterval,
		}
		if fleetTr != nil {
			// Each rank process ships its own independently-sequenced
			// delta stream; chamd attributes them all to the fleet
			// session, dedups per part, and only finalizes the session
			// once every member's final delta lands. The Ranks filter
			// keeps this member's zero rows from clobbering peers'
			// progress.
			shipOpts.Session = fleetInfo.Session
			shipOpts.Part = fmt.Sprintf("m%d", fleetInfo.Member)
			lo, hi, _ := fleet.ParseRanks(*ranks)
			for r := lo; r <= hi; r++ {
				shipOpts.Ranks = append(shipOpts.Ranks, r)
			}
		}
		var err error
		shipper, err = chameleon.NewLiveShipper(observer, shipOpts)
		if err != nil {
			fatal("live: %v", err)
		}
		shipper.Start()
		fmt.Printf("live        %s/live/sessions/%s (every %v; chamtop -follow %s -session %s)\n",
			strings.TrimSuffix(*live, "/"), shipper.Session(), *liveInterval, *live, shipper.Session())
	}

	override := &chameleon.Config{
		K: *k, Freq: *freq, Algo: *algo, Obs: observer, Fault: injector,
		SyncEvery: *syncEvery, CheckpointEvery: *checkpointEvery,
	}
	if fleetTr != nil {
		override.Transport = fleetTr
	}
	res, err := chameleon.RunBenchmark(*bench, *class, *p, chameleon.Tracer(*tr), override)
	if shipper != nil {
		// Flush the final delta even when the run failed, so watchers see
		// the ending either way.
		if serr := shipper.Stop(); serr != nil {
			fmt.Fprintf(os.Stderr, "chamrun: live: %v\n", serr)
		} else {
			st := shipper.Stats()
			fmt.Printf("live        shipped %d deltas in %d posts (%d B; errors=%d dropped=%d)\n",
				st.Deltas, st.Posts, st.BytesOut, st.Errors, st.Dropped)
		}
	}
	if err != nil {
		fatal("%v", err)
	}

	fmt.Printf("benchmark   %s class %s, P=%d, tracer=%s\n", *bench, *class, *p, *tr)
	fmt.Printf("makespan    %v (virtual)\n", res.Time)
	fmt.Printf("overhead    %v aggregate across ranks\n", res.Overhead)
	keys := make([]string, 0, len(res.OverheadBy))
	for k := range res.OverheadBy {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-10s %v\n", k, res.OverheadBy[k])
	}
	if len(res.StateCalls) > 0 {
		fmt.Printf("states      AT=%d C=%d L=%d F=%d (re-clusterings: %d, call-paths: %d)\n",
			res.StateCalls["AT"], res.StateCalls["C"], res.StateCalls["L"], res.StateCalls["F"],
			res.Reclusterings, res.CallPathClusters)
		fmt.Printf("leads       %v\n", res.Leads)
	}
	if len(res.Departed) > 0 {
		fmt.Printf("departed    %v (crash-stopped; %d of %d ranks survive)\n",
			res.Departed, *p-len(res.Departed), *p)
	}
	var pushedID string
	if !hostsRank0 {
		// Collectors are per-process and the tracers' merge trees root
		// at rank 0, so only the member hosting rank 0 holds the real
		// merged trace; everyone else's collector saw only local merge
		// traffic. Saving or pushing it would archive a fragment.
		if res.Trace != nil {
			fmt.Printf("trace       (merged trace lives with the rank-0 member; not saved here)\n")
		}
	} else if res.Trace != nil {
		fmt.Printf("trace       %d top-level nodes\n", len(res.Trace.Nodes))
		if *out != "" {
			save := res.Trace.Save
			if *useBinary {
				save = res.Trace.SaveBinary
			}
			if err := save(*out); err != nil {
				fatal("save: %v", err)
			}
			fmt.Printf("wrote       %s\n", *out)
		}
		if *push != "" {
			run, created, err := store.Push(*push, res.Trace, *pushGzip)
			if err != nil {
				fatal("push: %v", err)
			}
			verb := "stored"
			if !created {
				verb = "dedup"
			}
			pushedID = run.ID
			fmt.Printf("pushed      %s/runs/%s (%s, %d B raw)\n",
				strings.TrimSuffix(*push, "/"), run.ID[:12], verb, run.RawBytes)
		}
	} else if *push != "" {
		fatal("push: the run produced no trace (tracer %q)", *tr)
	}

	if journalFile != nil {
		if err := observer.Journal.Err(); err != nil {
			fatal("journal: %v", err)
		}
		if err := journalFile.Close(); err != nil {
			fatal("journal: %v", err)
		}
		fmt.Printf("journal     %s (%d events; summarize with chamtop)\n",
			*journalOut, observer.Journal.Events())
	}
	if *timeline {
		f, err := os.Create(*timelineOut)
		if err != nil {
			fatal("timeline: %v", err)
		}
		// With causal capture on, the trace also carries flow events
		// (Perfetto arrows) linking delaying sends to the receives they
		// blocked.
		if err := observer.Timeline.WriteChromeTraceFlows(f, observer.Causal); err != nil {
			fatal("timeline: %v", err)
		}
		if err := f.Close(); err != nil {
			fatal("timeline: %v", err)
		}
		fmt.Printf("timeline    %s (%d spans, %d dropped; open in Perfetto)\n",
			*timelineOut, observer.Timeline.SpanCount(), observer.Timeline.Dropped())
		if d := observer.Timeline.Dropped(); d > 0 {
			fmt.Printf("WARNING     span capture truncated at the per-rank cap (%d dropped)\n", d)
		}
	}
	if *causalFlag {
		var buf bytes.Buffer
		if err := observer.Causal.WriteEdges(&buf); err != nil {
			fatal("edges: %v", err)
		}
		if err := os.WriteFile(*edgesOut, buf.Bytes(), 0o644); err != nil {
			fatal("edges: %v", err)
		}
		fmt.Printf("edges       %s (%d edges, %d dropped; analyze with chamtop -critical or -waves)\n",
			*edgesOut, observer.Causal.EdgeCount(), observer.Causal.Dropped())
		if *pushEdges && pushedID != "" {
			if err := store.PushEdges(*push, pushedID, buf.Bytes(), *pushGzip); err != nil {
				fatal("push-edges: %v", err)
			}
			fmt.Printf("pushed      edge sidecar for %s (%d B; chamstat -waves %s/runs/%s)\n",
				pushedID[:12], buf.Len(), strings.TrimSuffix(*push, "/"), pushedID[:12])
		}
	}
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			fatal("metrics: %v", err)
		}
		if err := observer.Reg.Snapshot().WriteJSON(f); err != nil {
			fatal("metrics: %v", err)
		}
		if err := f.Close(); err != nil {
			fatal("metrics: %v", err)
		}
		fmt.Printf("metrics     %s\n", *metricsOut)
	}
	if *metrics {
		fmt.Println("metrics")
		if err := observer.Reg.Snapshot().WriteText(os.Stdout); err != nil {
			fatal("metrics: %v", err)
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "chamrun: "+format+"\n", args...)
	os.Exit(1)
}
