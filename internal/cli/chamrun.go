package cli

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"chameleon"
	"chameleon/internal/analysis"
	"chameleon/internal/fleet"
	"chameleon/internal/mpi"
	"chameleon/internal/store"
)

func chamrun(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlags("chamrun", stderr)
	bench := fs.String("bench", "LU", "benchmark: "+strings.Join(chameleon.Benchmarks(), ", "))
	class := fs.String("class", "D", "NPB input class (A-D)")
	p := fs.Int("p", 64, "number of ranks")
	tr := fs.String("tracer", "chameleon", "tracer: none, scalatrace, chameleon, chameleon-auto, acurdion")
	k := fs.Int("k", 0, "cluster budget K (0 = benchmark default)")
	freq := fs.Int("freq", 0, "marker frequency in timesteps (0 = benchmark default)")
	algo := fs.String("algo", "", "clustering algorithm: k-farthest, k-medoid, k-random")
	out := fs.String("o", "", "trace output path (empty = don't write)")
	useBinary := fs.Bool("binary", false, "write the trace in the compact binary format")
	push := fs.String("push", "", "after the run, upload the merged trace to this chamd archive URL")
	pushGzip := fs.Bool("push-gzip", true, "gzip the -push transfer")
	metrics := fs.Bool("metrics", false, "print a metrics snapshot after the run")
	metricsOut := fs.String("metrics-out", "", "also write the metrics snapshot as JSON to this path")
	journal := fs.Bool("journal", false, "write the structured JSONL event journal")
	journalOut := fs.String("journal-out", "chameleon.journal.jsonl", "journal output path")
	timeline := fs.Bool("timeline", false, "write a Chrome trace-event JSON timeline (Perfetto)")
	timelineOut := fs.String("timeline-out", "chameleon.trace.json", "timeline output path")
	causalFlag := fs.Bool("causal", false, "capture causal send/recv edges and write them as JSONL")
	edgesOut := fs.String("edges-out", "chameleon.edges.jsonl", "causal edge output path")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof and expvar on this address during the run")
	live := fs.String("live", "", "stream live telemetry deltas to this chamd URL during the run (watch with chamtop -follow)")
	liveInterval := fs.Duration("live-interval", 250*time.Millisecond, "live telemetry snapshot/ship period")
	liveSession := fs.String("live-session", "", "live session ID (default: random)")
	faults := fs.String("faults", "", "fault plan: inline spec, or @path to a plan file")
	faultSeed := fs.Uint64("fault-seed", 1, "seed for the fault injector's perturbation streams")
	syncEvery := fs.Int("sync-every", 0, "override the skeleton's global-sync period (0 = default, negative = disable)")
	checkpointEvery := fs.Int("checkpoint-every", 0, "inject a checkpoint (gather+IO) phase every N iterations")
	pushEdges := fs.Bool("push-edges", false, "also upload the causal edge stream as a sidecar of the pushed run (requires -causal and -push)")
	transport := fs.String("transport", "inproc", "rank transport: inproc (all P ranks in this process) or tcp (multi-process fleet)")
	join := fs.String("join", "", "tcp transport: rendezvous address (bind-or-dial; every fleet member passes the same address)")
	ranks := fs.String("ranks", "", `tcp transport: inclusive world-rank range hosted by this process ("lo..hi" or a single rank)`)
	crashExit := fs.Bool("crash-exit", true, "tcp transport: kill this process once all its ranks crash-stop (survivors journal the loss and fail over)")
	if err := parseRefs(fs, args); err != nil {
		return err
	}

	// The library maps an unknown algorithm to k-farthest and an unknown
	// class to D; a typo on the command line is an error instead.
	switch *algo {
	case "", "k-farthest", "k-medoid", "k-random":
	default:
		return usageError(fmt.Sprintf("algo: unknown algorithm %q (want empty, k-farthest, k-medoid or k-random)", *algo))
	}
	switch strings.ToUpper(*class) {
	case "A", "B", "C", "D":
	default:
		return usageError(fmt.Sprintf("class: unknown class %q (want A, B, C or D)", *class))
	}
	if *pushEdges && (*push == "" || !*causalFlag) {
		return usageError("push-edges: requires both -causal and -push")
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
			return fmt.Errorf("faults: %w", err)
		}
	}
	var injector *chameleon.FaultInjector
	if plan != nil {
		if plan.HasCrashes() && *tr != "chameleon" && *tr != "chameleon-auto" {
			return usageError("faults: crash directives require -tracer chameleon or chameleon-auto (crashes fire at their markers)")
		}
		var err error
		injector, err = chameleon.NewFaultInjector(plan, *faultSeed, *p)
		if err != nil {
			return fmt.Errorf("faults: %w", err)
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
	switch *transport {
	case "inproc":
		if *join != "" || *ranks != "" {
			return usageError("transport: -join/-ranks require -transport=tcp")
		}
	case "tcp":
		if *ranks == "" {
			return usageError("transport: -transport=tcp requires -ranks")
		}
		// Every member must run the identical configuration — the
		// fingerprint is compared at rendezvous so a mismatched fleet
		// fails fast instead of silently diverging.
		fp := fmt.Sprintf("bench=%s class=%s p=%d tracer=%s k=%d freq=%d algo=%s faults=%s fseed=%d sync=%d ckpt=%d",
			*bench, *class, *p, *tr, *k, *freq, *algo, *faults,
			*faultSeed, *syncEvery, *checkpointEvery)
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
				fmt.Fprintf(stderr, "chamrun: fleet: "+format+"\n", args...)
			},
		})
		if err != nil {
			return fmt.Errorf("transport: %w", err)
		}
		// The transport is closed by the runtime's Run lifecycle.
		fleetInfo = fleetTr.Info()
		fmt.Fprintf(stdout, "fleet       session %s, member %d of %d, hosting ranks %s\n",
			fleetInfo.Session, fleetInfo.Member, fleetInfo.Members, *ranks)
	default:
		return usageError(fmt.Sprintf("transport: unknown transport %q (inproc or tcp)", *transport))
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
			return fmt.Errorf("journal: %w", err)
		}
		defer f.Close() // error paths; success checks the Close below
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
		defer serveDebug("chamrun", *debugAddr, observer.Reg, stderr)()
		fmt.Fprintf(stdout, "debug       http://%s/debug/pprof http://%s/debug/vars\n", *debugAddr, *debugAddr)
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
			return fmt.Errorf("live: %w", err)
		}
		shipper.Start()
		fmt.Fprintf(stdout, "live        %s/live/sessions/%s (every %v; chamtop -follow %s -session %s)\n",
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
			fmt.Fprintf(stderr, "chamrun: live: %v\n", serr)
		} else {
			st := shipper.Stats()
			fmt.Fprintf(stdout, "live        shipped %d deltas in %d posts (%d B; errors=%d dropped=%d)\n",
				st.Deltas, st.Posts, st.BytesOut, st.Errors, st.Dropped)
		}
	}

	// report prints the run's results and saves/pushes its trace.
	var pushedID string
	report := func() error {
		fmt.Fprintf(stdout, "benchmark   %s class %s, P=%d, tracer=%s\n", *bench, *class, *p, *tr)
		fmt.Fprintf(stdout, "makespan    %v (virtual)\n", res.Time)
		fmt.Fprintf(stdout, "overhead    %v aggregate across ranks\n", res.Overhead)
		for _, k := range analysis.SortedKeys(res.OverheadBy) {
			fmt.Fprintf(stdout, "  %-10s %v\n", k, res.OverheadBy[k])
		}
		if len(res.StateCalls) > 0 {
			fmt.Fprintf(stdout, "states      AT=%d C=%d L=%d F=%d (re-clusterings: %d, call-paths: %d)\n",
				res.StateCalls["AT"], res.StateCalls["C"], res.StateCalls["L"], res.StateCalls["F"],
				res.Reclusterings, res.CallPathClusters)
			fmt.Fprintf(stdout, "leads       %v\n", res.Leads)
		}
		if len(res.Departed) > 0 {
			fmt.Fprintf(stdout, "departed    %v (crash-stopped; %d of %d ranks survive)\n",
				res.Departed, *p-len(res.Departed), *p)
		}
		switch {
		case fleetTr != nil && !fleetInfo.HostsRank0: // inproc hosts the whole world
			// Collectors are per-process and the tracers' merge trees root
			// at rank 0, so only the member hosting rank 0 holds the real
			// merged trace; everyone else's collector saw only local merge
			// traffic. Saving or pushing it would archive a fragment.
			if res.Trace != nil {
				fmt.Fprintf(stdout, "trace       (merged trace lives with the rank-0 member; not saved here)\n")
			}
		case res.Trace == nil:
			if *push != "" {
				return fmt.Errorf("push: the run produced no trace (tracer %q)", *tr)
			}
		default:
			fmt.Fprintf(stdout, "trace       %d top-level nodes\n", len(res.Trace.Nodes))
			if *out != "" {
				save := res.Trace.Save
				if *useBinary {
					save = res.Trace.SaveBinary
				}
				if err := save(*out); err != nil {
					return fmt.Errorf("save: %w", err)
				}
				fmt.Fprintf(stdout, "wrote       %s\n", *out)
			}
			if *push != "" {
				run, created, err := store.Push(*push, res.Trace, *pushGzip)
				if err != nil {
					return fmt.Errorf("push: %w", err)
				}
				verb := "stored"
				if !created {
					verb = "dedup"
				}
				pushedID = run.ID
				fmt.Fprintf(stdout, "pushed      %s/runs/%s (%s, %d B raw)\n",
					strings.TrimSuffix(*push, "/"), run.ID[:12], verb, run.RawBytes)
			}
		}
		return nil
	}

	// telemetry writes what the observer captured — after a failed run
	// too, which is exactly the run that has to explain itself.
	telemetry := func() error {
		if journalFile != nil {
			if err := observer.Journal.Err(); err != nil {
				return fmt.Errorf("journal: %w", err)
			}
			if err := journalFile.Close(); err != nil {
				return fmt.Errorf("journal: %w", err)
			}
			fmt.Fprintf(stdout, "journal     %s (%d events; summarize with chamtop)\n",
				*journalOut, observer.Journal.Events())
		}
		if *timeline {
			// With causal capture on, the trace also carries flow events
			// (Perfetto arrows) linking delaying sends to the receives they
			// blocked.
			err := writeFile("timeline", *timelineOut, func(w io.Writer) error {
				return observer.Timeline.WriteChromeTraceFlows(w, observer.Causal)
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "timeline    %s (%d spans, %d dropped; open in Perfetto)\n",
				*timelineOut, observer.Timeline.SpanCount(), observer.Timeline.Dropped())
			if d := observer.Timeline.Dropped(); d > 0 {
				fmt.Fprintf(stdout, "WARNING     span capture truncated at the per-rank cap (%d dropped)\n", d)
			}
		}
		if *causalFlag {
			var buf bytes.Buffer // kept for the -push-edges sidecar
			err := writeFile("edges", *edgesOut, func(w io.Writer) error {
				return observer.Causal.WriteEdges(io.MultiWriter(w, &buf))
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "edges       %s (%d edges, %d dropped; analyze with chamtop -critical or -waves)\n",
				*edgesOut, observer.Causal.EdgeCount(), observer.Causal.Dropped())
			if *pushEdges && pushedID != "" {
				if err := store.PushEdges(*push, pushedID, buf.Bytes(), *pushGzip); err != nil {
					return fmt.Errorf("push-edges: %w", err)
				}
				fmt.Fprintf(stdout, "pushed      edge sidecar for %s (%d B; chamstat -waves %s/runs/%s)\n",
					pushedID[:12], buf.Len(), strings.TrimSuffix(*push, "/"), pushedID[:12])
			}
		}
		if *metricsOut != "" {
			if err := writeFile("metrics", *metricsOut, observer.Reg.Snapshot().WriteJSON); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "metrics     %s\n", *metricsOut)
		}
		if *metrics {
			fmt.Fprintln(stdout, "metrics")
			if err := observer.Reg.Snapshot().WriteText(stdout); err != nil {
				return fmt.Errorf("metrics: %w", err)
			}
		}
		return nil
	}

	if err == nil {
		err = report()
	}
	return errors.Join(err, telemetry())
}
