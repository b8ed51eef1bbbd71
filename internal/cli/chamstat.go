package cli

import (
	"context"
	"fmt"
	"io"
	"strings"

	"chameleon/internal/analysis"
	"chameleon/internal/cq"
	"chameleon/internal/store"
	"chameleon/internal/trace"
	"chameleon/internal/vtime"
	"chameleon/internal/wave"
	"chameleon/internal/zan"
)

func chamstat(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlags("chamstat", stderr)
	volumes := fs.Bool("volumes", false, "print per-rank communication volumes")
	matrix := fs.Bool("matrix", false, "print the reconstructed communication matrix")
	zstats := fs.Bool("zstats", false, "print the compressed-domain analysis report (per-window metrics)")
	check := fs.Bool("check", false, "with -zstats: cross-check the closed-form metrics against the expansion oracle and the replayer")
	diff := fs.Bool("diff", false, "compare two traces for event equivalence")
	tolerate := fs.String("tolerate-ranks", "", `with -diff: exclude these ranks ("0,5-7" set grammar, or "auto" = the traces' retired ranks)`)
	waves := fs.Bool("waves", false, "idle-wave summary over a causal edge file or a run URL's edge sidecar")
	cols := fs.Int("cols", 0, "with -waves: treat ranks as a row-major grid this many columns wide (0 = 1-D chain)")
	if err := parseRefs(fs, args); err != nil {
		return err
	}
	switch {
	case *check && !*zstats:
		return usageError("-check requires -zstats")
	case *tolerate != "" && !*diff:
		return usageError("-tolerate-ranks requires -diff")
	case *cols != 0 && !*waves:
		return usageError("-cols requires -waves")
	}

	// load resolves a trace reference (path or http(s):// run URL); remote
	// fetches surface their compressed/uncompressed byte counts on stderr.
	load := func(ref string) (*trace.File, error) {
		f, stats, err := store.LoadTraceStats(ref)
		if err == nil && stats != nil {
			fmt.Fprintf(stderr, "chamstat: fetched %s (%s)\n", ref, stats)
		}
		return f, err
	}

	switch {
	case *waves:
		if fs.NArg() != 1 {
			return usageError("usage: chamstat -waves [-cols n] edges.jsonl | http://host:8321/runs/<id>")
		}
		return waveSummary(stdout, fs.Arg(0), *cols)
	case *diff:
		if fs.NArg() != 2 {
			return usageError("usage: chamstat -diff [-tolerate-ranks set|auto] a.trace b.trace")
		}
		a, err := load(fs.Arg(0))
		if err != nil {
			return err
		}
		b, err := load(fs.Arg(1))
		if err != nil {
			return err
		}
		return diffReport(stdout, fs.Arg(0), fs.Arg(1), a, b, *tolerate)
	case fs.NArg() != 1:
		return usageError("usage: chamstat [-volumes | -matrix | -zstats [-check] | -diff [-tolerate-ranks set|auto] | -waves [-cols n]] ref...")
	}
	f, err := load(fs.Arg(0))
	if err != nil {
		return err
	}

	switch {
	case *zstats:
		rep, err := zan.Analyze(f, zan.Options{})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace %s (%s, benchmark=%s)\n", fs.Arg(0), f.Tracer, f.Benchmark)
		fmt.Fprint(stdout, rep.String())
		if *check {
			return crossCheck(f, stdout)
		}
	case *volumes:
		for _, v := range analysis.Volumes(f) {
			fmt.Fprintf(stdout, "rank %4d: sends=%d (%dB) recvs=%d collectives=%d\n",
				v.Rank, v.SendEvents, v.SendBytes, v.RecvEvents, v.CollEvents)
		}
	case *matrix:
		m := analysis.Matrix(f)
		fmt.Fprintf(stdout, "point-to-point messages: %d (unresolved: %d)\n", m.TotalMessages(), m.Unresolved)
		for _, s := range analysis.SortedKeys(m.Counts) {
			for _, d := range analysis.SortedKeys(m.Counts[s]) {
				fmt.Fprintf(stdout, "  %4d -> %4d: %8d msgs %12d bytes\n", s, d, m.Counts[s][d], m.Bytes[s][d])
			}
		}
	default:
		s := analysis.Summarize(f)
		fmt.Fprintf(stdout, "trace %s (%s, benchmark=%s, clustered=%v)\n", fs.Arg(0), f.Tracer, f.Benchmark, f.Clustered)
		fmt.Fprint(stdout, s.String())
		cp := analysis.CriticalPath(f, int64(vtime.Default().Alpha))
		fmt.Fprintf(stdout, "critical-path estimate: %v\n", vtime.Duration(cp))
	}
	return nil
}

// diffReport is the -diff mode: the equivalence line, or the DIVERGED
// block and a failing exit.
func diffReport(w io.Writer, refA, refB string, a, b *trace.File, tolerate string) error {
	tol, err := cq.TolerateRanks(tolerate, a, b)
	if err != nil {
		return err
	}
	d := analysis.CompareWith(a, b, analysis.CompareOpts{TolerateRanks: tol})
	if d.Equivalent() {
		ignoring := ""
		if len(tol) > 0 {
			ignoring = fmt.Sprintf(" ignoring ranks %v", tol)
		}
		fmt.Fprintf(w, "traces are event-equivalent%s (same call sites, same per-rank and per-site dynamic counts)\n", ignoring)
		return nil
	}
	fmt.Fprintf(w, "DIVERGED: %s\n", d.Reason())
	if len(d.MissingInB) > 0 {
		fmt.Fprintf(w, "call sites missing in %s: %d\n", refB, len(d.MissingInB))
	}
	if len(d.MissingInA) > 0 {
		fmt.Fprintf(w, "call sites missing in %s: %d\n", refA, len(d.MissingInA))
	}
	if len(d.EventDeltas) > 0 {
		fmt.Fprintf(w, "ranks with differing event counts: %d\n", len(d.EventDeltas))
		ranks := analysis.SortedKeys(d.EventDeltas)
		for _, r := range ranks[:min(10, len(ranks))] {
			fmt.Fprintf(w, "  rank %d: %+d events\n", r, d.EventDeltas[r])
		}
	}
	if len(d.SiteCountDeltas) > 0 {
		fmt.Fprintf(w, "call sites with differing event counts: %d\n", len(d.SiteCountDeltas))
		sites := analysis.SortedKeys(d.SiteCountDeltas)
		for _, s := range sites[:min(10, len(sites))] {
			fmt.Fprintf(w, "  site %#x: %+d events\n", s, d.SiteCountDeltas[s])
		}
	}
	return errReported
}

// waveSummary is the -waves mode. A /runs/{id} URL asks the chamd
// archive for the server-side report over the run's edge sidecar; any
// other reference is read as a causal edge JSONL stream and analyzed
// locally.
func waveSummary(w io.Writer, ref string, cols int) error {
	var rep *wave.Report
	if store.IsRef(ref) {
		i := strings.LastIndex(ref, "/runs/")
		if i < 0 {
			return fmt.Errorf("%s: a remote -waves reference must name a run (…/runs/<id>)", ref)
		}
		resp, err := store.FetchWaves(ref[:i], ref[i+len("/runs/"):], cols)
		if err != nil {
			return err
		}
		rep = resp.Report
		fmt.Fprintf(w, "run %s (server-side report)\n", resp.ID[:12])
	} else {
		edges, p, err := loadEdges(ref)
		if err != nil {
			return err
		}
		if rep, err = wave.Detect(edges, wave.Options{P: p, Cols: cols}); err != nil {
			return err
		}
		fmt.Fprintf(w, "edges %s (P=%d inferred)\n", ref, p)
	}
	fmt.Fprint(w, wave.Summary(rep))
	return nil
}
