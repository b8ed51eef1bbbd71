package cli

import (
	"context"
	"fmt"
	"io"

	"chameleon/internal/analysis"
	"chameleon/internal/store"
	"chameleon/internal/trace"
	"chameleon/internal/zan"
)

func chamdump(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlags("chamdump", stderr)
	stats := fs.Bool("stats", false, "print summary statistics (compression ratio, per-window node counts) only")
	sites := fs.Bool("sites", false, "print the interned call-site table and exit")
	if err := parseRefs(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return usageError("usage: chamdump [-stats] [-sites] trace-file")
	}
	f, err := store.LoadTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "# tracer=%s benchmark=%s P=%d clustered=%v filter=%v\n",
		f.Tracer, f.Benchmark, f.P, f.Clustered, f.Filter)
	s := analysis.Summarize(f)
	fmt.Fprintf(stdout, "# nodes=%d leaves=%d dynamic-events=%d size=%dB\n",
		s.Nodes, s.Leaves, s.DynamicEvents, s.SizeBytes)
	switch {
	case *sites:
		printSites(stdout, f)
	case *stats:
		// How well the trace compresses — rank-weighted dynamic events
		// per stored node — and the stored nodes per marker window.
		fmt.Fprintf(stdout, "# compression: %d dynamic events in %d stored nodes = %.1fx\n",
			s.Events, s.Nodes, zan.Ratio(float64(s.Events), float64(s.Nodes)))
		fmt.Fprintf(stdout, "# %-6s %8s %8s %12s %6s\n", "window", "nodes", "leaves", "events", "depth")
		for i, w := range s.Windows {
			fmt.Fprintf(stdout, "# %-6d %8d %8d %12d %6d\n", i, w.Nodes, w.Leaves, w.Events, w.Depth)
		}
	default:
		fmt.Fprint(stdout, trace.Format(f.Nodes))
	}
	return nil
}

// printSites lists the trace's call-site table: one row per distinct
// signature, with function and file:line where the file names them (v1
// traces carry signatures only).
func printSites(w io.Writer, f *trace.File) {
	tab := f.SiteTable()
	fmt.Fprintf(w, "# sites=%d\n", len(tab))
	for _, s := range tab {
		loc := "?"
		if s.Func != "" {
			loc = s.Func
			if s.File != "" {
				loc = fmt.Sprintf("%s %s:%d", s.Func, s.File, s.Line)
			}
		}
		fmt.Fprintf(w, "site %4d  sig=%016x  %s\n", s.ID, uint64(s.Sig), loc)
	}
}
