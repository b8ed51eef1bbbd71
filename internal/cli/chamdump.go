package cli

import (
	"context"
	"fmt"
	"io"

	"chameleon/internal/store"
	"chameleon/internal/trace"
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
	fmt.Fprintf(stdout, "# nodes=%d leaves=%d dynamic-events=%d size=%dB\n",
		trace.NodeCount(f.Nodes), trace.LeafCount(f.Nodes),
		trace.DynamicEvents(f.Nodes), trace.SizeBytes(f.Nodes))
	switch {
	case *sites:
		printSites(stdout, f)
	case *stats:
		printStats(stdout, f)
	default:
		fmt.Fprint(stdout, trace.Format(f.Nodes))
	}
	return nil
}

// printStats reports how well the trace compresses — dynamic events per
// stored node — and breaks the stored representation down per marker
// window (top-level node), on the read-only walk so nothing is expanded.
func printStats(w io.Writer, f *trace.File) {
	// Rank-weighted dynamic events (occurrences x the leaf's ranks in
	// [0, P)), the same totals zan and the replayer count.
	events, depth := make([]uint64, len(f.Nodes)), make([]int, len(f.Nodes))
	var total uint64
	trace.VisitLeaves(f.Nodes, func(n *trace.Node, c trace.Cursor) {
		occ := c.Mult * uint64(n.Ranks.SizeIn(f.P))
		events[c.Window] += occ
		total += occ
		depth[c.Window] = max(depth[c.Window], c.Depth)
	})
	nodes := trace.NodeCount(f.Nodes)
	ratio := 0.0
	if nodes > 0 {
		ratio = float64(total) / float64(nodes)
	}
	fmt.Fprintf(w, "# compression: %d dynamic events in %d stored nodes = %.1fx\n", total, nodes, ratio)
	fmt.Fprintf(w, "# %-6s %8s %8s %12s %6s\n", "window", "nodes", "leaves", "events", "depth")
	for i := range f.Nodes {
		win := f.Nodes[i : i+1]
		fmt.Fprintf(w, "# %-6d %8d %8d %12d %6d\n",
			i, trace.NodeCount(win), trace.LeafCount(win), events[i], depth[i])
	}
}

// printSites lists the trace's call-site table: one row per distinct
// interned signature, with function and file:line where the producing
// process resolved them (v1 traces and cross-process loads may carry
// signatures only).
func printSites(w io.Writer, f *trace.File) {
	tab := f.Sites
	if len(tab) == 0 {
		tab = f.SiteTable()
	}
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
