package cli

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"chameleon/internal/causal"
	"chameleon/internal/obs"
	"chameleon/internal/stats"
	"chameleon/internal/store"
	"chameleon/internal/wave"
	"chameleon/internal/zan"
)

func chamtop(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlags("chamtop", stderr)
	critical := fs.Bool("critical", false, "causal critical-path / straggler report (needs -edges)")
	edgesPath := fs.String("edges", "chameleon.edges.jsonl", "causal edge JSONL file (with -critical)")
	tracePath := fs.String("trace", "", "Chrome trace file for the span breakdown (with -critical)")
	topN := fs.Int("top", 10, "rows per table in the critical report")
	follow := fs.String("follow", "", "chamd base URL: watch a live session instead of reading a journal")
	session := fs.String("session", "", "live session ID to follow (default: the most recently updated)")
	once := fs.Bool("once", false, "with -follow: print one frame and exit (no refresh loop)")
	pollTimeout := fs.Duration("poll", 10*time.Second, "with -follow: long-poll timeout per request")
	zanRef := fs.String("zan", "", "trace path or run URL: rank its hottest windows by compressed-domain wait time")
	check := fs.Bool("check", false, "with -zan: cross-check the metrics against the expansion oracle and the replayer")
	waves := fs.Bool("waves", false, "idle-wave view: detect waves in the causal edge file and render the rank x time heatmap")
	nranks := fs.Int("p", 0, "with -waves: rank count (0 = infer from the edges)")
	bins := fs.Int("bins", 96, "with -waves: heatmap time bins")
	cols := fs.Int("cols", 0, "with -waves: treat ranks as a row-major grid this many columns wide (0 = 1-D chain)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: chamtop [-critical -edges edges.jsonl [-trace trace.json] [-top n]] [journal.jsonl]")
		fmt.Fprintln(stderr, "       chamtop -follow http://host:8321 [-session id] [-once] [-poll 10s]")
		fmt.Fprintln(stderr, "       chamtop -zan trace-ref [-check] [-top n]")
		fmt.Fprintln(stderr, "       chamtop -waves -edges edges-ref [-p n] [-bins n] [-cols n]")
		fs.PrintDefaults()
	}
	if err := parseRefs(fs, args); err != nil {
		return err
	}

	switch {
	case *check && *zanRef == "":
		return usageError("-check requires -zan")
	case *cols != 0 && !*waves:
		return usageError("-cols requires -waves")
	case *follow != "":
		return followLive(ctx, stdout, stderr, *follow, *session, *once, *pollTimeout)
	case *zanRef != "":
		return zanReport(stdout, *zanRef, *topN, *check)
	case *waves:
		return waveView(stdout, *edgesPath, *nranks, *bins, *cols)
	case fs.NArg() > 1, fs.NArg() == 0 && !*critical:
		fs.Usage()
		return usageError("")
	}

	var events []obs.Event
	if fs.NArg() == 1 {
		var err error
		if events, err = readRef(fs.Arg(0), obs.ReadJournal); err != nil {
			return err
		}
		if len(events) == 0 {
			return fmt.Errorf("%s: empty journal", fs.Arg(0))
		}
	}

	if *critical {
		return criticalReport(stdout, *edgesPath, *tracePath, events, *topN)
	}

	fmt.Fprintf(stdout, "%s: %d events\n\n", fs.Arg(0), len(events))
	stateTimeline(stdout, events)
	votes(stdout, events)
	clusterings(stdout, events)
	flushes(stdout, events)
	merges(stdout, events)
	finalize(stdout, events)
	return nil
}

// criticalReport runs the offline causal analysis: edges (required),
// journal events (optional, for window/phase attribution), Chrome trace
// (optional, for the span-category breakdown).
func criticalReport(w io.Writer, edgesPath, tracePath string, events []obs.Event, topN int) error {
	edges, _, err := loadEdges(edgesPath)
	if err != nil {
		return err
	}
	if err := causal.Analyze(edges, events).WriteText(w, topN); err != nil {
		return err
	}
	if tracePath != "" {
		ts, err := readRef(tracePath, causal.ReadChromeTrace)
		if err != nil {
			return err
		}
		causal.WriteSpanBreakdown(w, ts)
	}
	return nil
}

// segment is one maximal run of marker calls spent in a single
// transition-graph state on rank 0.
type segment struct {
	state       string
	firstMarker int
	lastMarker  int
	startVT     int64
	endVT       int64
	calls       int
}

func stateTimeline(out io.Writer, events []obs.Event) {
	var segs []segment
	for _, ev := range events {
		if ev.Kind != obs.KindTransition {
			continue
		}
		if n := len(segs); n > 0 && segs[n-1].state == ev.To {
			s := &segs[n-1]
			s.lastMarker = ev.Marker
			s.endVT = ev.VT
			s.calls++
			continue
		}
		segs = append(segs, segment{
			state: ev.To, firstMarker: ev.Marker, lastMarker: ev.Marker,
			startVT: ev.VT, endVT: ev.VT, calls: 1,
		})
	}
	var rows []string
	for i, s := range segs {
		markers := fmt.Sprintf("%d", s.firstMarker)
		if s.lastMarker != s.firstMarker {
			markers = fmt.Sprintf("%d-%d", s.firstMarker, s.lastMarker)
		}
		rows = append(rows, fmt.Sprintf("  %d\t%s\t%s\t%d\t%s\t%s",
			i+1, s.state, markers, s.calls, vt(s.startVT), vt(s.endVT-s.startVT)))
	}
	section(out, "state timeline (rank 0)", "  #\tstate\tmarkers\tcalls\tvt-start\tvt-span", rows, "\n")
}

func votes(out io.Writer, events []obs.Event) {
	h := stats.NewHistogram()
	total, mismatched := 0, 0
	for _, ev := range events {
		if ev.Kind != obs.KindVote {
			continue
		}
		total++
		v, ok := ev.VoteCount()
		if !ok {
			continue // malformed vote event: no recorded sum
		}
		h.Add(int64(v))
		if v > 0 {
			mismatched++
		}
	}
	if total > 0 {
		section(out, "votes (Algorithm 1 Reduce+Bcast)", "  total\tmismatched\tmax-ranks\tp50-ranks\tp99-ranks",
			[]string{fmt.Sprintf("  %d\t%d\t%d\t%d\t%d", total, mismatched, h.Max, h.Quantile(0.50), h.Quantile(0.99))}, "\n")
	}
}

func clusterings(out io.Writer, events []obs.Event) {
	var rows []string
	for _, ev := range events {
		if ev.Kind == obs.KindCluster {
			rows = append(rows, fmt.Sprintf("  %d\t%s\t%d\t%d\t%v", len(rows)+1, vt(ev.VT), ev.K, ev.Count, ev.Leads))
		}
	}
	section(out, "cluster formations", "  #\tvt\tK\tcall-paths\tleads", rows, "\n")
}

func flushes(out io.Writer, events []obs.Event) {
	var rows []string
	for _, ev := range events {
		if ev.Kind == obs.KindFlush {
			rows = append(rows, fmt.Sprintf("  %d\t%s\t%d\t%d\t%s\t%d",
				len(rows)+1, vt(ev.VT), ev.Marker, ev.Round, ev.Note, ev.Bytes))
		}
	}
	section(out, "flushes into the online trace", "  #\tvt\tmarker\tround\tcause\tonline-bytes", rows, "\n")
}

func merges(out io.Writer, events []obs.Event) {
	compares := stats.NewHistogram()
	steps := 0
	var bytes int64
	for _, ev := range events {
		if ev.Kind != obs.KindMerge {
			continue
		}
		steps++
		compares.Add(int64(ev.Count))
		bytes += ev.Bytes
	}
	if steps > 0 {
		section(out, "radix-tree merge steps", "  steps\tbytes\tcompares-p50\tcompares-p99\tcompares-max",
			[]string{fmt.Sprintf("  %d\t%d\t%d\t%d\t%d", steps, bytes, compares.Quantile(0.50), compares.Quantile(0.99), compares.Max)}, "\n")
	}
}

// finalize is the last table of the report: no blank line follows it.
func finalize(out io.Writer, events []obs.Event) {
	recorded := stats.NewHistogram()
	var ranks, total, bytes int64
	for _, ev := range events {
		if ev.Kind != obs.KindFinalize {
			continue
		}
		ranks++
		total += int64(ev.Count)
		bytes += ev.Bytes
		recorded.Add(int64(ev.Count))
	}
	if ranks > 0 {
		section(out, "finalize (per-rank recorded events)", "  ranks\tevents-total\tbytes-total\tevents-p50\tevents-max",
			[]string{fmt.Sprintf("  %d\t%d\t%d\t%d\t%d", ranks, total, bytes, recorded.Quantile(0.50), recorded.Max)}, "")
	}
}

// section prints one titled, tab-aligned table followed by end — or
// nothing at all when the journal has no such events.
func section(out io.Writer, title, header string, rows []string, end string) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintln(out, title)
	w := tab(out)
	fmt.Fprintln(w, header)
	for _, r := range rows {
		fmt.Fprintln(w, r)
	}
	w.Flush()
	fmt.Fprint(out, end)
}

// waveView is the -waves mode: load the causal edge file (a local path
// or a chamd /runs/{id}/edges URL), run the idle-wave detector, and
// render the rank x virtual-time heatmap plus the per-wave kinematics.
func waveView(w io.Writer, edgesRef string, p, bins, cols int) error {
	edges, inferred, err := loadEdges(edgesRef)
	if err != nil {
		return err
	}
	if p <= 0 {
		p = inferred
	}
	rep, err := wave.Detect(edges, wave.Options{P: p, Cols: cols})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: P=%d, %d edges, %d wait points (%d significant, floor %s, gap %s)\n\n",
		edgesRef, p, rep.Edges, rep.WaitPoints, rep.Significant, vt(rep.FloorNs), vt(rep.MaxGapNs))
	hm := wave.BuildHeatmap(edges, p, bins)
	fmt.Fprint(w, hm.Render(rep))
	fmt.Fprintln(w)
	fmt.Fprint(w, wave.Summary(rep))
	return nil
}

// zanReport is the -zan mode: one compressed-domain walk over the
// trace, then the hottest marker windows by wait-state time.
func zanReport(out io.Writer, ref string, topN int, check bool) error {
	f, err := store.LoadTrace(ref)
	if err != nil {
		return err
	}
	rep, err := zan.Analyze(f, zan.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s: P=%d, %d events in %d stored nodes (%.1fx), %d windows\n",
		ref, rep.P, rep.Events, rep.StoredNodes, rep.CompressionRatio, len(rep.Windows))
	fmt.Fprintf(out, "compute=%v comm=%v wait=%v imbalance=%.2f comm/compute=%.3f\n\n",
		time.Duration(rep.ComputeNs), time.Duration(rep.CommNs), time.Duration(rep.WaitNs),
		rep.LoadImbalance, rep.CommRatio)

	fmt.Fprintln(out, "hottest windows by wait-state time")
	w := tab(out)
	fmt.Fprintln(w, "  window\twait\tcompute\tcomm\tevents\timbalance\tlocal-unmatched")
	for _, i := range rep.TopWaitWindows(topN) {
		win := &rep.Windows[i]
		fmt.Fprintf(w, "  %d\t%s\t%s\t%s\t%d\t%.2f\t%d\n",
			win.Index, vt(win.WaitNs), vt(win.ComputeNs), vt(win.CommNs),
			win.Events, win.LoadImbalance, win.LocalUnmatched)
	}
	w.Flush()

	m := rep.Match
	fmt.Fprintf(out, "\nmatch: sends=%d recvs=%d paired=%d cross-window=%d order-violations=%d",
		m.Sends, m.Recvs, m.ResolvedPairs, m.CrossWindow, m.OrderViolations)
	if m.Consistent {
		fmt.Fprintln(out, " => consistent")
	} else {
		fmt.Fprintf(out, " => INCONSISTENT (%d unmatched)\n", m.Unmatched)
	}

	if check {
		return crossCheck(f, out)
	}
	return nil
}

// followLive is the -follow mode: long-poll a chamd live session and
// redraw its view each time the server's version advances, until the
// run finalizes (or forever for -once=false sessions that never do;
// interrupt with ^C).
func followLive(ctx context.Context, stdout, stderr io.Writer, base, session string, once bool, poll time.Duration) error {
	if session == "" {
		sessions, err := store.FetchLiveSessions(base)
		if err != nil {
			return fmt.Errorf("follow: %w", err)
		}
		if len(sessions) == 0 {
			return fmt.Errorf("follow: %s has no live sessions (start one with chamrun -live %s)", base, base)
		}
		// List() returns newest-updated first; follow that one.
		session = sessions[0].Session
		if len(sessions) > 1 {
			fmt.Fprintf(stderr, "chamtop: %d live sessions, following most recent %q (pick with -session):\n",
				len(sessions), session)
			for _, s := range sessions {
				fmt.Fprintf(stderr, "  %-20s %-10s P=%d stragglers=%d\n", s.Session, s.Benchmark, s.P, s.Stragglers)
			}
		}
	}

	v, err := store.FetchLiveView(base, session)
	if err != nil {
		return fmt.Errorf("follow: %w", err)
	}
	for {
		if !once {
			fmt.Fprint(stdout, "\x1b[H\x1b[2J") // cursor home + clear: redraw in place
		}
		store.RenderSessionView(stdout, v)
		if once || v.Final || ctx.Err() != nil {
			return nil
		}
		next, err := store.WatchLiveView(base, session, v.Version, poll)
		if err != nil {
			// Transient watch errors (daemon restart, request timeout edge)
			// shouldn't kill the monitor; back off briefly and re-fetch.
			fmt.Fprintf(stderr, "chamtop: watch: %v\n", err)
			time.Sleep(time.Second) // paces a screen a person watches: real time is the point
			next, err = store.FetchLiveView(base, session)
			if err != nil {
				return fmt.Errorf("follow: %w", err)
			}
		}
		v = next
	}
}

func tab(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// vt renders a virtual-nanosecond value as a duration.
func vt(ns int64) string { return time.Duration(ns).String() }
