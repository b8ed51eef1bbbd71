package store

// Watcher-side live telemetry: the HTTP client chamtop -follow uses to
// list, fetch, and long-poll live sessions, and the text renderer that
// turns a SessionView into the refreshing terminal table.

import (
	"fmt"
	"io"
	"net/url"
	"sort"
	"strings"
	"time"
)

func liveBase(base string) string {
	return strings.TrimSuffix(base, "/") + "/live/sessions"
}

// FetchLiveSessions lists the daemon's in-flight sessions.
func FetchLiveSessions(base string) ([]LiveSummary, error) {
	var resp struct {
		Sessions []LiveSummary `json:"sessions"`
	}
	if err := getJSON(liveBase(base), &resp); err != nil {
		return nil, err
	}
	return resp.Sessions, nil
}

// FetchLiveView fetches one session's current view.
func FetchLiveView(base, id string) (*SessionView, error) {
	var v SessionView
	if err := getJSON(liveBase(base)+"/"+url.PathEscape(id), &v); err != nil {
		return nil, err
	}
	return &v, nil
}

// WatchLiveView long-polls the session until its version exceeds after
// or timeout elapses server-side, returning the (possibly unchanged)
// view.
func WatchLiveView(base, id string, after uint64, timeout time.Duration) (*SessionView, error) {
	u := fmt.Sprintf("%s/%s/watch?version=%d&timeout=%s",
		liveBase(base), url.PathEscape(id), after, url.QueryEscape(timeout.String()))
	var v SessionView
	if err := getJSON(u, &v); err != nil {
		return nil, err
	}
	return &v, nil
}

// RenderSessionView writes the chamtop -follow frame: a session header,
// a per-rank progress table with flags, and the recent detector events.
func RenderSessionView(w io.Writer, v *SessionView) {
	state := "live"
	if v.Final {
		state = "final"
	}
	fmt.Fprintf(w, "session %s  %s  P=%d  seq=%d  deltas=%d  [%s]\n",
		v.Session, v.Benchmark, v.P, v.LastSeq, v.Deltas, state)

	if len(v.Windows) > 0 {
		last := v.Windows[len(v.Windows)-1]
		fmt.Fprintf(w, "window %d  arrive-skew %s  median-compute %s  slowest rank %d (%s)\n",
			last.Window, fmtNs(last.ArriveSkewNs), fmtNs(last.MedianComputeNs),
			last.SlowestRank, fmtNs(last.MaxComputeNs))
	}

	if len(v.Ranks) > 0 {
		fmt.Fprintf(w, "%6s %9s %14s %14s %12s  %s\n",
			"RANK", "WINDOWS", "ARRIVE-VT", "COMPUTE-VT", "OPS", "FLAGS")
		for _, rs := range v.Ranks {
			flags := strings.Join(rs.Flags, ",")
			if flags == "" {
				flags = "-"
			}
			fmt.Fprintf(w, "%6d %9d %14s %14s %12d  %s\n",
				rs.Rank, rs.Windows, fmtNs(rs.ArriveVT), fmtNs(rs.ComputeVT), rs.Ops, flags)
		}
	}

	if len(v.Stragglers) > 0 {
		strs := make([]int, len(v.Stragglers))
		copy(strs, v.Stragglers)
		sort.Ints(strs)
		parts := make([]string, len(strs))
		for i, r := range strs {
			parts[i] = fmt.Sprintf("%d", r)
		}
		fmt.Fprintf(w, "stragglers: %s\n", strings.Join(parts, " "))
	}

	if n := len(v.LiveEvents); n > 0 {
		fmt.Fprintln(w, "events:")
		start := 0
		if n > 8 {
			start = n - 8
		}
		for _, ev := range v.LiveEvents[start:] {
			at := time.UnixMilli(ev.AtUnixMs).Format("15:04:05.000")
			switch {
			case ev.Rank < 0:
				fmt.Fprintf(w, "  %s %-16s %s\n", at, ev.Kind, ev.Note)
			case ev.Flag != "":
				fmt.Fprintf(w, "  %s %-16s rank %d [%s] %s\n", at, ev.Kind, ev.Rank, ev.Flag, ev.Note)
			default:
				fmt.Fprintf(w, "  %s %-16s rank %d %s\n", at, ev.Kind, ev.Rank, ev.Note)
			}
		}
	}
}

// fmtNs renders a virtual-time nanosecond count compactly.
func fmtNs(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fus", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
