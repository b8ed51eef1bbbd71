// Command chamtop summarizes a Chameleon observability journal (the
// JSONL file written by chamrun -journal) into human-readable tables:
// the rank-0 state timeline with per-segment virtual-time spans, the
// Algorithm 1 vote history, cluster formations, flushes into the online
// trace, radix-tree merge work, and per-rank finalize totals.
//
// With -critical it switches to the causal analysis view: it loads the
// edge file written by chamrun -causal, extracts per-collective critical
// paths, and prints the top straggler ranks with per-phase and
// per-window wait attribution (plus the span-category breakdown when a
// Chrome trace is given with -trace).
//
// With -follow it becomes the live monitor: it polls (long-poll) a
// chamd daemon's live-session endpoint and renders a refreshing view of
// an in-flight run — per-rank window progress, heartbeats, and the
// daemon's straggler/stall flags — while the run executes (start the
// run with chamrun -live; see docs/OBSERVABILITY.md).
//
// With -zan it ranks a finished trace's hottest marker windows by
// wait-state time, computed in the compressed domain (internal/zan,
// docs/ANALYSIS.md) without expanding the trace. Add -check to verify
// the closed-form metrics against the expansion oracle and the
// replayer before trusting the ranking.
//
// With -waves it runs the idle-wave detector (internal/wave,
// docs/OBSERVABILITY.md) over the causal edge file and renders a
// rank x virtual-time wait heatmap with the fitted wave fronts marked,
// followed by the per-wave kinematics summary (origin, speed, decay).
//
// Usage:
//
//	chamtop chameleon.journal.jsonl
//	chamtop -critical -edges chameleon.edges.jsonl [-trace t.json] [-top 10] [journal.jsonl]
//	chamtop -follow http://localhost:8321 [-session id] [-once]
//	chamtop -zan lu.trace [-check] [-top 10]
//	chamtop -waves -edges chameleon.edges.jsonl [-p 16] [-bins 96]
//
// The journal, edge, and trace arguments may also be http(s):// URLs
// (e.g. artifacts served by a chamd host, docs/STORE.md); chamtop
// fetches them before analyzing.
package main

import (
	"context"
	"os"

	"chameleon/internal/cli"
)

func main() {
	os.Exit(cli.Main(context.Background(), "chamtop", os.Args[1:], os.Stdout, os.Stderr))
}
