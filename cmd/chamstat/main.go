// Command chamstat analyzes and compares compressed trace files:
// summary statistics, per-rank communication volumes, the reconstructed
// point-to-point communication matrix, and equivalence checks between
// two traces (e.g., a Chameleon online trace vs. the ScalaTrace global
// trace of the same run).
//
// Usage:
//
//	chamstat trace-file                 # summary
//	chamstat -volumes trace-file        # per-rank volumes
//	chamstat -matrix  trace-file        # communication matrix (sparse)
//	chamstat -zstats  trace-file        # compressed-domain analysis (per-window metrics)
//	chamstat -diff a.trace b.trace      # equivalence check
//	chamstat -waves edges-or-run-ref    # idle-wave summary (docs/OBSERVABILITY.md)
//
// -waves takes either a causal edge file (chamrun -causal -edges-out)
// and runs the idle-wave detector locally, or an http(s)://host/runs/{id}
// reference, in which case the chamd archive computes the report
// server-side over the run's edge sidecar (chamrun -push-edges).
//
// -zstats computes wait/compute/communication time, load imbalance,
// per-op tallies, and send/recv match consistency by walking the
// compressed trace once (internal/zan, docs/ANALYSIS.md) — never
// expanding its loops. Add -check to also run the expansion oracle and
// the replayer and fail if the closed-form metrics diverge.
//
// A trace from a fault-injected run misses the retired (crashed) ranks;
// -diff -tolerate-ranks excludes those ranks from both sides so the
// survivor events still diff clean against a full fault-free baseline:
//
//	chamstat -diff -tolerate-ranks 1,5-7 full.trace faulted.trace
//	chamstat -diff -tolerate-ranks auto  full.trace faulted.trace
//
// "auto" tolerates the union of the retired-rank lists the two trace
// files carry.
//
// Every trace argument may also be an http(s):// run reference into a
// chamd archive (see docs/STORE.md), e.g.
//
//	chamstat -diff http://host:8321/runs/<id-a> http://host:8321/runs/<id-b>
//
// Remote fetches report their transfer sizes (gzip wire bytes vs. raw
// payload bytes) on stderr.
package main

import (
	"context"
	"os"

	"chameleon/internal/cli"
)

func main() {
	os.Exit(cli.Main(context.Background(), "chamstat", os.Args[1:], os.Stdout, os.Stderr))
}
