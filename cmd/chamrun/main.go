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
//	    -faults 'periodic ranks=5 start=400ms period=16ms extra=5ms count=10'
//
// The generator directives (periodic, resonant, random; see
// docs/FAULTS.md and examples/noise/) write pulse trains into the plan;
// -fault-seed also draws the random ones. -sync-every overrides a
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
	"context"
	"os"

	"chameleon/internal/cli"
)

func main() {
	os.Exit(cli.Main(context.Background(), "chamrun", os.Args[1:], os.Stdout, os.Stderr))
}
