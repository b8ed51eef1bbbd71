// Cross-backend determinism and failover e2e for the TCP transport.
//
// The transport contract is that virtual time is program-derived, so
// socket scheduling can never leak into results: the same seeded run
// must produce bit-identical merged traces whether all P ranks share a
// process or are split across a TCP fleet. These tests pin that at
// three levels — in-test fleets over localhost (canonical structure,
// signature identity, causal edge counts, zan closed-form stats), the
// literal acceptance scenario of two OS processes × four ranks each
// (re-exec of the test binary, byte-compared trace files), and a
// crash-failover run where one member's process SIGKILLs itself
// mid-run and the surviving member completes with the departure
// journaled and the dead leads failed over — over real sockets.
package chameleon_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"chameleon"
	"chameleon/internal/obs"
	"chameleon/internal/trace"
	"chameleon/internal/zan"
)

// TestTransportCrossBackendDeterminism: same seeded benchmark run
// in-process and as a TCP fleet — P=8 as 2×4 ranks, and the
// acceptance-scale P=64 world split four ways — plain and under
// perturbation plans, which every member compiles from the same plan
// and seed. The merged traces must agree in canonical structure and raw
// signature bytes, the causal edge totals must match (each member
// records the edges its ranks close), and the zan closed-form stats
// must be identical — the compressed representation, not just the
// makespan, is transport-invariant.
func TestTransportCrossBackendDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process fleet runs are not short")
	}
	split2x4 := []string{"0..3", "4..7"}
	for _, row := range []struct {
		name, bench string
		p           int
		fleet       []string
		plan        string
		seed        uint64
	}{
		{"PHASE", "PHASE", 8, split2x4, "", 0},
		{"STENCIL", "STENCIL", 8, split2x4, "", 0},
		{"STENCIL_p64x4", "STENCIL", 64, []string{"0..15", "16..31", "32..47", "48..63"}, "", 0},
		{"PHASE_perturbed", "PHASE", 8, split2x4, "delay ranks=2-7 p=0.3 jitter=2ms; slow rank=3 factor=2x", 7},
		{"STENCIL_periodic", "STENCIL", 8, split2x4, "periodic ranks=5 start=200ms period=100ms extra=20ms count=10", 1},
	} {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			run := e2e{Spec: benchSpec(t, row.bench, "A", row.p), Plan: row.plan, Seed: row.seed,
				Obs: &chameleon.ObsOptions{CausalRanks: row.p}}
			inproc := runE2E(t, run)
			run.Fleet = row.fleet
			fleet := runE2E(t, run)

			if got, want := fleet.Out.Time, inproc.Out.Time; got != want {
				t.Errorf("fleet makespan %v, want in-process %v", got, want)
			}
			if got, want := canonTrace(fleet.Out), canonTrace(inproc.Out); got != want {
				t.Errorf("canonical trace structure diverged across backends:\nfleet:\n%s\nin-process:\n%s", got, want)
			}
			if !bytes.Equal(fleet.Binary, inproc.Binary) {
				t.Errorf("binary trace bytes (signatures included) diverged across backends")
			}
			fleetEdges := 0
			for _, m := range fleet.Members {
				fleetEdges += m.Obs.Causal.EdgeCount()
			}
			if want := inproc.Obs.Causal.EdgeCount(); fleetEdges != want {
				t.Errorf("fleet causal edges = %d (summed over members), want %d", fleetEdges, want)
			}
			// Analyze the serialized artifact, not the in-memory tree:
			// cross-process merge traffic rides the binary trace codec,
			// whose delta histograms quantize, so in-memory stats can
			// differ in the 7th digit while the persisted traces (and
			// everything computed from them) are bit-identical.
			analyze := func(raw []byte) *zan.Report {
				f, err := trace.ReadBinary(bytes.NewReader(raw))
				if err != nil {
					t.Fatal(err)
				}
				rep, err := zan.Analyze(f, zan.Options{})
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			if fleetZan, inprocZan := analyze(fleet.Binary), analyze(inproc.Binary); !reflect.DeepEqual(fleetZan, inprocZan) {
				t.Errorf("zan closed-form stats diverged across backends:\n%v", zan.Diff(fleetZan, inprocZan, 0))
			}
		})
	}
}

// spawnFleetMember starts `chamrun -transport=tcp` hosting one rank
// range of the seeded 8-rank STENCIL run.
func spawnFleetMember(t *testing.T, join, ranks string, extra ...string) (*exec.Cmd, *toolOutput) {
	t.Helper()
	return spawnTool(t, "chamrun", append([]string{"-bench", "STENCIL", "-class", "A", "-p", "8",
		"-transport=tcp", "-join", join, "-ranks", ranks}, extra...)...)
}

// TestTransportSubprocessBitIdentical is the literal acceptance check:
// two OS processes × four ranks each, seeded STENCIL, and the merged
// trace file is byte-identical to the one an 8-rank in-process run of
// a third process writes.
func TestTransportSubprocessBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	join := freeJoinAddr(t)
	fleetTrace := filepath.Join(t.TempDir(), "fleet.trace")
	a, _ := spawnFleetMember(t, join, "0..3", "-o", fleetTrace, "-binary")
	b, _ := spawnFleetMember(t, join, "4..7")
	if err := a.Wait(); err != nil {
		t.Fatalf("rank 0..3 member: %v", err)
	}
	if err := b.Wait(); err != nil {
		t.Fatalf("rank 4..7 member: %v", err)
	}

	want := runE2E(t, e2e{Spec: benchSpec(t, "STENCIL", "A", 8)}).Binary
	got, err := os.ReadFile(fleetTrace)
	if err != nil {
		t.Fatalf("the rank-0 member did not write its trace: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fleet trace (%d B) is not byte-identical to the in-process trace (%d B)", len(got), len(want))
	}
}

// TestTransportCrashFailover: the member hosting ranks 4..7 runs a
// crash plan that kills all four of its ranks, so its process SIGKILLs
// itself mid-run. The surviving member — a chamrun child too, since the
// fleet fingerprint is computed from chamrun's flags — must complete
// the run over sockets, report the departed ranks, journal the peer
// loss as a planned fault, and fail over the dead leads.
func TestTransportCrashFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	const faults = "crash rank=4 at marker=3; crash rank=5 at marker=3; crash rank=6 at marker=3; crash rank=7 at marker=3"
	dir := t.TempDir()
	journalPath, tracePath := filepath.Join(dir, "survivor.jsonl"), filepath.Join(dir, "survivor.trace")
	join := freeJoinAddr(t)
	// The survivor starts first and must be the one coordinating the
	// rendezvous: a fleet whose coordinator dies aborts by design.
	survivor, stdout := spawnFleetMember(t, join, "0..3", "-faults", faults,
		"-journal", "-journal-out", journalPath, "-o", tracePath, "-binary")
	for deadline := time.Now().Add(15 * time.Second); !strings.Contains(stdout.String(), "coordinating fleet"); {
		if time.Now().After(deadline) {
			t.Fatal("the surviving member never bound the rendezvous address")
		}
		time.Sleep(5 * time.Millisecond) // a child process's stdout: only polling sees it
	}
	dead, _ := spawnFleetMember(t, join, "4..7", "-faults", faults)
	deadDone := make(chan error, 1)
	go func() { deadDone <- dead.Wait() }()
	if err := survivor.Wait(); err != nil {
		t.Fatalf("surviving member: %v", err)
	}
	if want := "departed    [4 5 6 7] (crash-stopped; 4 of 8 ranks survive)"; !strings.Contains(stdout.String(), want) {
		t.Fatalf("survivor did not report %q", want)
	}
	f, err := trace.LoadAny(tracePath)
	if err != nil {
		t.Fatalf("the surviving rank-0 member did not write its trace: %v", err)
	}
	if want := []int{4, 5, 6, 7}; !reflect.DeepEqual(f.Retired, want) {
		t.Fatalf("trace retired = %v, want %v", f.Retired, want)
	}
	assertSurvivorCoverage(t, &chameleon.Output{Trace: f, Departed: f.Retired})

	journal, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	kinds := journalKinds(t, journal)
	if kinds[obs.KindFault] == 0 {
		t.Errorf("no %q events journaled for the dead member (journal: %s)", obs.KindFault, journal)
	}
	if kinds[obs.KindFailover] == 0 {
		t.Errorf("no %q events journaled after losing leads 4,5,7", obs.KindFailover)
	}
	if !bytes.Contains(journal, []byte("peer-exit")) {
		t.Errorf("journal does not attribute the loss to the peer process leaving:\n%s", journal)
	}

	// The dead member must actually be dead — killed by its own hand
	// (SIGKILL), not exited cleanly.
	select {
	case err := <-deadDone:
		if err == nil {
			t.Errorf("crashed member exited cleanly; want SIGKILL")
		}
	case <-time.After(30 * time.Second): // bounds a child process that might never exit
		t.Errorf("crashed member still running 30s after the survivor finished")
	}
}
