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
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"chameleon"
	"chameleon/internal/fleet"
	"chameleon/internal/mpi"
	"chameleon/internal/trace"
	"chameleon/internal/zan"
)

// freeJoinAddr grabs an ephemeral localhost port for a rendezvous.
func freeJoinAddr(t testing.TB) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// fleetMemberOut is one member's view of a fleet run.
type fleetMemberOut struct {
	out   *chameleon.Output
	edges int
}

// runTCPFleetBenchmark splits a P-rank benchmark across in-test TCP
// members (one goroutine-hosted transport per [lo,hi] range, real
// sockets between them) and returns each member's output.
func runTCPFleetBenchmark(t *testing.T, bench, class string, p int, members [][2]int) []fleetMemberOut {
	t.Helper()
	addr := freeJoinAddr(t)
	fp := fmt.Sprintf("%s/%s/p%d", bench, class, p)
	outs := make([]fleetMemberOut, len(members))
	errs := make([]error, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			observer := chameleon.NewObserver(chameleon.ObsOptions{CausalRanks: p})
			tr, err := mpi.NewTCPTransport(mpi.TCPOptions{
				Join: addr, RankLo: lo, RankHi: hi, P: p, Fingerprint: fp,
			})
			if err != nil {
				errs[i] = err
				return
			}
			out, err := chameleon.RunBenchmark(bench, class, p, chameleon.TracerChameleon,
				&chameleon.Config{Obs: observer, Transport: tr})
			if err != nil {
				errs[i] = err
				return
			}
			outs[i] = fleetMemberOut{out: out, edges: observer.Causal.EdgeCount()}
		}(i, m[0], m[1])
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("fleet member %d (ranks %d..%d): %v", i, members[i][0], members[i][1], err)
		}
	}
	return outs
}

// canonTrace renders a merged trace with the golden-test canonicalizer
// (sites renumbered in first-seen order) for diffable failures.
func canonTrace(out *chameleon.Output) string {
	var b strings.Builder
	canonSeq(&b, out.Trace.Nodes, 0, map[uint64]int{})
	return b.String()
}

// traceBinary serializes a merged trace in the compact binary format
// (site table included), the strongest byte-level identity check.
func traceBinary(t testing.TB, out *chameleon.Output) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := out.Trace.WriteBinary(&buf); err != nil {
		t.Fatalf("serialize trace: %v", err)
	}
	return buf.Bytes()
}

// TestTransportCrossBackendDeterminism: same seeded benchmark run
// in-process and as a TCP fleet — P=8 as 2×4 ranks, and the
// acceptance-scale P=64 world split four ways. The merged traces must
// agree in canonical structure and raw signature bytes, the causal edge
// totals must match (each member records the edges its ranks close),
// and the zan closed-form stats must be identical — the compressed
// representation, not just the makespan, is transport-invariant.
func TestTransportCrossBackendDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process fleet runs are not short")
	}
	for _, row := range []struct {
		name, bench string
		p           int
		members     [][2]int
	}{
		{"PHASE", "PHASE", 8, [][2]int{{0, 3}, {4, 7}}},
		{"STENCIL", "STENCIL", 8, [][2]int{{0, 3}, {4, 7}}},
		{"STENCIL_p64x4", "STENCIL", 64, [][2]int{{0, 15}, {16, 31}, {32, 47}, {48, 63}}},
	} {
		bench, p := row.bench, row.p
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			observer := chameleon.NewObserver(chameleon.ObsOptions{CausalRanks: p})
			inproc, err := chameleon.RunBenchmark(bench, "A", p, chameleon.TracerChameleon,
				&chameleon.Config{Obs: observer})
			if err != nil {
				t.Fatal(err)
			}
			outs := runTCPFleetBenchmark(t, bench, "A", p, row.members)

			if got, want := outs[0].out.Time, inproc.Time; got != want {
				t.Errorf("fleet makespan %v, want in-process %v", got, want)
			}
			if got, want := canonTrace(outs[0].out), canonTrace(inproc); got != want {
				t.Errorf("canonical trace structure diverged across backends:\nfleet:\n%s\nin-process:\n%s", got, want)
			}
			if !bytes.Equal(traceBinary(t, outs[0].out), traceBinary(t, inproc)) {
				t.Errorf("binary trace bytes (signatures included) diverged across backends")
			}
			fleetEdges := 0
			for _, m := range outs {
				fleetEdges += m.edges
			}
			if want := observer.Causal.EdgeCount(); fleetEdges != want {
				t.Errorf("fleet causal edges = %d (summed over members), want %d", fleetEdges, want)
			}
			// Analyze the serialized artifact, not the in-memory tree:
			// cross-process merge traffic rides the binary trace codec,
			// whose delta histograms quantize, so in-memory stats can
			// differ in the 7th digit while the persisted traces (and
			// everything computed from them) are bit-identical.
			reload := func(raw []byte) *chameleon.TraceFile {
				f, err := trace.ReadBinary(bytes.NewReader(raw))
				if err != nil {
					t.Fatal(err)
				}
				return f
			}
			fleetZan, err := zan.Analyze(reload(traceBinary(t, outs[0].out)), zan.Options{})
			if err != nil {
				t.Fatal(err)
			}
			inprocZan, err := zan.Analyze(reload(traceBinary(t, inproc)), zan.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fleetZan, inprocZan) {
				t.Errorf("zan closed-form stats diverged across backends:\n%v", zan.Diff(fleetZan, inprocZan, 0))
			}
		})
	}
}

// Re-exec plumbing: the acceptance scenario wants genuine OS processes.
// TestTransportFleetChild is not a test — it is the body of a child
// process, gated behind an env var so a plain `go test` never runs it.
const (
	childEnv    = "CHAMELEON_FLEET_CHILD"
	childJoin   = "CHAMELEON_FLEET_JOIN"
	childRanks  = "CHAMELEON_FLEET_RANKS"
	childOut    = "CHAMELEON_FLEET_OUT"
	childFaults = "CHAMELEON_FLEET_FAULTS"
)

func TestTransportFleetChild(t *testing.T) {
	if os.Getenv(childEnv) == "" {
		t.Skip("fleet child helper; driven by the subprocess tests")
	}
	const p = 8
	var injector *chameleon.FaultInjector
	if spec := os.Getenv(childFaults); spec != "" {
		plan, err := chameleon.ParseFaultPlan(spec)
		if err != nil {
			t.Fatal(err)
		}
		injector, err = chameleon.NewFaultInjector(plan, 1, p)
		if err != nil {
			t.Fatal(err)
		}
	}
	tr, err := fleet.Connect(os.Getenv(childRanks), mpi.TCPOptions{
		Join:        os.Getenv(childJoin),
		P:           p,
		Fingerprint: "subprocess-e2e",
		ExitOnCrash: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := chameleon.RunBenchmark("STENCIL", "A", p, chameleon.TracerChameleon,
		&chameleon.Config{Transport: tr, Fault: injector})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Info().HostsRank0 {
		if path := os.Getenv(childOut); path != "" {
			if err := out.Trace.SaveBinary(path); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// spawnFleetChild re-execs the test binary as one fleet member.
func spawnFleetChild(t *testing.T, join, ranks, out, faults string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestTransportFleetChild$", "-test.v")
	cmd.Env = append(os.Environ(),
		childEnv+"=1", childJoin+"="+join, childRanks+"="+ranks,
		childOut+"="+out, childFaults+"="+faults)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	t.Cleanup(func() {
		if t.Failed() && buf.Len() > 0 {
			t.Logf("child %s output:\n%s", ranks, buf.String())
		}
	})
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd
}

// TestTransportSubprocessBitIdentical is the literal acceptance check:
// two OS processes × four ranks each, seeded STENCIL, and the merged
// trace file is byte-identical to the one an 8-rank in-process run of
// a third process writes.
func TestTransportSubprocessBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	dir := t.TempDir()
	join := freeJoinAddr(t)
	fleetTrace := filepath.Join(dir, "fleet.trace")
	a := spawnFleetChild(t, join, "0..3", fleetTrace, "")
	b := spawnFleetChild(t, join, "4..7", "", "")
	if err := a.Wait(); err != nil {
		t.Fatalf("rank 0..3 member: %v", err)
	}
	if err := b.Wait(); err != nil {
		t.Fatalf("rank 4..7 member: %v", err)
	}

	inproc, err := chameleon.RunBenchmark("STENCIL", "A", 8, chameleon.TracerChameleon, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := traceBinary(t, inproc)
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
// itself mid-run. The surviving in-test member must complete the run
// over sockets, report the departed ranks, journal the peer loss as a
// planned fault, and fail over the dead leads.
func TestTransportCrashFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	const p = 8
	const faults = "crash rank=4 at marker=3; crash rank=5 at marker=3; crash rank=6 at marker=3; crash rank=7 at marker=3"
	join := freeJoinAddr(t)
	child := spawnFleetChild(t, join, "4..7", "", faults)
	childDone := make(chan error, 1)
	go func() { childDone <- child.Wait() }()

	plan, err := chameleon.ParseFaultPlan(faults)
	if err != nil {
		t.Fatal(err)
	}
	injector, err := chameleon.NewFaultInjector(plan, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	var journal bytes.Buffer
	observer := chameleon.NewObserver(chameleon.ObsOptions{Journal: &journal})
	tr, err := fleet.Connect("0..3", mpi.TCPOptions{
		Join: join, P: p, Fingerprint: "subprocess-e2e",
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := chameleon.RunBenchmark("STENCIL", "A", p, chameleon.TracerChameleon,
		&chameleon.Config{Obs: observer, Transport: tr, Fault: injector})
	if err != nil {
		t.Fatalf("surviving member: %v", err)
	}
	if want := []int{4, 5, 6, 7}; !reflect.DeepEqual(out.Departed, want) {
		t.Fatalf("departed = %v, want %v", out.Departed, want)
	}
	assertSurvivorCoverage(t, out)

	kinds := journalKinds(t, journal.Bytes())
	if kinds[obsKindFault] == 0 {
		t.Errorf("no %q events journaled for the dead member (journal: %s)", obsKindFault, journal.String())
	}
	if kinds[obsKindFailover] == 0 {
		t.Errorf("no %q events journaled after losing leads 4,5,7", obsKindFailover)
	}
	if !strings.Contains(journal.String(), "peer-exit") {
		t.Errorf("journal does not attribute the loss to the peer process leaving:\n%s", journal.String())
	}

	// The dead member must actually be dead — killed by its own hand
	// (SIGKILL), not exited cleanly.
	select {
	case err := <-childDone:
		if err == nil {
			t.Errorf("crashed member exited cleanly; want SIGKILL")
		}
	case <-time.After(30 * time.Second):
		t.Errorf("crashed member still running 30s after the survivor finished")
	}
}

const (
	obsKindFault    = "fault"
	obsKindFailover = "lead_failover"
)
