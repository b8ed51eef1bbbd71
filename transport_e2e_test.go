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
	"context"
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
	"chameleon/internal/cli"
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

// Re-exec plumbing: the acceptance scenarios want genuine OS processes
// running the shipped tools. A test binary started with CHAMELEON_TOOL
// set is that tool — its argv goes straight to cli.Main, the same entry
// cmd/<tool>/main.go uses — so a child exercises the real flag parsing
// and wiring, not a test's copy of it.
const toolEnv = "CHAMELEON_TOOL"

func TestMain(m *testing.M) {
	if tool := os.Getenv(toolEnv); tool != "" {
		os.Exit(cli.Main(context.Background(), tool, os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// toolOutput is a child's combined stdout+stderr, readable while the
// child is still writing it.
type toolOutput struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (o *toolOutput) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.Write(p)
}

func (o *toolOutput) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.String()
}

// spawnTool re-execs the test binary as one tool invocation. Its output
// is logged if the test fails; the child is killed at cleanup if it is
// still running.
func spawnTool(t *testing.T, tool string, args ...string) (*exec.Cmd, *toolOutput) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), toolEnv+"="+tool)
	out := new(toolOutput)
	cmd.Stdout = out
	cmd.Stderr = out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill() //nolint:errcheck — usually already exited
		cmd.Wait()         //nolint:errcheck
		if t.Failed() {
			t.Logf("%s %s output:\n%s", tool, strings.Join(args, " "), out)
		}
	})
	return cmd, out
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
	if kinds[obsKindFault] == 0 {
		t.Errorf("no %q events journaled for the dead member (journal: %s)", obsKindFault, journal)
	}
	if kinds[obsKindFailover] == 0 {
		t.Errorf("no %q events journaled after losing leads 4,5,7", obsKindFailover)
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

const (
	obsKindFault    = "fault"
	obsKindFailover = "lead_failover"
)
