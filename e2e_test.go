// The root package's end-to-end fixture and the harness beside it.
//
// Every root test that runs a program through more than the one-call
// API — under a fault plan, an observer, a live session, or split over
// a TCP fleet — describes the run as an e2e and hands it to runE2E, so
// every such path is built one way. TestAttachingLeavesRunUnchanged
// holds the fixture's attachments to the plain run's results.
package chameleon_test

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http/httptest"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"chameleon"
	"chameleon/internal/analysis"
	"chameleon/internal/apps"
	"chameleon/internal/cli"
	"chameleon/internal/fleet"
	"chameleon/internal/mpi"
	"chameleon/internal/replay"
	"chameleon/internal/store"
	"chameleon/internal/trace"
)

// e2e describes one end-to-end run: a program under a tracer, on a
// backend, with what is attached to it.
type e2e struct {
	// Spec is the program: a registry benchmark (benchSpec), or a
	// hand-built spec with its own Make.
	Spec chameleon.Spec
	// Tracer is chameleon.TracerChameleon when empty.
	Tracer chameleon.Tracer
	// Fleet, when non-empty, splits the ranks over in-test TCP members,
	// one per range ("lo..hi", as chamrun -ranks takes it), each with its
	// own fleet.Connect transport and real sockets between them. Fleet[0]
	// must host rank 0: only that member holds the merged trace.
	Fleet []string
	// Plan and Seed compile a fault plan for every member; the empty
	// plan compiles to the nil injector.
	Plan string
	Seed uint64
	// Obs, when non-nil, attaches an observer built from these options
	// to every member, its journal captured (&chameleon.ObsOptions{}
	// attaches the journal alone).
	Obs *chameleon.ObsOptions
	// Live, when non-empty, names a session on an in-process chamd that
	// the observer is shipped to while the run goes (in process only).
	// As under chamrun -live, the observer then also keeps metrics, the
	// progress board and a journal tail ring.
	Live string
	// During, when non-nil, runs while a live run is in flight and is
	// given the daemon's base URL. The final delta ships after it
	// returns.
	During func(url string)
	// Config carries the overrides that need no building (K,
	// SyncEvery); the fixture sets its Obs, Fault and Transport.
	Config chameleon.Config
}

// e2eResult is what a run produced. Under a fleet, Out, Obs, Journal
// and Binary are those of the member hosting rank 0.
type e2eResult struct {
	Out     *chameleon.Output
	Obs     *chameleon.Observer
	Journal []byte
	// Binary is the merged trace's binary encoding (nil without one).
	Binary []byte
	// Members is what each fleet member produced, in Fleet order.
	Members []*e2eResult
	// View is the live session's final view.
	View *store.SessionView
}

// benchSpec builds a registry benchmark's spec.
func benchSpec(t testing.TB, name, class string, p int) chameleon.Spec {
	t.Helper()
	spec, err := chameleon.NewBenchmark(name, class, p)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return spec
}

// runE2E runs r and returns what it produced: each member of a fleet,
// or the one in-process run, on a goroutine of its own.
func runE2E(t testing.TB, r e2e) *e2eResult {
	t.Helper()
	if r.Tracer == "" {
		r.Tracer = chameleon.TracerChameleon
	}
	ranges, join := r.Fleet, ""
	switch {
	case len(ranges) == 0:
		ranges = []string{""} // one member: every rank in this process
	case r.Live != "":
		t.Fatal("e2e: a live session rides an in-process run only")
	default:
		join = freeJoinAddr(t)
	}
	fp := fmt.Sprintf("bench=%s p=%d tracer=%s faults=%s fseed=%d", r.Spec.Name, r.Spec.P, r.Tracer, r.Plan, r.Seed)
	results := make([]*e2eResult, len(ranges))
	errs := make([]error, len(ranges))
	var (
		url  string
		stop func() *store.SessionView
		wg   sync.WaitGroup
	)
	for i, ranks := range ranges {
		o, exec := r.attach(t)
		if r.Live != "" {
			url, stop = r.shipLive(t, o)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var tr chameleon.Transport
			if join != "" {
				if tr, errs[i] = fleet.Connect(ranks, mpi.TCPOptions{Join: join, P: r.Spec.P, Fingerprint: fp}); errs[i] != nil {
					return
				}
			}
			results[i], errs[i] = exec(tr)
		}()
	}
	if r.During != nil {
		r.During(url)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s member %d (ranks %q): %v", r.Spec.Name, i, ranges[i], err)
		}
	}
	res := results[0]
	if len(r.Fleet) > 0 {
		res.Members = results
	}
	if stop != nil {
		res.View = stop()
	}
	if r.Tracer != chameleon.TracerNone && res.Out.Trace == nil {
		t.Fatalf("%s: no trace produced", r.Spec.Name)
	}
	if res.Out.Trace != nil {
		res.Binary = traceBinary(t, res.Out)
	}
	return res
}

// attach compiles the fault plan and builds the observer of one
// member, as each chamrun process builds its own, and returns that
// observer and the member's run on a transport (nil: in process).
func (r e2e) attach(t testing.TB) (*chameleon.Observer, func(chameleon.Transport) (*e2eResult, error)) {
	t.Helper()
	plan, err := chameleon.ParseFaultPlan(r.Plan)
	if err != nil {
		t.Fatalf("plan %q: %v", r.Plan, err)
	}
	cfg := r.Config
	if cfg.Fault, err = chameleon.NewFaultInjector(plan, r.Seed, r.Spec.P); err != nil {
		t.Fatalf("injector: %v", err)
	}
	journal := new(bytes.Buffer)
	if r.Obs != nil || r.Live != "" {
		var opts chameleon.ObsOptions
		if r.Obs != nil {
			opts = *r.Obs
		}
		if r.Live != "" {
			opts.Metrics, opts.ProgressRanks, opts.JournalRing = true, r.Spec.P, 256
		}
		opts.Journal = journal
		cfg.Obs = chameleon.NewObserver(opts)
	}
	return cfg.Obs, func(tr chameleon.Transport) (*e2eResult, error) {
		cfg.Transport = tr
		out, err := chameleon.RunSpec(r.Spec, r.Tracer, &cfg)
		if err != nil {
			return nil, err
		}
		if cfg.Obs != nil {
			if err := cfg.Obs.Journal.Err(); err != nil {
				return nil, fmt.Errorf("journal: %w", err)
			}
		}
		return &e2eResult{Out: out, Obs: cfg.Obs, Journal: journal.Bytes()}, nil
	}
}

// shipLive stands up an in-process chamd and starts shipping o to
// session r.Live on it every millisecond. It returns the daemon's
// URL and stop, which flushes the final delta, checks the wire budget
// (at least one delta shipped, at most 16 KiB per delta on average) and
// returns the session's final view.
func (r e2e) shipLive(t testing.TB, o *chameleon.Observer) (string, func() *store.SessionView) {
	t.Helper()
	srv := newLiveDaemon(t)
	shipper, err := chameleon.NewLiveShipper(o, chameleon.LiveShipperOptions{
		URL:       srv.URL,
		Session:   r.Live,
		Benchmark: r.Spec.Name,
		P:         r.Spec.P,
		Interval:  time.Millisecond,
	})
	if err != nil {
		t.Fatalf("shipper: %v", err)
	}
	shipper.Start()
	return srv.URL, func() *store.SessionView {
		if err := shipper.Stop(); err != nil {
			t.Fatalf("shipper stop: %v", err)
		}
		st := shipper.Stats()
		if st.Deltas == 0 || st.Posts == 0 {
			t.Fatalf("shipper shipped nothing: %+v", st)
		}
		if perDelta := st.BytesOut / int64(st.Deltas); perDelta > 16<<10 {
			t.Errorf("shipper sent %d bytes per delta, over the 16 KiB budget: %+v", perDelta, st)
		}
		v, err := store.FetchLiveView(srv.URL, r.Live)
		if err != nil {
			t.Fatalf("final view: %v", err)
		}
		return v
	}
}

// newLiveDaemon stands up an in-process chamd: archive + live session
// tracker behind the real HTTP handler stack.
func newLiveDaemon(t testing.TB) *httptest.Server {
	t.Helper()
	a, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatalf("open archive: %v", err)
	}
	srv := httptest.NewServer(store.NewServer(a, store.ServerOptions{}))
	t.Cleanup(func() {
		srv.Close()
		a.Close()
	})
	return srv
}

// traceJSON serializes a trace for byte comparison.
func traceJSON(t testing.TB, out *chameleon.Output) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := out.Trace.Write(&buf); err != nil {
		t.Fatalf("serialize trace: %v", err)
	}
	return buf.Bytes()
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

// TestCausalCaptureMatchesEvaluatedRun: in process, Alltoall, Barrier
// and Allreduce are evaluated, not enacted, unless causal capture is
// on, which needs every hop's edge and so takes the message path. Each
// program here runs collectives (MG, FT, PHASE, STENCIL, BT and CG
// over the world, CG two tied Allreduce sites a step; the replay of a
// crashed PHASE run its Alltoall over the survivors' communicator, the
// replay of a fault-free STENCIL run its Allreduce nodes over part of
// the world) and, under the Chameleon tracers, the marker barrier,
// under every tracer, and the run with causal capture is held to the
// run without it: makespan, Overhead, OverheadBy and the merged binary
// trace.
func TestCausalCaptureMatchesEvaluatedRun(t *testing.T) {
	var specs []chameleon.Spec
	for _, name := range []string{"MG", "FT", "PHASE", "STENCIL", "BT", "CG"} {
		for _, p := range []int{16, 37} {
			specs = append(specs, benchSpec(t, name, "A", p))
		}
	}
	stencil := runE2E(t, e2e{Spec: benchSpec(t, "STENCIL", "A", 16)}).Out.Trace
	if !hasPartial(stencil, mpi.OpAllreduce) {
		t.Fatal("the STENCIL trace has no Allreduce over part of the world")
	}
	specs = append(specs, crashedPhaseReplay(t), replaySpec(t, "replay-stencil", stencil))
	for _, spec := range specs {
		for _, tr := range []chameleon.Tracer{chameleon.TracerNone, chameleon.TracerChameleon,
			chameleon.TracerAutoChameleon, chameleon.TracerScalaTrace, chameleon.TracerACURDION} {
			t.Run(fmt.Sprintf("%s_p%d_%s", spec.Name, spec.P, tr), func(t *testing.T) {
				evaluated := runE2E(t, e2e{Spec: spec, Tracer: tr})
				enacted := runE2E(t, e2e{Spec: spec, Tracer: tr, Obs: &chameleon.ObsOptions{CausalRanks: spec.P}})
				if enacted.Obs.Causal.EdgeCount() == 0 {
					t.Fatal("causal capture recorded no edges")
				}
				a, b := evaluated.Out, enacted.Out
				if a.Time != b.Time || a.Overhead != b.Overhead {
					t.Errorf("makespan %v vs %v, overhead %v vs %v", a.Time, b.Time, a.Overhead, b.Overhead)
				}
				if !reflect.DeepEqual(a.OverheadBy, b.OverheadBy) {
					t.Errorf("OverheadBy %v vs %v", a.OverheadBy, b.OverheadBy)
				}
				if !bytes.Equal(evaluated.Binary, enacted.Binary) {
					t.Error("binary trace bytes differ")
				}
			})
		}
	}
}

// crashedPhaseReplay is a program that replays the trace of PHASE
// P=16 with rank 3 crashed in its last phase (Alltoall and Allreduce,
// so no ring exchange has to re-close around the crash in the
// replay). The trace's Alltoall nodes after the crash cover the
// survivors only, so the replay runs them on the communicator over
// the survivors. Under chameleon-auto the replay's marker anchors on a
// world collective, never on one of those.
func crashedPhaseReplay(t *testing.T) chameleon.Spec {
	t.Helper()
	f := runE2E(t, e2e{Spec: benchSpec(t, "PHASE", "A", 16), Plan: "crash rank=3 at marker=130", Seed: 1}).Out.Trace
	if !hasPartial(f, mpi.OpAlltoall) {
		t.Fatal("the crashed PHASE trace has no Alltoall over part of the world")
	}
	return replaySpec(t, "replay", f)
}

// hasPartial reports whether f holds an op node over part of the world.
func hasPartial(f *chameleon.TraceFile, op mpi.OpCode) bool {
	var partial func(seq []*trace.Node) bool
	partial = func(seq []*trace.Node) bool {
		for _, n := range seq {
			if n.IsLoop() && partial(n.Body) || !n.IsLoop() && n.Ev.Op == op && n.Ranks.Size() < f.P {
				return true
			}
		}
		return false
	}
	return partial(f.Nodes)
}

// replaySpec is the program, named name, that replays f (replay.Body),
// for a run under a tracer or an observer.
func replaySpec(t *testing.T, name string, f *chameleon.TraceFile) chameleon.Spec {
	t.Helper()
	body, err := replay.Body(f, replay.Options{})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return chameleon.Spec{Name: name, P: f.P, K: 3, Make: func(apps.BodyOpts) func(*chameleon.Proc) { return body }}
}

// TestRetracedReplayKeepsEveryCollective: a replay traced again records
// every collective of the trace it replays, the nodes over part of the
// world included (LU's Bcast, POP's, S3D's and STENCIL's Allreduce, in
// the traces of both tracers): per op, the re-traced trace's dynamic
// collective count equals the original's.
func TestRetracedReplayKeepsEveryCollective(t *testing.T) {
	counts := func(f *chameleon.TraceFile) map[string]uint64 {
		all := analysis.Summarize(f).OpCounts
		out := map[string]uint64{}
		for op := mpi.OpBarrier; op <= mpi.OpAlltoall; op++ {
			out[op.String()] = all[op.String()]
		}
		return out
	}
	for _, name := range []string{"LU", "POP", "S3D", "STENCIL"} {
		for _, tr := range []chameleon.Tracer{chameleon.TracerScalaTrace, chameleon.TracerChameleon} {
			t.Run(fmt.Sprintf("%s_%s", name, tr), func(t *testing.T) {
				f := runE2E(t, e2e{Spec: benchSpec(t, name, "A", 16), Tracer: tr}).Out.Trace
				again := runE2E(t, e2e{Spec: replaySpec(t, "replay", f), Tracer: chameleon.TracerScalaTrace}).Out.Trace
				if want, got := counts(f), counts(again); !reflect.DeepEqual(want, got) {
					t.Errorf("collectives per op: traced %v, replay re-traced %v", want, got)
				}
			})
		}
	}
}

// canonTrace renders a merged trace with the golden-test canonicalizer
// (sites renumbered in first-seen order) for diffable failures.
func canonTrace(out *chameleon.Output) string {
	var b strings.Builder
	canonSeq(&b, out.Trace.Nodes, 0, map[uint64]int{})
	return b.String()
}

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

// TestAttachingLeavesRunUnchanged: what a run carries beside it — the
// fault hooks with nothing planned, the observer, per-edge causal
// capture, the live shipper — charges no virtual time and changes no
// byte of the merged trace. Each row is held to the plain run of its
// spec: makespan, re-clusterings, and the JSON and binary encodings.
// Piggybacked span context rides on messages that were being sent
// anyway, and shipping happens beside the run, not in it.
func TestAttachingLeavesRunUnchanged(t *testing.T) {
	phase16, phase32 := benchSpec(t, "PHASE", "A", 16), benchSpec(t, "PHASE", "A", 32)
	plain := map[int]*e2eResult{
		16: runE2E(t, e2e{Spec: phase16}),
		32: runE2E(t, e2e{Spec: phase32}),
	}
	for _, row := range []struct {
		name  string
		run   e2e
		check func(t *testing.T, r *e2eResult)
	}{
		{"nil_injector", e2e{Spec: phase16, Seed: 1, Obs: &chameleon.ObsOptions{}}, func(t *testing.T, r *e2eResult) {
			plan, err := chameleon.ParseFaultPlan("")
			if err != nil {
				t.Fatalf("parse empty plan: %v", err)
			}
			if inj, err := chameleon.NewFaultInjector(plan, 1, 16); err != nil || inj != nil {
				t.Fatalf("empty plan must compile to a nil injector: %v, %v", inj, err)
			}
			if len(r.Out.Departed) != 0 || len(r.Out.Trace.Retired) != 0 {
				t.Errorf("zero-fault run departed=%v retired=%v", r.Out.Departed, r.Out.Trace.Retired)
			}
		}},
		{"observability", e2e{Spec: phase16, Obs: &chameleon.ObsOptions{Metrics: true, TimelineRanks: 16}}, nil},
		{"causal_capture", e2e{Spec: phase16, Obs: &chameleon.ObsOptions{Metrics: true, TimelineRanks: 16, CausalRanks: 16}},
			func(t *testing.T, r *e2eResult) {
				if r.Obs.Causal.EdgeCount() == 0 {
					t.Error("causal capture recorded no edges")
				}
			}},
		{"live_shipper", e2e{Spec: phase32, Live: "e2e-unchanged"}, nil},
	} {
		t.Run(row.name, func(t *testing.T) {
			base, r := plain[row.run.Spec.P], runE2E(t, row.run)
			if base.Out.Time != r.Out.Time {
				t.Errorf("makespan changed: %v vs %v", base.Out.Time, r.Out.Time)
			}
			if base.Out.Reclusterings != r.Out.Reclusterings {
				t.Errorf("reclusterings changed: %d vs %d", base.Out.Reclusterings, r.Out.Reclusterings)
			}
			if !bytes.Equal(traceJSON(t, base.Out), traceJSON(t, r.Out)) {
				t.Error("JSON trace bytes changed")
			}
			if !bytes.Equal(base.Binary, r.Binary) {
				t.Error("binary trace bytes changed")
			}
			if row.check != nil {
				row.check(t, r)
			}
		})
	}
}
