package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"chameleon"
	"chameleon/internal/analysis"
	"chameleon/internal/apps"
	"chameleon/internal/causal"
	"chameleon/internal/clock"
	"chameleon/internal/cq"
	"chameleon/internal/mesh"
	"chameleon/internal/mpi"
	"chameleon/internal/obs"
	"chameleon/internal/replay"
	"chameleon/internal/store"
	"chameleon/internal/trace"
	"chameleon/internal/tracer"
	"chameleon/internal/wave"
	"chameleon/internal/zan"
)

// run is one in-process tool invocation, exactly as cmd/<tool>/main.go
// makes it.
func run(t testing.TB, tool string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb bytes.Buffer
	code = Main(context.Background(), tool, args, &out, &errb)
	return out.String(), errb.String(), code
}

// mustRun is run for an invocation that has to succeed.
func mustRun(t testing.TB, tool string, args ...string) string {
	t.Helper()
	stdout, stderr, code := run(t, tool, args...)
	if code != 0 {
		t.Fatalf("%s %s: exit %d\nstderr: %s", tool, strings.Join(args, " "), code, stderr)
	}
	return stdout
}

// goldenSections splits a testdata file of "$ tool args" headed sections
// into header -> body.
func goldenSections(t *testing.T, path string) (headers []string, body map[string]string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body = map[string]string{}
	for _, sec := range strings.Split("\n"+string(raw), "\n$ ")[1:] {
		header, rest, _ := strings.Cut(sec, "\n")
		headers = append(headers, header)
		body[header] = rest
	}
	return headers, body
}

// flagBlocks parses PrintDefaults output into flag name -> its block
// (type, usage string, default).
func flagBlocks(help string) map[string]string {
	blocks := map[string]string{}
	for _, b := range strings.Split("\n"+help, "\n  -")[1:] {
		name, _, _ := strings.Cut(strings.SplitN(b, "\n", 2)[0], " ")
		blocks[name] = strings.TrimRight(b, "\n")
	}
	return blocks
}

// TestFlagSurface pins "no new knob": name, default and usage string of
// every flag of every tool equal testdata/flags.golden — the -h output
// of the binaries built at the commit before the tools moved here (92
// flags) — plus exactly the -tenant fix on chamreplay and chamextrap.
func TestFlagSurface(t *testing.T) {
	headers, golden := goldenSections(t, "testdata/flags.golden")
	if len(headers) != len(tools) {
		t.Fatalf("golden covers %d tools, the table has %d", len(headers), len(tools))
	}
	tenant := flagBlocks(golden["chamdump -h"])["tenant"]
	total := 0
	for _, header := range headers {
		name := strings.TrimSuffix(header, " -h")
		want := flagBlocks(golden[header])
		total += len(want)
		if name == "chamreplay" || name == "chamextrap" {
			want["tenant"] = tenant
		}
		_, help, code := run(t, name, "-h")
		if code != 0 {
			t.Errorf("%s -h: exit %d, want 0", name, code)
		}
		got := flagBlocks(help)
		for flag, block := range want {
			if got[flag] != block {
				t.Errorf("%s -%s:\n got %q\nwant %q", name, flag, got[flag], block)
			}
		}
		for flag := range got {
			if _, ok := want[flag]; !ok {
				t.Errorf("%s grew a flag: -%s", name, flag)
			}
		}
		// The synopsis lines above the defaults (chamtop's usage) hold too.
		if g, w := strings.SplitN(help, "\n  -", 2)[0], strings.SplitN(golden[header], "\n  -", 2)[0]; g != w {
			t.Errorf("%s usage header:\n got %q\nwant %q", name, g, w)
		}
	}
	if total != 89 {
		t.Errorf("golden holds %d flags, want 89", total)
	}
}

// TestOptionSurface is TestFlagSurface for the knobs below the flags:
// every exported field of every option struct, as "pkg.Type.Field type",
// equals testdata/options.golden, so a new option shows up in review the
// way a new flag does. A field nothing sets is a constant, not a line
// here.
func TestOptionSurface(t *testing.T) {
	var got []string
	for _, v := range []any{
		chameleon.Config{},
		analysis.CompareOpts{}, apps.BodyOpts{}, cq.Options{}, mesh.Options{},
		mpi.Config{}, mpi.TCPOptions{}, obs.Options{}, obs.ShipperOptions{},
		replay.Options{}, store.Options{}, store.LiveOptions{},
		store.ServerOptions{}, tracer.Options{}, wave.Options{}, zan.Options{},
	} {
		ty := reflect.TypeOf(v)
		for i := 0; i < ty.NumField(); i++ {
			if f := ty.Field(i); f.IsExported() {
				got = append(got, fmt.Sprintf("%s.%s %s", ty, f.Name, f.Type))
			}
		}
	}
	raw, err := os.ReadFile("testdata/options.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	for _, line := range got {
		if !slices.Contains(want, line) {
			t.Errorf("grew an option: %s", line)
		}
	}
	for _, line := range want {
		if !slices.Contains(got, line) {
			t.Errorf("golden option gone or retyped: %s", line)
		}
	}
	if len(want) != 88 {
		t.Errorf("golden holds %d options, want 88", len(want))
	}
}

// TestStdoutGoldens: stdout and exit code of every read-only mode over
// the committed fixtures equal testdata/stdout.golden, captured from the
// binaries built at the commit before the tools moved here. Fixtures,
// not fresh runs: call-site signatures move with code layout. Each
// section is "$ tool args", the stdout, then "exit N".
func TestStdoutGoldens(t *testing.T) {
	headers, golden := goldenSections(t, "testdata/stdout.golden")
	if len(headers) < 19 {
		t.Fatalf("only %d golden invocations", len(headers))
	}
	for _, header := range headers {
		t.Run(header, func(t *testing.T) {
			argv := strings.Fields(header)
			i := strings.LastIndex(golden[header], "exit ")
			wantOut := golden[header][:i]
			wantCode, err := strconv.Atoi(strings.TrimSpace(golden[header][i+len("exit "):]))
			if err != nil {
				t.Fatal(err)
			}
			stdout, stderr, code := run(t, argv[0], argv[1:]...)
			if code != wantCode {
				t.Errorf("exit %d, want %d (stderr: %s)", code, wantCode, stderr)
			}
			if stdout != wantOut {
				t.Errorf("stdout diverged:\n got:\n%s\nwant:\n%s", stdout, wantOut)
			}
		})
	}
}

// TestThinMains: every cmd/<tool>/main.go is a flag-free entry point —
// imports os, context and this package only, and main is the one
// os.Exit(cli.Main(...)) statement — for exactly the tools in the table.
func TestThinMains(t *testing.T) {
	mains, err := filepath.Glob("../../cmd/*/main.go")
	if err != nil || len(mains) != len(tools) {
		t.Fatalf("found %d mains for %d tools (%v)", len(mains), len(tools), err)
	}
	for _, path := range mains {
		name := filepath.Base(filepath.Dir(path))
		if _, ok := tools[name]; !ok {
			t.Errorf("%s: no such tool in the table", path)
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); !slices.Contains([]string{"os", "context", "chameleon/internal/cli"}, p) {
				t.Errorf("%s imports %s", path, p)
			}
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn.Name.Name != "main" || len(fn.Body.List) > 3 {
				t.Errorf("%s: func %s with %d statements; want only a main of at most 3", path, fn.Name.Name, len(fn.Body.List))
			}
		}
		src, _ := os.ReadFile(path)
		if !bytes.Contains(src, []byte(fmt.Sprintf("cli.Main(context.Background(), %q, os.Args[1:], os.Stdout, os.Stderr)", name))) {
			t.Errorf("%s does not enter cli.Main as %q", path, name)
		}
	}
}

// TestUsageErrors: wrong invocations exit 2 with a stderr line and no
// stdout — including the modifier flags that used to be silently
// ignored without the mode they modify.
func TestUsageErrors(t *testing.T) {
	const trc = "../../testdata/compat_v1_phase.trc"
	for _, argv := range [][]string{
		{"chamstat", "-check", trc},
		{"chamstat", "-tolerate-ranks", "auto", trc},
		{"chamstat", "-cols", "4", trc},
		{"chamstat"},
		{"chamstat", "-diff", trc},
		{"chamstat", "-no-such-flag"},
		{"chamtop", "-check", "testdata/stencil4.journal.jsonl"},
		{"chamtop", "-cols", "4", "testdata/stencil4.journal.jsonl"},
		{"chamtop"},
		{"chamdump"},
		{"chamreplay", "-delta", "median", trc},
		{"chamextrap", trc},
		{"chamexp", "-only", "fig99"},
		{"chamrun", "-push-edges"},
		{"chamrun", "-ranks", "0..3"},
		{"chamrun", "-algo", "k-mediod"},
		{"chamrun", "-class", "E"},
		{"chamd", "-peers", "http://127.0.0.1:1"},
		{"chamnope"},
	} {
		stdout, stderr, code := run(t, argv[0], argv[1:]...)
		if code != 2 || stdout != "" || stderr == "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and stderr only", argv, code, stdout, stderr)
		}
	}
	// A failure is exit 1 and "tool: msg".
	_, stderr, code := run(t, "chamdump", "testdata/no-such.trc")
	if code != 1 || !strings.HasPrefix(stderr, "chamdump: ") {
		t.Errorf("missing trace: exit %d, stderr %q", code, stderr)
	}
	_, stderr, _ = run(t, "chamstat")
	for _, mode := range []string{"-volumes", "-matrix", "-zstats", "-check", "-diff", "-tolerate-ranks", "-waves", "-cols"} {
		if !strings.Contains(stderr, mode) {
			t.Errorf("chamstat usage line omits %s: %s", mode, stderr)
		}
	}
}

// freeAddr reserves an ephemeral localhost port.
func freeAddr(t testing.TB) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// startChamd runs the chamd body in-process on a fresh port and archive
// directory and returns its base URL. Cleanup cancels it — the in-process
// form of SIGTERM — and requires a clean exit.
func startChamd(t *testing.T, args ...string) (base string) {
	t.Helper()
	addr := freeAddr(t)
	ctx, cancel := context.WithCancel(context.Background())
	var stderr bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- Main(ctx, "chamd", append([]string{"-addr", addr, "-dir", t.TempDir()}, args...), new(bytes.Buffer), &stderr)
	}()
	t.Cleanup(func() {
		cancel()
		if code := <-done; code != 0 {
			t.Errorf("chamd exit %d: %s", code, stderr.String())
		}
	})
	base = "http://" + addr
	// chamd binds a real listener on its own goroutine: only polling sees it.
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if resp, err := http.Get(base + "/healthz"); err == nil {
			resp.Body.Close()
			return base
		}
		if time.Now().After(deadline) {
			t.Fatalf("chamd on %s never became healthy", addr)
		}
	}
}

var pushedRE = regexp.MustCompile(`(?m)^pushed      (http://\S+/runs/[0-9a-f]{12}) \((stored|dedup),`)

// pushRun traces STENCIL P=4 under the given tracer with chamrun and
// pushes it; it returns chamrun's stdout and the run URL it printed.
func pushRun(t *testing.T, base, tracer string, extra ...string) (stdout, runURL string) {
	t.Helper()
	stdout = mustRun(t, "chamrun", append([]string{"-bench", "STENCIL", "-class", "A", "-p", "4",
		"-tracer", tracer, "-push", base}, extra...)...)
	m := pushedRE.FindStringSubmatch(stdout)
	if m == nil {
		t.Fatalf("chamrun printed no pushed line:\n%s", stdout)
	}
	return stdout, m[1]
}

// TestToolChain is the paper's workflow end to end, every step a tool
// body: chamd <- chamrun -push -causal -push-edges -live, then
// chamstat -diff / -waves against the archive and chamtop -follow.
func TestToolChain(t *testing.T) {
	base := startChamd(t)
	edges := filepath.Join(t.TempDir(), "edges.jsonl")
	stdout, chamURL := pushRun(t, base, "chameleon", "-causal", "-edges-out", edges, "-push-edges",
		"-live", base, "-live-session", "chain", "-live-interval", "5ms")
	for _, want := range []string{"live        " + base + "/live/sessions/chain", "live        shipped ", "pushed      edge sidecar for "} {
		if !strings.Contains(stdout, want) {
			t.Errorf("chamrun stdout lacks %q:\n%s", want, stdout)
		}
	}
	_, scalaURL := pushRun(t, base, "scalatrace")
	if chamURL == scalaURL {
		t.Fatalf("both tracers pushed the same run %s", chamURL)
	}

	// "Chameleon does not miss any MPI event": the online trace diffs
	// clean against the ScalaTrace trace of the same run, from the archive.
	if out := mustRun(t, "chamstat", "-diff", chamURL, scalaURL); !strings.HasPrefix(out, "traces are event-equivalent (") {
		t.Errorf("chamstat -diff: %s", out)
	}
	// The server-side wave report over the sidecar equals the local one
	// over the edge file chamrun wrote, header line aside.
	_, remote, _ := strings.Cut(mustRun(t, "chamstat", "-waves", chamURL), "\n")
	_, local, _ := strings.Cut(mustRun(t, "chamstat", "-waves", edges), "\n")
	if remote != local || !strings.HasPrefix(remote, "idle waves: ") {
		t.Errorf("server-side wave report:\n%s\nlocal:\n%s", remote, local)
	}
	frame := mustRun(t, "chamtop", "-follow", base, "-once")
	for _, want := range []string{"chain", "STENCIL"} {
		if !strings.Contains(frame, want) {
			t.Errorf("chamtop -follow frame lacks %q:\n%s", want, frame)
		}
	}
}

// TestReplayTenant: the reference-taking tools that had no -tenant can
// now reach a run stored under a non-default tenant; without the flag
// the archive answers 404.
func TestReplayTenant(t *testing.T) {
	base := startChamd(t)
	_, runURL := pushRun(t, base, "chameleon", "-tenant", "t1")
	for _, argv := range [][]string{{"chamreplay"}, {"chamextrap", "-target", "8"}} {
		tool, args := argv[0], argv[1:]
		mustRun(t, tool, append(args, "-tenant", "t1", runURL)...)
		_, stderr, code := run(t, tool, append(args, runURL)...)
		if code != 1 || !strings.Contains(stderr, "404") {
			t.Errorf("%s without -tenant: exit %d, stderr %q; want 1 and the server's 404", tool, code, stderr)
		}
	}
}

// TestAutoMarkerCrashPlan: chamrun takes a crash plan under
// -tracer chameleon-auto, whose automatically placed markers are marker
// barriers the crash fires at, and reports the departed rank.
func TestAutoMarkerCrashPlan(t *testing.T) {
	stdout, stderr, code := run(t, "chamrun", "-bench", "PHASE", "-class", "A", "-p", "16",
		"-tracer", "chameleon-auto", "-faults", "crash rank=3 at marker=2")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "departed    [3] (crash-stopped; 15 of 16 ranks survive)") {
		t.Errorf("stdout does not report rank 3 departed:\n%s", stdout)
	}
}

// TestFailedRunLeavesDiagnostics: a run that fails still writes the
// telemetry its observer captured, then reports the error and exits 1.
func TestFailedRunLeavesDiagnostics(t *testing.T) {
	dir := t.TempDir()
	timeline, metrics := filepath.Join(dir, "t.json"), filepath.Join(dir, "m.json")
	_, stderr, code := run(t, "chamrun", "-bench", "PHASE", "-class", "A", "-p", "8", "-tracer", "bogus",
		"-timeline", "-timeline-out", timeline, "-metrics-out", metrics)
	if code != 1 || !strings.Contains(stderr, "chamrun: ") || !strings.Contains(stderr, "bogus") {
		t.Fatalf("exit %d, stderr %q; want 1 and the run error", code, stderr)
	}
	tf, err := os.Open(timeline)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	if _, err := causal.ReadChromeTrace(tf); err != nil {
		t.Errorf("timeline of the failed run does not parse: %v", err)
	}
	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Errorf("metrics of the failed run do not parse: %v", err)
	}
}

// TestChamdServeFailureUnwinds: chamd on an occupied port returns the
// serve error through its defers, so the same process can reopen the
// archive directory — and serve it — straight away.
func TestChamdServeFailureUnwinds(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dir := t.TempDir()
	_, stderr, code := run(t, "chamd", "-addr", ln.Addr().String(), "-dir", dir, "-compact-every", "1ms",
		"-journal-out", filepath.Join(dir, "store.jsonl"))
	if code != 1 || !strings.Contains(stderr, "chamd: serve: ") {
		t.Fatalf("exit %d, stderr %q; want 1 and the serve error", code, stderr)
	}
	// chamd waited for its maintenance loop before closing the archive.
	stacks := make([]byte, 1<<20)
	if stacks = stacks[:runtime.Stack(stacks, true)]; bytes.Contains(stacks, []byte("cli.maintain(")) {
		t.Errorf("the failed chamd left its maintenance loop running")
	}
	base := startChamd(t, "-dir", dir)
	if _, err := store.FetchRuns(base, "", 0, 0); err != nil {
		t.Errorf("second chamd over the same directory: %v", err)
	}
}

// TestBackgroundCompaction: each period of chamd's maintenance loop
// reclaims the segment a deleted run left behind, and the loop returns
// when its context ends.
func TestBackgroundCompaction(t *testing.T) {
	dir := t.TempDir()
	a, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	f, err := trace.LoadAny("testdata/phase8.trc")
	if err != nil {
		t.Fatal(err)
	}
	run, _, err := a.Ingest(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Delete(run.ID); err != nil {
		t.Fatal(err)
	}
	segments := func() int {
		t.Helper()
		segs, err := filepath.Glob(filepath.Join(dir, "segments", "*", "*.seg"))
		if err != nil {
			t.Fatal(err)
		}
		return len(segs)
	}
	if n := segments(); n != 1 {
		t.Fatalf("%d segments after the delete, want the orphan", n)
	}

	clk := clock.NewFake(time.Unix(1_700_000_000, 0))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		maintain(ctx, clk, time.Minute, a, nil, nil)
	}()
	clk.BlockUntil(1)
	clk.Advance(time.Minute - time.Millisecond)
	if n := segments(); n != 1 {
		t.Fatalf("%d segments before the first period ended, want the orphan still there", n)
	}
	clk.Advance(time.Millisecond)
	clk.BlockUntil(1) // the period's pass has run and the next is armed
	if n := segments(); n != 0 {
		t.Fatalf("the maintenance loop left %d orphaned segments", n)
	}
	cancel()
	<-done
}
