// Package cli is the command-line tools: every binary under cmd/ is a
// flag-free entry point that hands its argv to Main. A tool body parses
// its own flag.FlagSet, writes only to the writers it is given and
// returns its failure as an error, so its defers run, tests drive the
// shipped wiring in-process, and Main is the one place an error becomes
// "tool: msg" and an exit code.
package cli

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // /debug/pprof on the -debug-addr side listener
	"os"
	"sync"
	"sync/atomic"

	"chameleon/internal/analysis"
	"chameleon/internal/obs"
	"chameleon/internal/store"
	"chameleon/internal/trace"
	"chameleon/internal/vtime"
)

// A tool is one command's body.
type tool func(ctx context.Context, args []string, stdout, stderr io.Writer) error

var tools = map[string]tool{
	"chamrun":    chamrun,
	"chamd":      chamd,
	"chamstat":   chamstat,
	"chamtop":    chamtop,
	"chamdump":   chamdump,
	"chamreplay": chamreplay,
	"chamextrap": chamextrap,
	"chamexp":    chamexp,
}

// Main runs the named tool on args (argv without the program name) and
// returns its exit code: 0 on success and -h, 2 on a usage error, 1 on
// any other failure, the error reported on stderr as "tool: msg".
func Main(ctx context.Context, name string, args []string, stdout, stderr io.Writer) int {
	run, ok := tools[name]
	if !ok {
		fmt.Fprintf(stderr, "cli: unknown tool %q\n", name)
		return 2
	}
	err := run(ctx, args, stdout, stderr)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if msg := err.Error(); msg != "" {
		fmt.Fprintf(stderr, "%s: %s\n", name, msg)
	}
	if errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}

// usageError is a wrong invocation (exit 2). An empty one is silent:
// the FlagSet has already printed the complaint and the defaults.
type usageError string

func (e usageError) Error() string { return string(e) }

// errReported fails a tool (exit 1) without a stderr line: the verdict
// is already on stdout (chamstat -diff's DIVERGED block).
var errReported = errors.New("")

// newFlags returns a tool's FlagSet, reporting to stderr and returning
// parse errors instead of exiting.
func newFlags(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

func parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return err
	}
	return usageError("")
}

// parseRefs is parse for the tools that take archive references: it
// adds the shared -tenant flag and applies it. The client tenant is a
// process global, so every invocation sets it, empty included.
func parseRefs(fs *flag.FlagSet, args []string) error {
	tenant := fs.String("tenant", "", "namespace requests to this archive tenant (X-Cham-Tenant header)")
	if err := parse(fs, args); err != nil {
		return err
	}
	store.SetTenant(*tenant)
	return nil
}

// readRef opens a path or http(s):// URL, decodes it with read and
// closes it.
func readRef[T any](ref string, read func(io.Reader) (T, error)) (T, error) {
	f, err := store.OpenRef(ref)
	if err != nil {
		return *new(T), err
	}
	defer f.Close()
	return read(f)
}

// loadEdges reads a causal edge stream, rejects an empty one, and
// returns it with the rank count its end-points imply.
func loadEdges(ref string) (edges []obs.Edge, p int, err error) {
	if edges, err = readRef(ref, obs.ReadEdges); err != nil {
		return nil, 0, fmt.Errorf("%v (run chamrun with -causal to produce an edge file)", err)
	}
	if len(edges) == 0 {
		return nil, 0, fmt.Errorf("%s: no edges", ref)
	}
	for _, e := range edges {
		p = max(p, e.From+1, e.To+1)
	}
	return edges, p, nil
}

// crossCheck is the -check block of chamstat -zstats and chamtop -zan.
func crossCheck(f *trace.File, stdout io.Writer) error {
	if _, err := analysis.CrossCheck(f, vtime.Default()); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "cross-check: closed-form metrics match the expansion oracle and the replayed event count")
	return nil
}

// writeFile creates path and fills it through write; what names the
// artifact in the error.
func writeFile(what, path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	return nil
}

// debugReg is the registry the "chameleon" expvar snapshots: that of
// the tool currently serving -debug-addr. expvar.Publish panics on a
// second call, so the variable is published once per process and
// repointed by each serveDebug.
var (
	debugReg     atomic.Pointer[obs.Registry]
	debugPublish sync.Once
)

// serveDebug serves net/http/pprof and expvar (the live metrics
// snapshot under "chameleon") on addr until the returned stop is
// called. pprof registers on the default mux, which no tool's main
// server exposes — only this side listener serves it.
func serveDebug(name, addr string, reg *obs.Registry, stderr io.Writer) (stop func()) {
	debugReg.Store(reg)
	debugPublish.Do(func() {
		expvar.Publish("chameleon", expvar.Func(func() any { return debugReg.Load().Snapshot() }))
	})
	srv := &http.Server{Addr: addr}
	go func() {
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(stderr, "%s: debug server: %v\n", name, err)
		}
	}()
	return func() { srv.Close() }
}
