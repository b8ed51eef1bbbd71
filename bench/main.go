// Command bench is the repository's one benchmark harness. It measures
// the pipeline "events recorded at the ranks → merged trace → durable on
// an R=2 chamd mesh → query answered" end to end and, in a separate
// traced run, layer by layer. BENCHMARK.json at the repository root
// declares its workloads, metrics and regression bounds; README.md in
// this directory explains them.
//
// One workload, as the driver runs it:
//
//	bash bench/run.sh --workload stencil_ch_p1024 --seed 7 --seconds 15 --trace 0
//
// Every workload, end to end and traced, into out/result.json:
//
//	bash bench/run.sh [-seed n] [-seconds n] [-record]
//
// Two result files against each other:
//
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload and print its result object; empty runs them all")
		seed     = flag.Int64("seed", 1, "seed of run labels, the archive op sequence, edge choice and read targets")
		secs     = flag.Float64("seconds", 0, "seconds one run measures (default: run_seconds of BENCHMARK.json)")
		traced   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
		record   = flag.Bool("record", false, "with no -workload: append the result to the history file")
		history  = flag.String("history", "", "history file of -record (default: history.jsonl in this directory)")
		compare  = flag.Bool("compare", false, "compare two result files given as arguments")
	)
	flag.Parse()
	// Ranks are goroutines; more than four threads only adds scheduler
	// noise on the small boxes this runs on.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	var err error
	switch {
	case *compare && flag.NArg() == 2:
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *compare:
		err = fmt.Errorf("-compare takes two result files")
	default:
		err = measure(*workload, *seed, *secs, *traced != 0, *record, *history)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// measure runs one workload in one mode, or all of them in both.
func measure(workload string, seed int64, secs float64, traced, record bool, history string) error {
	dir, err := benchDir()
	if err != nil {
		return err
	}
	decl, err := loadDeclaration(filepath.Join(dir, "..", "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if secs <= 0 {
		secs = float64(decl.RunSeconds)
	}
	if workload == "" {
		if !record {
			history = ""
		} else if history == "" {
			history = filepath.Join(dir, "history.jsonl")
		}
		return runAll(dir, decl, seed, secs, history)
	}
	rep, err := runWorkload(runConfig{
		workload: workload, seed: seed, seconds: secs, traced: traced,
		outDir:  filepath.Join(dir, "out"),
		workDir: filepath.Join(dir, "out", fmt.Sprintf("work-%s-%d", workload, os.Getpid())),
	})
	if err != nil {
		return err
	}
	if miss := rep.missing(); len(miss) > 0 {
		return fmt.Errorf("%s produced no value for %v", workload, miss)
	}
	if err := rep.print(os.Stdout); err != nil {
		return err
	}
	if !rep.correct() {
		return fmt.Errorf("%s: %d of %d operations failed", workload, rep.failed, rep.attempted)
	}
	return nil
}

// benchDir finds this module's directory: the working directory when
// started by run.sh or `go run .`, or ./bench from the repository root.
func benchDir() (string, error) {
	for _, dir := range []string{".", "bench"} {
		if _, err := os.Stat(filepath.Join(dir, "run.sh")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "..", "BENCHMARK.json")); err == nil {
				return filepath.Abs(dir)
			}
		}
	}
	return "", fmt.Errorf("run from the repository root or from bench/ (BENCHMARK.json and bench/run.sh not found)")
}
