package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// declaration mirrors BENCHMARK.json.
type declaration struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []declWorkload `json:"workloads"`
	EndToEnd   []declMetric   `json:"end_to_end"`
	PerLayer   []declMetric   `json:"per_layer"`
}

type declWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type declMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadDeclaration(path string) (*declaration, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declaration
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// envelope stamps a result with where and when it was measured.
type envelope struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	HostClass  string  `json:"host_class"`
	Date       string  `json:"date"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

func newEnvelope(repoRoot string, seed int64, secs float64) envelope {
	e := envelope{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		HostClass:  fmt.Sprintf("%s/%s/%dcpu", runtime.GOOS, runtime.GOARCH, runtime.NumCPU()),
		Date:       time.Now().UTC().Format(time.RFC3339),
		Seed:       seed,
		Seconds:    secs,
	}
	// The driver's checkout is not a git repository; "unknown" is the
	// honest stamp there.
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	cmd.Dir = repoRoot
	if out, err := cmd.Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
		dirty := exec.Command("git", "status", "--porcelain", "--untracked-files=no")
		dirty.Dir = repoRoot
		if out, err := dirty.Output(); err == nil && len(bytes.TrimSpace(out)) > 0 {
			e.Commit += "+dirty"
		}
	}
	return e
}

// workloadResult is one workload's row of a result file.
type workloadResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
}

// resultFile is out/result.json and one line of history.jsonl: the
// declaration it was measured under, the envelope, and the values. The
// harness defines the ruler and claims no gain, hence the null claim.
type resultFile struct {
	Envelope  envelope                   `json:"envelope"`
	Benchmark *declaration               `json:"benchmark"`
	Claim     *string                    `json:"claim"`
	Results   map[string]*workloadResult `json:"results"`
}

// childLine is the object a single-workload run prints last.
type childLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runChild re-executes this binary for one workload in one mode, so
// that the process-wide call-site table, the heap and the peak RSS of
// one workload do not leak into the next. It relays the child's output
// and returns its last line decoded.
func runChild(dir, workload string, seed int64, secs float64, traced bool) (*childLine, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	mode := "0"
	if traced {
		mode = "1"
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(secs), "-trace", mode)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	os.Stdout.Write(out) //nolint:errcheck
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var line childLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s (trace %s): %w", workload, mode, runErr)
		}
		return nil, fmt.Errorf("%s (trace %s): last line is not a result: %w", workload, mode, err)
	}
	return &line, nil
}

// runAll runs every declared workload end to end and traced, prints
// every metric, and writes out/result.json (and, given a history file,
// appends one line to it).
func runAll(dir string, decl *declaration, seed int64, secs float64, history string) error {
	res := resultFile{
		Envelope:  newEnvelope(filepath.Join(dir, ".."), seed, secs),
		Benchmark: decl,
		Results:   map[string]*workloadResult{},
	}
	failed := 0
	for _, w := range decl.Workloads {
		e2e, err := runChild(dir, w.Name, seed, secs, false)
		if err != nil {
			return err
		}
		layers, err := runChild(dir, w.Name, seed, secs, true)
		if err != nil {
			return err
		}
		res.Results[w.Name] = &workloadResult{
			Correct:   e2e.Correct && layers.Correct,
			Attempted: e2e.Attempted + layers.Attempted,
			Failed:    e2e.Failed + layers.Failed,
			EndToEnd:  e2e.Metrics,
			PerLayer:  layers.Metrics,
		}
		failed += e2e.Failed + layers.Failed
	}
	pretty, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	out := filepath.Join(dir, "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(out, "result.json"), append(pretty, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", filepath.Join(out, "result.json"))
	if history != "" {
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		f, err := os.OpenFile(history, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(append(line, '\n')); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("appended to %s\n", history)
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

// loadResults reads a result file: one JSON object (out/result.json) or
// one per line (history.jsonl, or the runs of one side of an A/B).
func loadResults(path string) ([]*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var one resultFile
	if err := json.Unmarshal(data, &one); err == nil {
		return []*resultFile{&one}, nil
	}
	var all []*resultFile
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 16<<20)
	for n := 1; sc.Scan(); n++ {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r resultFile
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		all = append(all, &r)
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("%s holds no result", path)
	}
	return all, sc.Err()
}

// verdict is the outcome of comparing one (metric, workload) pair.
type verdict string

const (
	better     verdict = "better"
	within     verdict = "within bound"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// judge applies a metric's direction and bound to the two sides' runs.
// change is worse when its median is worse than the parent's by more
// than bound (a share of the parent's median), better when it is better
// by more than bound. A pair whose run-to-run spread on the parent side
// (interquartile distance over median, which needs four runs) exceeds
// the bound is unresolved, unless every run of one side beats every run
// of the other.
func judge(parent, change []float64, lowerIsBetter bool, bound float64) verdict {
	p, c := summarize(parent), summarize(change)
	if p.Median == 0 {
		if c.Median == 0 {
			return within
		}
		return unresolved
	}
	delta := (c.Median - p.Median) / abs(p.Median) // > 0: change reads higher
	if lowerIsBetter {
		delta = -delta
	}
	// delta > 0 now means the change is better.
	if p.N >= 4 && (p.Q3-p.Q1)/abs(p.Median) > bound {
		ps, cs := sorted(parent), sorted(change)
		allBetter := cs[0] > ps[len(ps)-1]
		allWorse := cs[len(cs)-1] < ps[0]
		if lowerIsBetter {
			allBetter, allWorse = allWorse, allBetter
		}
		switch {
		case allBetter:
			return better
		case allWorse:
			return worse
		}
		return unresolved
	}
	switch {
	case delta < -bound:
		return worse
	case delta > bound:
		return better
	}
	return within
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// compareFiles prints one row per (end-to-end metric, workload).
func compareFiles(w io.Writer, parentPath, changePath string) error {
	parent, err := loadResults(parentPath)
	if err != nil {
		return err
	}
	change, err := loadResults(changePath)
	if err != nil {
		return err
	}
	decl := parent[0].Benchmark
	if decl == nil {
		return fmt.Errorf("%s carries no benchmark declaration", parentPath)
	}
	values := func(rs []*resultFile, workload, metric string) []float64 {
		var xs []float64
		for _, r := range rs {
			if wr := r.Results[workload]; wr != nil {
				if v, ok := wr.EndToEnd[metric]; ok {
					xs = append(xs, v.Value)
				}
			}
		}
		return xs
	}
	fmt.Fprintf(w, "parent: %s (%d runs, commit %s)\nchange: %s (%d runs, commit %s)\n\n",
		parentPath, len(parent), parent[0].Envelope.Commit, changePath, len(change), change[0].Envelope.Commit)
	fmt.Fprintf(w, "%-20s %-26s %14s %14s %8s %7s  %s\n", "workload", "metric", "parent", "change", "delta", "bound", "verdict")
	counts := map[verdict]int{}
	for _, wl := range decl.Workloads {
		for _, m := range decl.EndToEnd {
			p, c := values(parent, wl.Name, m.Name), values(change, wl.Name, m.Name)
			if len(p) == 0 || len(c) == 0 {
				fmt.Fprintf(w, "%-20s %-26s %14s %14s %8s %7s  %s\n", wl.Name, m.Name, "-", "-", "-", "-", "missing on one side")
				counts[unresolved]++
				continue
			}
			bound := 0.0
			if m.Bound != nil {
				bound = *m.Bound
			}
			v := judge(p, c, m.Better == "lower", bound)
			counts[v]++
			pm, cm := median(p), median(c)
			delta := 0.0
			if pm != 0 {
				delta = (cm - pm) / abs(pm) * 100
			}
			fmt.Fprintf(w, "%-20s %-26s %14.6g %14.6g %+7.2f%% %6.1f%%  %s\n", wl.Name, m.Name, pm, cm, delta, bound*100, v)
		}
	}
	keys := make([]string, 0, len(counts))
	for v, n := range counts {
		keys = append(keys, fmt.Sprintf("%d %s", n, v))
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "\n%s\n", strings.Join(keys, ", "))
	return nil
}
