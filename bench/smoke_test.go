package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

func declared(t *testing.T) *declaration {
	t.Helper()
	decl, err := loadDeclaration(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return decl
}

func names(ms []declMetric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload at toy scale, end to end and traced,
// and holds what the harness emits against what BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	decl := declared(t)
	var workloads []string
	for _, w := range decl.Workloads {
		workloads = append(workloads, w.Name)
	}
	if !reflect.DeepEqual(workloads, workloadNames) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the harness runs %v", workloads, workloadNames)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	units := map[string]string{}
	for _, m := range append(append([]declMetric(nil), decl.EndToEnd...), decl.PerLayer...) {
		units[m.Name] = m.Unit
	}

	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := names(decl.EndToEnd)
			if traced {
				want = names(decl.PerLayer)
			}
			dir := t.TempDir()
			rep, err := runWorkload(runConfig{
				workload: w, seed: 7, traced: traced, toy: true,
				workDir: filepath.Join(dir, "work"), outDir: filepath.Join(dir, "out"),
			})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !rep.correct() {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", w, traced, rep.failed, rep.attempted, rep.errs)
			}
			var got []string
			for n, v := range rep.values {
				got = append(got, n)
				if !nameRE.MatchString(n) {
					t.Errorf("%s: metric name %q is outside [A-Za-z0-9_.-]", w, n)
				}
				if v.Unit != units[n] {
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", w, n, v.Unit, units[n])
				}
				if !traced && v.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w, n)
				}
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v emits\n %v\nBENCHMARK.json declares\n %v", w, traced, got, want)
			}

			// The last line printed is the driver's result object.
			var buf bytes.Buffer
			if err := rep.print(&buf); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var line map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", w, err)
			}
			var keys []string
			for k := range line {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
				t.Errorf("%s: result object has keys %v, want %v", w, keys, want)
			}
		}
	}
}

// TestOpSequenceReproducible: one seed, one op sequence; another seed,
// another.
func TestOpSequenceReproducible(t *testing.T) {
	draw := func(seed int64) []archiveOp {
		return opSequence(rand.New(rand.NewSource(seed)), 400, meshPeers, len(corpusSpecs), 600)
	}
	a, b := draw(11), draw(11)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew two different op sequences")
	}
	if reflect.DeepEqual(a, draw(12)) {
		t.Fatal("two seeds drew the same op sequence")
	}
	// The mix is exact, so that seeds move the order of the work and not
	// its amount.
	var mix [numOpKinds]int
	for _, op := range a {
		mix[op.kind]++
	}
	if want := [numOpKinds]int{200, 40, 80, 40, 40}; mix != want {
		t.Errorf("400 ops split %v over %v, want %v", mix, opNames, want)
	}
}

// TestBoundsDeclared: every end-to-end metric carries a bound within
// the contract's cap, and set-up time is among them.
func TestBoundsDeclared(t *testing.T) {
	decl := declared(t)
	seenSetup := false
	for _, m := range decl.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better=%q", m.Name, m.Better)
		}
		seenSetup = seenSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !seenSetup {
		t.Error("setup_s (s, lower) is not declared")
	}
	for _, m := range decl.PerLayer {
		if m.Bound != nil {
			t.Errorf("per-layer metric %s carries a bound", m.Name)
		}
	}
}
