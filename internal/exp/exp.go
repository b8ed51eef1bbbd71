// Package exp is the experiment harness: one driver per table and figure
// of the paper's evaluation (Tables I-IV, Figures 4-11), each emitting
// the same rows or series the paper reports, measured on the simulated
// runtime. Absolute numbers are virtual seconds under the calibrated
// cost model; the reproduced claims are the shapes — who wins, by what
// factor, where crossovers fall.
package exp

import (
	"fmt"
	"strings"

	"chameleon"
	"chameleon/internal/apps"
	"chameleon/internal/vtime"
)

// Table is a rendered experiment result.
type Table struct {
	ID     string // "table1", "fig4", ...
	Title  string
	Header []string
	Rows   [][]string
	// Notes records shape observations computed from the data.
	Notes []string
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Params controls experiment scale.
type Params struct {
	// Scales are the strong/weak scaling rank counts (paper: 16..1024).
	Scales []int
	// EMFScales are the EMF rank counts (paper: 126..1001).
	EMFScales []int
	// TableP is the rank count for single-scale experiments (paper: 1024
	// for Table II / Figures 8-10, 256 for Figure 11 / Table IV).
	TableP int
	// SmallP is the reduced rank count (paper: 256).
	SmallP int
}

// Quick returns laptop-scale parameters (used by go test -bench).
func Quick() Params {
	return Params{
		Scales:    []int{16, 64},
		EMFScales: []int{26, 126},
		TableP:    64,
		SmallP:    36,
	}
}

// Full returns the paper-scale parameters.
func Full() Params {
	return Params{
		Scales:    []int{16, 64, 256, 1024},
		EMFScales: []int{126, 251, 501, 1001},
		TableP:    1024,
		SmallP:    256,
	}
}

// secs renders a virtual duration as seconds.
func secs(d vtime.Duration) string { return fmt.Sprintf("%.4f", d.Seconds()) }

func pct(x float64) string { return fmt.Sprintf("%.2f%%", x*100) }

// chOverhead is the clustering-machinery overhead the paper's figures
// chart for Chameleon: marker handling + clustering + online
// inter-compression. Intra-node compression is excluded on both sides
// (it is common to every tracer).
func chOverhead(o *chameleon.Output) vtime.Duration {
	return o.OverheadBy["marker"] + o.OverheadBy["cluster"] + o.OverheadBy["intercomp"]
}

// stOverhead is the baseline's figure metric: the Finalize inter-node
// compression.
func stOverhead(o *chameleon.Output) vtime.Duration {
	return o.OverheadBy["intercomp"]
}

// runTriple runs a benchmark untraced, under ScalaTrace and under
// Chameleon.
func runTriple(name, class string, p int, override *chameleon.Config) (app, st, ch *chameleon.Output, err error) {
	if app, err = chameleon.RunBenchmark(name, class, p, chameleon.TracerNone, override); err != nil {
		return
	}
	if st, err = chameleon.RunBenchmark(name, class, p, chameleon.TracerScalaTrace, override); err != nil {
		return
	}
	ch, err = chameleon.RunBenchmark(name, class, p, chameleon.TracerChameleon, override)
	return
}

// experiment is one row of the experiment table: an id, the function
// that runs it, and whether it goes beyond the paper (run with chamexp
// -ext).
type experiment struct {
	id        string
	run       func(Params) (*Table, error)
	extension bool
}

// experiments lists the paper's tables and figures in paper order, then
// the extensions: the online-trace equivalence audit, the future-work
// energy estimate, trace extrapolation, the K ablation, automatic marker
// insertion, and the fault-injection resilience sweep.
var experiments = []experiment{
	{"table1", TableI, false},
	{"table2", TableII, false},
	{"fig4", Figure4, false},
	{"fig5", Figure5, false},
	{"fig6", Figure6, false},
	{"fig7", Figure7, false},
	{"fig8", Figure8, false},
	{"fig9", Figure9, false},
	{"fig10", Figure10, false},
	{"fig11", Figure11, false},
	{"table3", TableIII, false},
	{"table4", TableIV, false},
	{"equiv", ExpOnlineEquivalence, true},
	{"energy", ExpEnergy, true},
	{"extrap", ExpExtrap, true},
	{"ablation-k", ExpAblationK, true},
	{"automarker", ExpAutoMarker, true},
	{"resilience", ExpResilience, true},
}

// Lookup returns a single experiment driver by id.
func Lookup(id string) (func(Params) (*Table, error), bool) {
	for _, e := range experiments {
		if e.id == id {
			return e.run, true
		}
	}
	return nil, false
}

// IDs lists the experiment identifiers in paper order.
func IDs() []string { return ids(false) }

// ExtensionIDs lists the beyond-the-paper experiments (run with
// chamexp -ext).
func ExtensionIDs() []string { return ids(true) }

func ids(extension bool) []string {
	var out []string
	for _, e := range experiments {
		if e.extension == extension {
			out = append(out, e.id)
		}
	}
	return out
}

// benchSpec fetches the spec for one of the evaluation benchmarks at
// class D (the paper's input size) unless the benchmark is size-fixed.
func benchSpec(name string, p int) (chameleon.Spec, error) {
	return apps.Registry(name, apps.ClassD, p)
}
