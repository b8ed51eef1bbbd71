package analysis

import (
	"flag"
	"reflect"
	"testing"

	"chameleon/internal/trace"
	"chameleon/internal/tracegen"
)

// perturb copies seq, now and then with a leaf on a new list or a loop
// of other trips: a second trace that mostly agrees with the first.
func perturb(g *tracegen.Gen, seq []*trace.Node, p int) []*trace.Node {
	out := make([]*trace.Node, len(seq))
	for i, n := range seq {
		c := *n
		if n.IsLoop() {
			c.Body = perturb(g, n.Body, p)
			if g.Int(4) == 0 {
				c.Iters = uint64(g.Int(5))
			}
		} else if g.Int(4) == 0 {
			c.Ranks = g.List(p)
		}
		out[i] = &c
	}
	return out
}

// readersInput draws two traces, the second independent (a sequence at
// its own P) or a perturbed copy of the first at its own P or the
// first's, a tolerance set and a latency.
func readersInput(data []byte) (a, b *trace.File, opts CompareOpts, alpha int64) {
	g := tracegen.New(data)
	a = g.File()
	b = &trace.File{P: a.P}
	if g.Int(2) == 0 {
		b.P = g.P()
	}
	if g.Int(3) == 0 {
		b.Nodes = g.Seq(b.P, 1)
	} else {
		b.Nodes = perturb(g, a.Nodes, b.P)
	}
	for k := g.Int(5); k > 0; k-- {
		opts.TolerateRanks = append(opts.TolerateRanks, g.Int(max(a.P, b.P)+4)-2)
	}
	return a, b, opts, int64(g.Int(2000))
}

// checkReaders requires every reader to equal the reference, field for
// field, on both traces and on their diff both ways.
func checkReaders(t *testing.T, data []byte) {
	a, b, opts, alpha := readersInput(data)
	for _, f := range []*trace.File{a, b} {
		if got, want := Summarize(f), refSummarize(f); !reflect.DeepEqual(got, want) {
			t.Fatalf("Summarize\n got %+v\nwant %+v", got, want)
		}
		if got, want := Volumes(f), refVolumes(f); !reflect.DeepEqual(got, want) {
			t.Fatalf("Volumes\n got %+v\nwant %+v", got, want)
		}
		if got, want := Matrix(f), refMatrix(f); !reflect.DeepEqual(got, want) {
			t.Fatalf("Matrix\n got %+v\nwant %+v", got, want)
		}
		if got, want := CriticalPath(f, alpha), refCriticalPath(f, alpha); got != want {
			t.Fatalf("CriticalPath = %d, want %d", got, want)
		}
	}
	for _, pair := range [][2]*trace.File{{a, b}, {b, a}} {
		got, want := CompareWith(pair[0], pair[1], opts), refCompareWith(pair[0], pair[1], opts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("CompareWith (P %d vs %d, tolerating %v)\n got %+v\nwant %+v",
				pair[0].P, pair[1].P, opts.TolerateRanks, got, want)
		}
	}
}

// FuzzReadersMatchReference checks Summarize, Volumes, Matrix,
// CriticalPath and CompareWith, which share one pass over the distinct
// rank lists, against the readers that walked the tree on their own and
// expanded every list (ref_test.go), over pairs of traces drawn by
// tracegen. Its 2000 random seeds run in every plain test run. Under
// -fuzz it starts from the first 64: the fuzzer runs every seed before
// its first new input, and 2000 of them take a short -fuzztime whole.
func FuzzReadersMatchReference(f *testing.F) {
	seeds := tracegen.Seeds(44, 2000)
	if fuzzing() {
		seeds = seeds[:64]
	}
	for _, seed := range seeds {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Fuzz(checkReaders)
}

// fuzzing reports whether the test binary runs with -fuzz, rather than
// running each fuzz target's seeds as tests.
func fuzzing() bool {
	fl := flag.Lookup("test.fuzz")
	return fl != nil && fl.Value.String() != ""
}
