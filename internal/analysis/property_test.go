package analysis

import (
	"fmt"
	"testing"

	"chameleon"
	"chameleon/internal/ranklist"
	"chameleon/internal/trace"
	"chameleon/internal/zan"
)

// TestTallyMatchesZanPerRank: for every application skeleton under both
// global tracers, the per-rank event counts behind CompareWith (the
// pass's list rows, read through its rank classes) equal the per-rank
// totals of the compressed-domain engine, and a trace is
// event-equivalent to itself.
func TestTallyMatchesZanPerRank(t *testing.T) {
	for _, name := range chameleon.Benchmarks() {
		for _, tr := range []chameleon.Tracer{chameleon.TracerChameleon, chameleon.TracerScalaTrace} {
			name, tr := name, tr
			t.Run(fmt.Sprintf("%s/%s", name, tr), func(t *testing.T) {
				t.Parallel()
				class, p := "A", 16
				if name == "EMF" { // master/worker: native size only
					class, p = "", 26
				}
				out, err := chameleon.RunBenchmark(name, class, p, tr, nil)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := zan.Analyze(out.Trace, zan.Options{})
				if err != nil {
					t.Fatal(err)
				}
				ranks := rankEvents(out.Trace)
				if len(ranks) != rep.P {
					t.Fatalf("the pass covers %d ranks, zan %d", len(ranks), rep.P)
				}
				for r, got := range ranks {
					if want := rep.Rank(r).Events; got != want {
						t.Errorf("rank %d: the pass counts %d events, zan %d", r, got, want)
					}
				}
				if d := CompareWith(out.Trace, out.Trace, CompareOpts{}); !d.Equivalent() {
					t.Errorf("trace diverges from itself: %s", d.Reason())
				}
			})
		}
	}
}

// rankEvents is the dynamic event count of every rank in [0, P), read
// from the pass's rank classes.
func rankEvents(f *trace.File) []uint64 {
	w := walk(f)
	ranks := make([]uint64, f.P)
	for _, c := range ranklist.Classes(w.lists.Lists, f.P) {
		var n uint64
		for _, j := range c.Of {
			n += w.rows[j].events
		}
		c.Ranks.ForEach(func(r int) { ranks[r] = n })
	}
	return ranks
}
