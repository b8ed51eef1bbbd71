package tracegen

import (
	"testing"

	"chameleon/internal/trace"
)

// census counts the shapes of the nodes of f by name.
func census(f *trace.File, seen map[string]int) {
	count := func(shape string, ok bool) {
		if ok {
			seen[shape]++
		}
	}
	var walk func(nodes []*trace.Node, depth int)
	walk = func(nodes []*trace.Node, depth int) {
		for _, n := range nodes {
			if n.IsLoop() {
				count("zero-trip loop", n.Iters == 0)
				count("loop with ItersHist", n.ItersHist != nil)
				count("loop nested three deep", depth == 2)
				walk(n.Body, depth+1)
				continue
			}
			seen["op "+n.Ev.Op.String()]++
			for _, ep := range []trace.Endpoint{n.Ev.Dest, n.Ev.Src} {
				count("absolute end-point at or past P", ep.Kind == trace.EPAbsolute && ep.Off >= f.P)
				count("absolute end-point inside P", ep.Kind == trace.EPAbsolute && ep.Off < f.P)
				count("relative end-point", ep.Kind == trace.EPRelative)
				count("AnySource end-point", ep.Kind == trace.EPAnySource)
				count("ReplyToLast end-point", ep.Kind == trace.EPReplyToLast)
			}
			count("nil delta", n.Delta == nil)
			for k, shape := range []string{"one delta sample", "two delta samples", "three delta samples"} {
				count(shape, n.Delta != nil && n.Delta.Count() == uint64(k+1))
			}
			count("no call site", n.Ev.Stack == 0)

			l, inside, outside := n.Ranks, 0, map[bool]int{}
			for _, r := range l.Ranks() {
				if r >= 0 && r < f.P {
					inside++
				} else {
					outside[r < 0]++
				}
			}
			count("list out of normal form", !l.Normal())
			count("list crossing 0", outside[true] > 0 && inside > 0)
			count("list crossing P", outside[false] > 0 && inside > 0)
			count("empty list", l.Size() == 0)
			count("single rank", l.Size() == 1)
			count("every rank", l.Size() == f.P && inside == f.P)
			rls := l.Descriptors()
			count("two runs", len(rls) == 2)
			count("scattered subset", len(rls) >= 3)
			if len(rls) == 1 {
				d := rls[0].Dims
				// Two runs that meet as a block have two rows.
				count("2D block of three rows or more", len(d) == 2 && d[0].Iters > 1 && d[1].Iters > 2)
				count("run of a coprime stride", len(d) == 1 && d[0].Iters > 1 &&
					(d[0].Stride == 3 || d[0].Stride == 5 || d[0].Stride == 7))
			}
		}
	}
	walk(f.Nodes, 0)
}

// TestGenDrawsEveryShape guards what every fuzzer on Gen draws: over a
// fixed seeded sample, each shape must occur at least a minimum number
// of times, so an edit that narrows the draw fails here and not silently
// in every suite at once. The minimums sit at about a third of what the
// sample holds, and no list may come out of normal form.
//
// Mutation note: removing List's 2D-block case must make this test fail
// (such blocks fall from 174 to 1), and so must removing its
// coprime-stride case (410 to 92); both were tried when the test was
// written.
func TestGenDrawsEveryShape(t *testing.T) {
	seen := map[string]int{}
	for _, data := range Seeds(49, 1000) {
		census(New(data).File(), seen)
	}
	want := map[string]int{
		"list crossing 0": 40, "list crossing P": 350, "run of a coprime stride": 140,
		"2D block of three rows or more": 60, "single rank": 370, "scattered subset": 110,
		"two runs": 120, "every rank": 140, "empty list": 2,
		"absolute end-point at or past P": 80, "absolute end-point inside P": 80,
		"relative end-point": 330, "AnySource end-point": 170, "ReplyToLast end-point": 160,
		"zero-trip loop": 370, "loop with ItersHist": 420, "loop nested three deep": 190,
		"nil delta": 480, "one delta sample": 250, "two delta samples": 250,
		"three delta samples": 250, "no call site": 320,
	}
	for _, op := range ops {
		want["op "+op.String()] = 90
	}
	for shape, min := range want {
		if seen[shape] < min {
			t.Errorf("weak sample: %d %s, want at least %d", seen[shape], shape, min)
		}
	}
	if n := seen["list out of normal form"]; n > 0 {
		t.Errorf("%d lists out of normal form", n)
	}
}
