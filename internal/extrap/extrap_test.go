package extrap

import (
	"reflect"
	"testing"

	"chameleon/internal/mpi"
	"chameleon/internal/ranklist"
	"chameleon/internal/replay"
	"chameleon/internal/sig"
	"chameleon/internal/stats"
	"chameleon/internal/trace"
	"chameleon/internal/tracegen"
	"chameleon/internal/vtime"
)

func TestInferGeometry(t *testing.T) {
	cases := map[int]geometry{16: {4, 4}, 12: {3, 4}, 7: {1, 7}, 36: {6, 6}}
	for p, want := range cases {
		if got := inferGeometry(p); got != want {
			t.Fatalf("geometry(%d) = %v", p, got)
		}
	}
}

func TestClassify(t *testing.T) {
	if classify(0, 5) != classFirst || classify(4, 5) != classLast || classify(2, 5) != classMid {
		t.Fatalf("axis classification broken")
	}
}

func TestClassMembersRoundTrip(t *testing.T) {
	g := geometry{rows: 4, cols: 5}
	total := 0
	for _, rc := range []axisClass{classFirst, classMid, classLast} {
		for _, cc := range []axisClass{classFirst, classMid, classLast} {
			total += len(classMembers(cellClass{rc, cc}, g))
		}
	}
	if total != 20 {
		t.Fatalf("classes cover %d of 20 ranks", total)
	}
}

func TestMapRanksClassComplete(t *testing.T) {
	src, dst := geometry{4, 4}, geometry{6, 6}
	// The full north edge (row 0, interior columns) of a 4x4 grid.
	l := ranklist.FromRanks([]int{1, 2})
	got := mapRanks(l, src, dst, 16, 36).Ranks()
	if !reflect.DeepEqual(got, []int{1, 2, 3, 4}) {
		t.Fatalf("north edge mapped to %v", got)
	}
	// The interior block.
	l = ranklist.FromRanks([]int{5, 6, 9, 10})
	got = mapRanks(l, src, dst, 16, 36).Ranks()
	want := []int{7, 8, 9, 10, 13, 14, 15, 16, 19, 20, 21, 22, 25, 26, 27, 28}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("interior mapped to %v", got)
	}
	// All ranks.
	if got := mapRanks(tracegen.Span(0, 16), src, dst, 16, 36); got.Size() != 36 {
		t.Fatalf("all-ranks mapped to %d", got.Size())
	}
}

func TestMapRanksCorners(t *testing.T) {
	src, dst := geometry{4, 4}, geometry{8, 8}
	corners := map[int]int{0: 0, 3: 7, 12: 56, 15: 63}
	for s, want := range corners {
		got := mapRanks(ranklist.SingleRank(s), src, dst, 16, 64).Ranks()
		if len(got) != 1 || got[0] != want {
			t.Fatalf("corner %d mapped to %v, want %d", s, got, want)
		}
	}
}

func TestMapEndpoint(t *testing.T) {
	src, dst := geometry{4, 4}, geometry{6, 6}
	if got := mapEndpoint(trace.Relative(4), src, dst); got.Off != 6 {
		t.Fatalf("row stride: %v", got)
	}
	if got := mapEndpoint(trace.Relative(-4), src, dst); got.Off != -6 {
		t.Fatalf("negative row stride: %v", got)
	}
	if got := mapEndpoint(trace.Relative(1), src, dst); got.Off != 1 {
		t.Fatalf("unit offset: %v", got)
	}
	if got := mapEndpoint(trace.Absolute(0), src, dst); got.Off != 0 {
		t.Fatalf("absolute root: %v", got)
	}
	reply := trace.Endpoint{Kind: trace.EPReplyToLast}
	if got := mapEndpoint(reply, src, dst); got != reply {
		t.Fatalf("reply changed: %v", got)
	}
}

func TestExtrapolateErrors(t *testing.T) {
	if _, err := Extrapolate(nil, 16); err == nil {
		t.Fatalf("nil trace accepted")
	}
	if _, err := Extrapolate(&trace.File{P: 4}, 16); err == nil {
		t.Fatalf("empty trace accepted")
	}
	f := &trace.File{P: 4, Nodes: []*trace.Node{trace.NewLeaf(trace.Event{Op: mpi.OpBarrier}, ranklist.SingleRank(0), 0)}}
	if _, err := Extrapolate(f, 1); err == nil {
		t.Fatalf("target 1 accepted")
	}
}

// traceAt produces a Chameleon-like global trace for a ring code at the
// given scale.
func traceAt(p int, deltaNs int64) *trace.File {
	ev := trace.Event{
		Op:    mpi.OpSendrecv,
		Stack: sig.Stack(sig.Mix(1)),
		Dest:  trace.Relative(1),
		Src:   trace.Relative(-1),
		Tag:   1,
		Bytes: 256,
	}
	return &trace.File{
		P: p,
		Nodes: []*trace.Node{
			trace.NewLoop(20, []*trace.Node{
				trace.NewLeaf(ev, tracegen.Span(0, p), deltaNs),
			}),
		},
	}
}

func TestExtrapolatedTraceReplays(t *testing.T) {
	small := traceAt(8, int64(vtime.Millisecond))
	big, err := Extrapolate(small, 32)
	if err != nil {
		t.Fatal(err)
	}
	if big.P != 32 {
		t.Fatalf("target P = %d", big.P)
	}
	// The extrapolated trace must replay deadlock-free at the target
	// scale with the scaled event count.
	res, err := replayFile(big)
	if err != nil {
		t.Fatal(err)
	}
	if res != 32*20 {
		t.Fatalf("replayed %d events, want 640", res)
	}
}

func TestFitTiming(t *testing.T) {
	// delta(P) = 1ms + 64ms/P: samples at P=8 (9ms) and P=16 (5ms)
	// should predict 3ms at P=32.
	s8 := traceAt(8, int64(9*vtime.Millisecond))
	s16 := traceAt(16, int64(5*vtime.Millisecond))
	target, err := Extrapolate(s16, 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := FitTiming([]*trace.File{s8, s16}, target); err != nil {
		t.Fatal(err)
	}
	var got int64
	var walk func(seq []*trace.Node)
	walk = func(seq []*trace.Node) {
		for _, n := range seq {
			if n.IsLoop() {
				walk(n.Body)
			} else {
				got = n.Delta.Mean()
			}
		}
	}
	walk(target.Nodes)
	want := int64(3 * vtime.Millisecond)
	if got < want-want/10 || got > want+want/10 {
		t.Fatalf("predicted delta = %v, want ~%v", got, want)
	}
}

func TestFitTimingNeedsTwo(t *testing.T) {
	s := traceAt(8, 1000)
	if err := FitTiming([]*trace.File{s}, s); err == nil {
		t.Fatalf("single source accepted")
	}
}

func TestCollectDeltasSkipsEmpty(t *testing.T) {
	n := trace.NewLeaf(trace.Event{Op: mpi.OpBarrier, Stack: 7}, ranklist.SingleRank(0), 0)
	n.Delta = stats.NewHistogram() // empty histogram
	into := map[uint64]*stats.Welford{}
	collectDeltas([]*trace.Node{n}, into)
	if len(into) != 0 {
		t.Fatalf("empty delta collected")
	}
}

// replayFile runs the replayer and returns the event count.
func replayFile(f *trace.File) (uint64, error) {
	res, err := replayRun(f)
	if err != nil {
		return 0, err
	}
	return res, nil
}

func replayRun(f *trace.File) (uint64, error) {
	res, err := replay.Run(f, vtime.Default())
	if err != nil {
		return 0, err
	}
	return res.Events, nil
}

// nestAt nests depth loops of traceAt's leaf, each loop holding width
// leaves and then the next loop.
func nestAt(p, depth, width int) *trace.File {
	leaf := traceAt(p, 1000).Nodes[0].Body[0]
	var inner *trace.Node
	for d := 0; d < depth; d++ {
		body := make([]*trace.Node, 0, width+1)
		for i := 0; i < width; i++ {
			body = append(body, leaf.Clone())
		}
		if inner != nil {
			body = append(body, inner)
		}
		inner = trace.NewLoop(2, body)
	}
	return &trace.File{P: p, Nodes: []*trace.Node{inner}}
}

// Extrapolation copies each node once: the same leaves nested four loops
// deep allocate what they do under one loop, plus the three loops.
func TestExtrapolateAllocatesPerNode(t *testing.T) {
	const width, depth = 8, 4
	allocs := func(f *trace.File) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := Extrapolate(f, 32); err != nil {
				t.Fatal(err)
			}
		})
	}
	flat, deep := allocs(nestAt(8, 1, depth*width)), allocs(nestAt(8, depth, width))
	// A loop costs its node and its body slice.
	if budget := flat + 2*(depth-1); deep > budget {
		t.Fatalf("%d-deep nest allocates %.0f objects, want at most %.0f (%.0f for its leaves under one loop)",
			depth, deep, budget, flat)
	}
}
