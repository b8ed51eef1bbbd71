package trace

import (
	"testing"

	"chameleon/internal/mpi"
	"chameleon/internal/ranklist"
	"chameleon/internal/sig"
)

// ev builds a test event with a distinct call-site id.
func ev(site int) Event {
	return Event{
		Op:    mpi.OpSend,
		Stack: sig.Stack(sig.Mix(uint64(site))),
		Comm:  mpi.CommWorld,
		Dest:  Relative(1),
		Tag:   site,
		Bytes: 64,
	}
}

// leaf builds a test leaf for rank 0.
func leaf(site int) *Node {
	return NewLeaf(ev(site), ranklist.SingleRank(0), 1000)
}

func TestEndpointResolve(t *testing.T) {
	for _, c := range []struct {
		e       Endpoint
		self, p int
		want    int
		ok      bool
	}{
		{Relative(3), 5, 16, 8, true},
		{Relative(3), 6, 8, 1, true},  // torus wrap upward
		{Relative(-3), 1, 8, 6, true}, // and downward
		{Absolute(2), 5, 16, 2, true},
		{Absolute(10), 5, 8, 2, true},
		{Endpoint{Kind: EPReplyToLast}, 0, 8, 0, false}, // needs the caller's context
		{Endpoint{Kind: EPAnySource}, 0, 8, 0, false},
		{NoEndpoint, 0, 8, 0, false},
	} {
		if r, ok := c.e.ResolveMod(c.self, c.p); ok != c.ok || r != c.want {
			t.Errorf("%v.ResolveMod(%d, %d) = %d/%v, want %d/%v", c.e, c.self, c.p, r, ok, c.want, c.ok)
		}
	}
}

func TestEndpointSigValue(t *testing.T) {
	if v, ok := Relative(-2).SigValue(); !ok || v != -2 {
		t.Fatalf("relative sig")
	}
	if v, ok := (Endpoint{Kind: EPReplyToLast}).SigValue(); !ok || v != 1<<20 {
		t.Fatalf("reply sig = %d", v)
	}
	if _, ok := NoEndpoint.SigValue(); ok {
		t.Fatalf("none has sig value")
	}
}

func TestEndpointStrings(t *testing.T) {
	cases := map[string]Endpoint{
		"+3":    Relative(3),
		"-1":    Relative(-1),
		"@7":    Absolute(7),
		"reply": {Kind: EPReplyToLast},
		"*":     {Kind: EPAnySource},
		"-":     NoEndpoint,
	}
	for want, ep := range cases {
		if got := ep.String(); got != want {
			t.Fatalf("%v = %q, want %q", ep, got, want)
		}
	}
}

func TestMergeEndpointsRules(t *testing.T) {
	// Equal encodings merge.
	if _, ok := MergeEndpoints(Relative(1), 0, true, Relative(1), 5, true, 16); !ok {
		t.Fatalf("equal relative should merge")
	}
	// Singletons agreeing on the absolute target merge to Absolute.
	got, ok := MergeEndpoints(Relative(-3), 3, true, Relative(-5), 5, true, 16)
	if !ok || got.Kind != EPAbsolute || got.Off != 0 {
		t.Fatalf("singleton absolute rule: %v/%v", got, ok)
	}
	// Non-singletons with differing offsets must not merge.
	if _, ok := MergeEndpoints(Relative(1), 0, false, Relative(2), 0, false, 16); ok {
		t.Fatalf("non-singleton differing offsets merged")
	}
	// Relative vs Absolute when the singleton resolves to it.
	got, ok = MergeEndpoints(Relative(2), 3, true, Absolute(5), 0, true, 16)
	if !ok || got.Off != 5 || got.Kind != EPAbsolute {
		t.Fatalf("rel-abs merge: %v/%v", got, ok)
	}
	// Modulo normalization: offsets wrapping to the same rank merge.
	got, ok = MergeEndpoints(Relative(63), 63, true, Relative(-62), 62, true, 126)
	if !ok || got.Kind != EPAbsolute || got.Off != 0 {
		t.Fatalf("mod-P absolute rule: %v/%v", got, ok)
	}
	// Absolutes equal mod P merge normalized.
	got, ok = MergeEndpoints(Absolute(126), 0, true, Absolute(0), 0, true, 126)
	if !ok || got.Off != 0 {
		t.Fatalf("absolute mod-P: %v/%v", got, ok)
	}
}

func TestCompressorFoldsSimpleLoop(t *testing.T) {
	var c Compressor
	for i := 0; i < 100; i++ {
		c.AppendLeaf(leaf(1))
		c.AppendLeaf(leaf(2))
	}
	if len(c.Seq) != 1 || !c.Seq[0].IsLoop() {
		t.Fatalf("not folded: %d nodes", len(c.Seq))
	}
	loop := c.Seq[0]
	if loop.Iters != 100 || len(loop.Body) != 2 {
		t.Fatalf("loop = %d x %d", loop.Iters, len(loop.Body))
	}
	if DynamicEvents(c.Seq) != 200 {
		t.Fatalf("dynamic events = %d", DynamicEvents(c.Seq))
	}
}

func TestCompressorFoldsNestedLoops(t *testing.T) {
	// for 10 { for 5 { a; b }; c } — the paper's PRSD example shape.
	var c Compressor
	for outer := 0; outer < 10; outer++ {
		for inner := 0; inner < 5; inner++ {
			c.AppendLeaf(leaf(1))
			c.AppendLeaf(leaf(2))
		}
		c.AppendLeaf(leaf(3))
	}
	if len(c.Seq) != 1 {
		t.Fatalf("top nodes = %d, want 1 PRSD", len(c.Seq))
	}
	outer := c.Seq[0]
	if !outer.IsLoop() || outer.Iters != 10 || len(outer.Body) != 2 {
		t.Fatalf("outer = %+v", outer)
	}
	inner := outer.Body[0]
	if !inner.IsLoop() || inner.Iters != 5 {
		t.Fatalf("inner = %+v", inner)
	}
	if DynamicEvents(c.Seq) != 10*(5*2+1) {
		t.Fatalf("dynamic events = %d", DynamicEvents(c.Seq))
	}
}

func TestCompressorPreservesDynamicEvents(t *testing.T) {
	// Property: compression never loses or duplicates events, whatever
	// the input stream.
	streams := [][]int{
		{1, 1, 1, 1},
		{1, 2, 3, 1, 2, 3, 1, 2, 3},
		{1, 2, 1, 2, 3, 1, 2, 1, 2, 3},
		{5},
		{1, 2, 3, 4, 5, 6, 7, 8},
		{1, 1, 2, 2, 1, 1, 2, 2},
	}
	for _, s := range streams {
		var c Compressor
		for _, site := range s {
			c.AppendLeaf(leaf(site))
		}
		if got := DynamicEvents(c.Seq); got != uint64(len(s)) {
			t.Fatalf("stream %v: %d events, want %d", s, got, len(s))
		}
	}
}

func TestCompressorPseudoRandomStreams(t *testing.T) {
	// Deterministic pseudo-random streams over a small alphabet: event
	// conservation must hold for arbitrary shapes.
	state := uint64(12345)
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state>>33) % n
	}
	for trial := 0; trial < 50; trial++ {
		length := next(200) + 1
		var c Compressor
		counts := map[int]uint64{}
		for i := 0; i < length; i++ {
			site := next(4) + 1
			counts[site]++
			c.AppendLeaf(leaf(site))
		}
		if got := DynamicEvents(c.Seq); got != uint64(length) {
			t.Fatalf("trial %d: %d events, want %d", trial, got, length)
		}
		// Per-site occurrence counts must also be conserved.
		got := map[int]uint64{}
		var walk func(seq []*Node, mult uint64)
		walk = func(seq []*Node, mult uint64) {
			for _, n := range seq {
				if n.IsLoop() {
					walk(n.Body, mult*n.Iters)
				} else {
					got[n.Ev.Tag] += mult
				}
			}
		}
		walk(c.Seq, 1)
		for site, want := range counts {
			if got[site] != want {
				t.Fatalf("trial %d site %d: %d, want %d", trial, site, got[site], want)
			}
		}
	}
}

func TestCompressorWindowLimit(t *testing.T) {
	// Bodies longer than the window must not fold (but still conserve).
	var c Compressor
	c.MaxWindow = 4
	for rep := 0; rep < 3; rep++ {
		for site := 1; site <= 6; site++ {
			c.AppendLeaf(leaf(site))
		}
	}
	if DynamicEvents(c.Seq) != 18 {
		t.Fatalf("events = %d", DynamicEvents(c.Seq))
	}
	for _, n := range c.Seq {
		if n.IsLoop() && len(n.Body) > 4 {
			t.Fatalf("window exceeded: body %d", len(n.Body))
		}
	}
}

func TestCompressorDeltaHistograms(t *testing.T) {
	var c Compressor
	c.AppendLeaf(NewLeaf(ev(1), ranklist.SingleRank(0), 100))
	c.AppendLeaf(NewLeaf(ev(1), ranklist.SingleRank(0), 300))
	if len(c.Seq) != 1 {
		t.Fatalf("identical events did not fold")
	}
	h := c.Seq[0].Body[0].Delta
	if h.Count() != 2 || h.Mean() != 200 {
		t.Fatalf("delta histogram: %v", h)
	}
}

func TestCompressorFilterMergesVaryingIters(t *testing.T) {
	// POP's case: the same inner loop with varying trip counts folds
	// only under the parameter filter.
	build := func(filter bool) *Compressor {
		c := &Compressor{Filter: filter}
		for _, iters := range []int{3, 5, 4} {
			for i := 0; i < iters; i++ {
				c.AppendLeaf(leaf(1))
			}
			c.AppendLeaf(leaf(2))
		}
		return c
	}
	strict := build(false)
	filtered := build(true)
	if NodeCount(filtered.Seq) >= NodeCount(strict.Seq) {
		t.Fatalf("filter did not improve folding: %d vs %d",
			NodeCount(filtered.Seq), NodeCount(strict.Seq))
	}
	// The filtered trace records the iteration spread.
	found := false
	var walk func(seq []*Node)
	walk = func(seq []*Node) {
		for _, n := range seq {
			if n.IsLoop() {
				if n.ItersHist != nil {
					found = true
				}
				walk(n.Body)
			}
		}
	}
	walk(filtered.Seq)
	if !found {
		t.Fatalf("no iteration histogram recorded")
	}
}

func TestCompressorReset(t *testing.T) {
	var c Compressor
	c.AppendLeaf(leaf(1))
	old := c.Reset()
	if len(old) != 1 || len(c.Seq) != 0 {
		t.Fatalf("reset: old=%d cur=%d", len(old), len(c.Seq))
	}
}

func TestMeanIters(t *testing.T) {
	l := NewLoop(7, []*Node{leaf(1)})
	if l.MeanIters() != 7 {
		t.Fatalf("exact iters")
	}
	l.ItersHist = nil
	other := NewLoop(9, []*Node{leaf(1)})
	MergeInto(l, other, true)
	if l.ItersHist == nil || l.MeanIters() != 8 {
		t.Fatalf("filtered mean iters = %d", l.MeanIters())
	}
}

func TestCounts(t *testing.T) {
	seq := []*Node{
		leaf(1),
		NewLoop(10, []*Node{leaf(2), NewLoop(3, []*Node{leaf(3)})}),
	}
	if LeafCount(seq) != 3 {
		t.Fatalf("leaf count = %d", LeafCount(seq))
	}
	if NodeCount(seq) != 5 {
		t.Fatalf("node count = %d", NodeCount(seq))
	}
	if DynamicEvents(seq) != 1+10*(1+3) {
		t.Fatalf("dynamic events = %d", DynamicEvents(seq))
	}
	if SizeBytes(seq) <= 0 {
		t.Fatalf("size bytes")
	}
}

func TestCloneIndependent(t *testing.T) {
	orig := NewLoop(2, []*Node{leaf(1)})
	c := orig.Clone()
	c.Iters = 99
	c.Body[0].Delta.Add(1)
	if orig.Iters != 2 || orig.Body[0].Delta.Count() != 1 {
		t.Fatalf("clone shares state")
	}
}

func TestRewriteRanks(t *testing.T) {
	seq := []*Node{leaf(1), NewLoop(2, []*Node{leaf(2)})}
	cluster := ranklist.FromRanks([]int{0, 1, 2, 3})
	RewriteRanks(seq, cluster)
	if !seq[0].Ranks.Equal(cluster) || !seq[1].Body[0].Ranks.Equal(cluster) {
		t.Fatalf("ranks not rewritten")
	}
}

func TestResolveEndpoints(t *testing.T) {
	n := leaf(1)
	n.Ev.Dest = Relative(-3)
	n.Ev.Src = Relative(2)
	seq := []*Node{NewLoop(2, []*Node{n})}
	ResolveEndpoints(seq, 1, 8)
	got := seq[0].Body[0].Ev
	if got.Dest.Kind != EPAbsolute || got.Dest.Off != 6 { // (1-3+8)%8
		t.Fatalf("dest = %v", got.Dest)
	}
	if got.Src.Kind != EPAbsolute || got.Src.Off != 3 {
		t.Fatalf("src = %v", got.Src)
	}
}

// CollectStacks returns the set of distinct stack signatures appearing
// in the sequence (coverage checks: Chameleon must not miss any event).
func CollectStacks(seq []*Node, into map[uint64]struct{}) {
	for _, n := range seq {
		if n.IsLoop() {
			CollectStacks(n.Body, into)
		} else {
			into[uint64(n.Ev.Stack)] = struct{}{}
		}
	}
}

func TestCollectStacks(t *testing.T) {
	seq := []*Node{leaf(1), NewLoop(5, []*Node{leaf(2), leaf(1)})}
	got := map[uint64]struct{}{}
	CollectStacks(seq, got)
	if len(got) != 2 {
		t.Fatalf("stacks = %d", len(got))
	}
}

func TestFormat(t *testing.T) {
	seq := []*Node{leaf(1), NewLoop(3, []*Node{leaf(2)})}
	s := Format(seq)
	if s == "" || len(s) < 20 {
		t.Fatalf("format too short: %q", s)
	}
}
