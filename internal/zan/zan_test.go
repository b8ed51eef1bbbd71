package zan

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"chameleon/internal/mpi"
	"chameleon/internal/ranklist"
	"chameleon/internal/trace"
	"chameleon/internal/tracegen"
	"chameleon/internal/vtime"
)

// twoRankTrace is the hand-checked fixture:
//
//	window 0: Send rank0->rank1 (tag 7, 1024 B, delta 500),
//	          Recv rank1<-rank0 (tag 7, 1024 B, delta 800)
//	window 1: loop(5){ Barrier ranks{0,1} (delta 200) }
func twoRankTrace() *trace.File {
	send := trace.NewLeaf(trace.Event{
		Op: mpi.OpSend, Dest: trace.Absolute(1), Tag: 7, Bytes: 1024,
	}, ranklist.SingleRank(0), 500)
	recv := trace.NewLeaf(trace.Event{
		Op: mpi.OpRecv, Src: trace.Absolute(0), Tag: 7, Bytes: 1024,
	}, ranklist.SingleRank(1), 800)
	barrier := trace.NewLeaf(trace.Event{
		Op: mpi.OpBarrier,
	}, tracegen.Span(0, 2), 200)
	return &trace.File{
		P: 2,
		Nodes: []*trace.Node{
			trace.NewLoop(1, []*trace.Node{send, recv}),
			trace.NewLoop(5, []*trace.Node{barrier}),
		},
	}
}

func TestAnalyzeHandChecked(t *testing.T) {
	rep, err := Analyze(twoRankTrace(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Default model: Alpha=1000ns, Beta=0.3125 ns/B.
	// Send(1024B)=1320ns, Recv=1000ns, Barrier over 2 ranks =
	// log2ceil(2) * (PtoP(0) + 500) = 1500ns per rank per iteration.
	if rep.Events != 12 {
		t.Errorf("Events = %d, want 12", rep.Events)
	}
	if got := rep.Windows[0]; got.Events != 2 || got.ComputeNs != 1300 ||
		got.CommNs != 2320 || got.WaitNs != 0 {
		t.Errorf("window 0 = %+v, want events=2 compute=1300 comm=2320 wait=0", got)
	}
	if got := rep.Windows[1]; got.Events != 10 || got.ComputeNs != 2000 ||
		got.CommNs != 15000 {
		t.Errorf("window 1 = %+v, want events=10 compute=2000 comm=15000", got)
	}
	if rep.StoredNodes != 5 || rep.StoredLeaves != 3 {
		t.Errorf("stored = %d nodes / %d leaves, want 5/3", rep.StoredNodes, rep.StoredLeaves)
	}
	if rep.CompressionRatio != 12.0/5.0 {
		t.Errorf("CompressionRatio = %g, want 2.4", rep.CompressionRatio)
	}
	r0, r1 := rep.Rank(0), rep.Rank(1)
	if r0.Events != 6 || r1.Events != 6 {
		t.Errorf("rank events = %d/%d, want 6/6", r0.Events, r1.Events)
	}
	if r0.ComputeNs != 1500 || r1.ComputeNs != 1800 {
		t.Errorf("rank compute = %d/%d, want 1500/1800", r0.ComputeNs, r1.ComputeNs)
	}
	if r0.SendBytes != 1024 || r1.SendBytes != 0 {
		t.Errorf("send bytes = %d/%d, want 1024/0", r0.SendBytes, r1.SendBytes)
	}
	wantImb := 1800.0 / 1650.0
	if !closeEnough(rep.LoadImbalance, wantImb, 1e-12) {
		t.Errorf("LoadImbalance = %g, want %g", rep.LoadImbalance, wantImb)
	}
	m := rep.Match
	if m.Sends != 1 || m.Recvs != 1 || m.ResolvedPairs != 1 ||
		m.CrossWindow != 0 || m.OrderViolations != 0 || !m.Consistent {
		t.Errorf("match = %+v, want 1 send/recv paired locally, consistent", m)
	}
	if st := rep.Windows[0].Ops["Send"]; st.Events != 1 || st.Bytes != 1024 {
		t.Errorf("window 0 Send op = %+v, want {1, 1024}", st)
	}
	if st := rep.Windows[1].Ops["Barrier"]; st.Events != 10 || st.Bytes != 0 {
		t.Errorf("window 1 Barrier op = %+v, want {10, 0}", st)
	}
	if rep.Windows[1].DeltaCount != 10 || rep.Windows[1].DeltaMeanNs != 200 {
		t.Errorf("window 1 delta = n=%d mean=%g, want n=10 mean=200",
			rep.Windows[1].DeltaCount, rep.Windows[1].DeltaMeanNs)
	}
}

func TestWaitStateSkew(t *testing.T) {
	// A barrier whose delta histogram spreads {100, 300}: mean 200, max
	// 300, so each occurrence carries 100 ns of modeled wait.
	b := trace.NewLeaf(trace.Event{Op: mpi.OpBarrier},
		tracegen.Span(0, 2), 100)
	b.Delta.Add(300)
	f := &trace.File{P: 2, Nodes: []*trace.Node{b}}
	rep, err := Analyze(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WaitNs != 200 {
		t.Errorf("WaitNs = %d, want 200 (skew 100 x 2 ranks)", rep.WaitNs)
	}
	// Sends never accrue wait even with skewed deltas.
	s := trace.NewLeaf(trace.Event{Op: mpi.OpSend, Dest: trace.Absolute(1), Bytes: 8},
		ranklist.SingleRank(0), 100)
	s.Delta.Add(300)
	rep, err = Analyze(&trace.File{P: 2, Nodes: []*trace.Node{s}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WaitNs != 0 {
		t.Errorf("send WaitNs = %d, want 0", rep.WaitNs)
	}
}

func TestExpandOracleBitEqual(t *testing.T) {
	f := twoRankTrace()
	fast, err := Analyze(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Analyze(f, Options{Expand: true})
	if err != nil {
		t.Fatal(err)
	}
	if d := Diff(fast, slow, 1e-9); len(d) != 0 {
		t.Fatalf("closed-form vs expansion oracle:\n%s", strings.Join(d, "\n"))
	}
}

func TestZeroIterationLoop(t *testing.T) {
	// A zero-trip loop represents no events: its leaves must not leak
	// into any metric, matching the oracle (which never reaches them).
	dead := trace.NewLeaf(trace.Event{Op: mpi.OpSend, Dest: trace.Absolute(1), Bytes: 64},
		ranklist.SingleRank(0), 100)
	live := trace.NewLeaf(trace.Event{Op: mpi.OpBarrier},
		tracegen.Span(0, 2), 50)
	f := &trace.File{P: 2, Nodes: []*trace.Node{
		trace.NewLoop(0, []*trace.Node{dead}),
		live,
	}}
	fast, err := Analyze(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fast.Events != 2 || fast.Match.Sends != 0 {
		t.Errorf("zero-trip loop leaked: events=%d sends=%d", fast.Events, fast.Match.Sends)
	}
	w := fast.Windows[0]
	if w.Events != 0 || len(w.Ops) != 0 || w.LoadImbalance != 0 || w.CommRatio != 0 {
		t.Errorf("empty window not inert: %+v", w)
	}
	slow, err := Analyze(f, Options{Expand: true})
	if err != nil {
		t.Fatal(err)
	}
	if d := Diff(fast, slow, 1e-9); len(d) != 0 {
		t.Fatalf("zero-trip loop diverges from oracle:\n%s", strings.Join(d, "\n"))
	}
}

func TestEmptyTrace(t *testing.T) {
	rep, err := Analyze(&trace.File{P: 4}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Events != 0 || len(rep.Windows) != 0 || len(rep.RankClasses) != 1 ||
		rep.RankClasses[0].Size != 4 || rep.Rank(3) != (Rank{Rank: 3}) {
		t.Errorf("empty trace report: %+v, want one all-zero class of 4 ranks", rep)
	}
	if rep.CompressionRatio != 0 || rep.CommRatio != 0 || rep.LoadImbalance != 0 {
		t.Errorf("empty trace ratios must be 0, got %g/%g/%g",
			rep.CompressionRatio, rep.CommRatio, rep.LoadImbalance)
	}
	if !rep.Match.Consistent {
		t.Error("empty trace must be match-consistent")
	}
	if s := rep.String(); s == "" {
		t.Error("String() empty")
	}
}

func TestAnalyzeRejectsBadInput(t *testing.T) {
	if _, err := Analyze(nil, Options{}); err == nil {
		t.Error("nil file accepted")
	}
	if _, err := Analyze(&trace.File{P: 0}, Options{}); err == nil {
		t.Error("P=0 accepted")
	}
}

func TestCrossWindowMatchAndOrderViolation(t *testing.T) {
	// Recv in window 0, its Send only in window 1: the pair closes
	// across windows, and — windows being marker-barrier aligned — the
	// receive observed before the send is a happens-before violation.
	recv := trace.NewLeaf(trace.Event{
		Op: mpi.OpRecv, Src: trace.Absolute(0), Tag: 3, Bytes: 16,
	}, ranklist.SingleRank(1), 10)
	send := trace.NewLeaf(trace.Event{
		Op: mpi.OpSend, Dest: trace.Absolute(1), Tag: 3, Bytes: 16,
	}, ranklist.SingleRank(0), 10)
	f := &trace.File{P: 2, Nodes: []*trace.Node{recv, send}}
	rep, err := Analyze(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Match
	if m.ResolvedPairs != 1 || m.CrossWindow != 1 {
		t.Errorf("pairs=%d cross=%d, want 1/1", m.ResolvedPairs, m.CrossWindow)
	}
	if m.OrderViolations != 1 {
		t.Errorf("OrderViolations = %d, want 1", m.OrderViolations)
	}
	if !m.Consistent {
		t.Error("tag conservation holds, report must stay consistent")
	}
	if rep.Windows[0].LocalUnmatched != 1 || rep.Windows[1].LocalUnmatched != 1 {
		t.Errorf("LocalUnmatched = %d/%d, want 1/1",
			rep.Windows[0].LocalUnmatched, rep.Windows[1].LocalUnmatched)
	}
}

func TestInconsistentTrace(t *testing.T) {
	// Two sends, one recv on the same tag: conservation fails by 1.
	send := trace.NewLeaf(trace.Event{
		Op: mpi.OpSend, Dest: trace.Absolute(1), Tag: 9, Bytes: 4,
	}, ranklist.SingleRank(0), 10)
	f := &trace.File{P: 2, Nodes: []*trace.Node{
		trace.NewLoop(2, []*trace.Node{send}),
		trace.NewLeaf(trace.Event{
			Op: mpi.OpRecv, Src: trace.Absolute(0), Tag: 9, Bytes: 4,
		}, ranklist.SingleRank(1), 10),
	}}
	rep, err := Analyze(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Match
	if m.Consistent || m.Unmatched != 1 || m.UnmatchedByTag[9] != 1 {
		t.Errorf("match = %+v, want 1 unmatched send on tag 9", m)
	}
	if !strings.Contains(rep.String(), "INCONSISTENT") {
		t.Error("String() must flag inconsistency")
	}
}

func TestWildcardRecvCountedNotPaired(t *testing.T) {
	recv := trace.NewLeaf(trace.Event{
		Op: mpi.OpRecv, Src: trace.Endpoint{Kind: trace.EPAnySource}, Tag: 1, Bytes: 4,
	}, ranklist.SingleRank(1), 10)
	send := trace.NewLeaf(trace.Event{
		Op: mpi.OpSend, Dest: trace.Absolute(1), Tag: 1, Bytes: 4,
	}, ranklist.SingleRank(0), 10)
	rep, err := Analyze(&trace.File{P: 2, Nodes: []*trace.Node{
		trace.NewLoop(1, []*trace.Node{send, recv}),
	}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Match
	if m.Wildcards != 1 || m.ResolvedPairs != 0 {
		t.Errorf("match = %+v, want 1 wildcard, 0 directed pairs", m)
	}
	if !m.Consistent {
		t.Error("wildcard recv still conserves its tag")
	}
}

// TestAnyTagAbsorbsSurplus: MPI_ANY_TAG receives count as wildcards,
// open no channel, and absorb the tags' positive send surpluses in
// ascending tag order; what they cannot absorb reads under AnyTag.
func TestAnyTagAbsorbsSurplus(t *testing.T) {
	// iters occurrences of rank 0 sending to rank 1, or of rank 1
	// receiving from rank 0, on tag.
	send := func(tag int, iters uint64) *trace.Node {
		return trace.NewLoop(iters, []*trace.Node{trace.NewLeaf(trace.Event{
			Op: mpi.OpSend, Dest: trace.Absolute(1), Tag: tag, Bytes: 4,
		}, ranklist.SingleRank(0), 10)})
	}
	recv := func(tag int, iters uint64) *trace.Node {
		return trace.NewLoop(iters, []*trace.Node{trace.NewLeaf(trace.Event{
			Op: mpi.OpRecv, Src: trace.Absolute(0), Tag: tag, Bytes: 4,
		}, ranklist.SingleRank(1), 10)})
	}
	for _, c := range []struct {
		anyTag uint64
		want   map[int]int64
	}{
		{4, map[int]int64{2: 1, 3: -1}},           // absorbs tag 1's 3, then 1 of tag 2's 2
		{5, map[int]int64{3: -1}},                 // absorbs both surpluses exactly
		{7, map[int]int64{3: -1, mpi.AnyTag: -2}}, // 2 left over
	} {
		f := &trace.File{P: 2, Nodes: []*trace.Node{trace.NewLoop(1, []*trace.Node{
			send(1, 3), send(2, 2), recv(3, 1), recv(mpi.AnyTag, c.anyTag),
		})}}
		rep, err := Analyze(f, Options{})
		if err != nil {
			t.Fatal(err)
		}
		m := rep.Match
		var unmatched uint64
		for _, d := range c.want {
			unmatched += uint64(max(d, -d))
		}
		if m.Wildcards != c.anyTag || m.ResolvedPairs != 0 || m.Unmatched != unmatched ||
			!reflect.DeepEqual(m.UnmatchedByTag, c.want) {
			t.Errorf("%d AnyTag receives: %+v, want %d wildcards, no pairs, unmatched %v",
				c.anyTag, m, c.anyTag, c.want)
		}
	}
}

func TestDiffDetectsMismatches(t *testing.T) {
	f := twoRankTrace()
	a, _ := Analyze(f, Options{})
	b, _ := Analyze(f, Options{})
	if d := Diff(a, b, 0); len(d) != 0 {
		t.Fatalf("identical reports diff: %v", d)
	}
	b.Windows[1].CommNs++
	b.RankClasses[0].Events++ // rank 0's class
	b.Match.Sends++
	d := Diff(a, b, 0)
	if len(d) != 3 {
		t.Fatalf("want 3 mismatches, got %v", d)
	}
	// Classes that cut [0, P) differently are a mismatch of their own.
	c, _ := Analyze(f, Options{})
	c.RankClasses[0].Ranks = tracegen.Span(0, 2)
	c.RankClasses[0].Size = 2
	if d := Diff(a, c, 0); len(d) == 0 || !strings.HasPrefix(d[0], "rank_classes[0]") {
		t.Fatalf("want the partition to differ first, got %v", d)
	}
}

func TestTopWaitWindows(t *testing.T) {
	r := &Report{Windows: []Window{
		{Index: 0, WaitNs: 5}, {Index: 1, WaitNs: 50}, {Index: 2, WaitNs: 20},
	}}
	if got := r.TopWaitWindows(2); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("TopWaitWindows(2) = %v, want [1 2]", got)
	}
	if got := r.TopWaitWindows(10); len(got) != 3 {
		t.Errorf("TopWaitWindows(10) returned %d entries, want 3", len(got))
	}
}

func TestSendrecvContributesBothSides(t *testing.T) {
	sr := trace.NewLeaf(trace.Event{
		Op: mpi.OpSendrecv, Dest: trace.Relative(1), Src: trace.Relative(-1),
		Tag: 2, Bytes: 32,
	}, tracegen.Span(0, 4), 10)
	rep, err := Analyze(&trace.File{P: 4, Nodes: []*trace.Node{sr}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Match
	if m.Sends != 4 || m.Recvs != 4 {
		t.Errorf("sendrecv sides = %d/%d, want 4/4", m.Sends, m.Recvs)
	}
	// Relative ±1 endpoints wrap mod P into a ring: every directed
	// channel pairs inside the window.
	if m.ResolvedPairs != 4 || !m.Consistent {
		t.Errorf("match = %+v, want 4 ring pairs, consistent", m)
	}
	// Cost model prices both the send and the recv half; wait counts.
	if rep.CommNs == 0 || rep.WaitNs != 0 {
		t.Errorf("comm=%d wait=%d; sendrecv must price comm, single-sample delta has no skew",
			rep.CommNs, rep.WaitNs)
	}
}

// ringTrace is a ring exchange over p ranks repeated over w windows:
// each window loops over a send to rank+1, a receive from rank-1 (tag
// 1) and an allreduce, so every window touches the same p channels.
func ringTrace(p, w int) *trace.File {
	all := tracegen.Span(0, p)
	f := &trace.File{P: p}
	for i := 0; i < w; i++ {
		f.Nodes = append(f.Nodes, trace.NewLoop(10, []*trace.Node{
			trace.NewLeaf(trace.Event{Op: mpi.OpSend, Dest: trace.Relative(1), Tag: 1, Bytes: 64}, all, 300),
			trace.NewLeaf(trace.Event{Op: mpi.OpRecv, Src: trace.Relative(-1), Tag: 1, Bytes: 64}, all, 500),
			trace.NewLeaf(trace.Event{Op: mpi.OpAllreduce, Bytes: 8}, all, 40),
		}))
	}
	return f
}

// TestAnalyzeAllocsFlatInWindows: the match state is allocated once per
// analysis, so a window more costs only the report's own per-window
// maps (Ops and ByteBuckets), not an object per channel it touches.
func TestAnalyzeAllocsFlatInWindows(t *testing.T) {
	allocs := func(w int) float64 {
		f := ringTrace(64, w)
		return testing.AllocsPerRun(10, func() {
			if _, err := Analyze(f, Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	a1, a4, a16 := allocs(1), allocs(4), allocs(16)
	t.Logf("objects per Analyze over 1 / 4 / 16 windows: %v / %v / %v", a1, a4, a16)
	// The two report maps of a window are a few objects each; the 64
	// channels a window touches must add none.
	const perWindow = 8
	if a4-a1 > 3*perWindow || a16-a1 > 15*perWindow {
		t.Errorf("Analyze allocates %v / %v / %v objects over 1 / 4 / 16 windows of a P=64 ring: more than %d a window",
			a1, a4, a16, perWindow)
	}
}

// BenchmarkZanAnalyze analyses a P=1024 ring over 8 windows: 1 024
// channels, each touched in every window, so the per-channel cost of
// the match state shows.
func BenchmarkZanAnalyze(b *testing.B) {
	f := ringTrace(1024, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(f, Options{Model: vtime.Default()}); err != nil {
			b.Fatal(err)
		}
	}
}

// expandClasses returns the per-rank rows of the report's rank classes,
// failing t unless the classes partition [0, P) as their sizes say.
func expandClasses(t *testing.T, rep *Report) []Rank {
	t.Helper()
	rows := make([]Rank, rep.P)
	seen := make([]bool, rep.P)
	for i, c := range rep.RankClasses {
		n := 0
		c.Ranks.ForEach(func(r int) {
			if r < 0 || r >= rep.P || seen[r] {
				t.Fatalf("class %d (%v) holds rank %d twice or outside [0, %d)", i, c.Ranks, r, rep.P)
			}
			seen[r] = true
			n++
			rows[r] = Rank{Rank: r, Events: c.Events, ComputeNs: c.ComputeNs, CommNs: c.CommNs,
				WaitNs: c.WaitNs, SendBytes: c.SendBytes}
		})
		if n != c.Size {
			t.Fatalf("class %d (%v) holds %d ranks, its Size says %d", i, c.Ranks, n, c.Size)
		}
	}
	for r, ok := range seen {
		if !ok {
			t.Fatalf("rank %d is in no class", r)
		}
	}
	return rows
}

// A leaf's width is its ranks in [0, P): a list reaching past P counts
// only the ranks inside, in the window totals as in the rank rows. Each
// window's events are then the classes' sizes times their events.
func TestListCrossingPCountsRanksInside(t *testing.T) {
	const p = 8
	wide := tracegen.Span(4, 10) // ranks 4..13
	all := tracegen.Span(0, p)
	f := &trace.File{P: p, Nodes: []*trace.Node{
		trace.NewLoop(3, []*trace.Node{
			trace.NewLeaf(trace.Event{Op: mpi.OpAllreduce, Bytes: 8}, wide, 100),
			trace.NewLeaf(trace.Event{Op: mpi.OpSend, Dest: trace.Relative(1), Tag: 1, Bytes: 16}, wide, 10),
			trace.NewLeaf(trace.Event{Op: mpi.OpRecv, Src: trace.Relative(-1), Tag: 1, Bytes: 16}, wide, 10),
		}),
		trace.NewLeaf(trace.Event{Op: mpi.OpBarrier}, all, 50),
	}}
	for _, opt := range []Options{{}, {Expand: true}} {
		rep, err := Analyze(f, opt)
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(3 * 3 * 4); rep.Windows[0].Events != want {
			t.Errorf("window 0: %d events, want %d (4 ranks in [0, %d), 3 leaves, 3 iterations)", rep.Windows[0].Events, want, p)
		}
		if st := rep.Windows[0].Ops["Allreduce"]; st.Events != 12 || st.Bytes != 96 {
			t.Errorf("window 0 Allreduce = %+v, want {12, 96}", st)
		}
		var events uint64
		var compute int64
		for _, c := range rep.RankClasses {
			events += uint64(c.Size) * c.Events
			compute += int64(c.Size) * c.ComputeNs
		}
		if events != rep.Events || compute != rep.ComputeNs {
			t.Errorf("classes hold %d events and %d ns of compute, the windows %d and %d", events, compute, rep.Events, rep.ComputeNs)
		}
		if len(rep.RankClasses) != 2 || rep.RankClasses[1].Size != 4 || rep.Rank(7).Events != 10 || rep.Rank(3).Events != 1 {
			t.Errorf("rank classes %+v, want ranks 0-3 with 1 event and 4-7 with 10", rep.RankClasses)
		}
		// The ring 4 -> 5 -> 6 -> 7 closes in the world of 8 ranks: rank 7
		// sends to rank 0, which does not receive, and rank 4 receives
		// from rank 3, which does not send.
		if m := rep.Match; m.Sends != 12 || m.Recvs != 12 || m.ResolvedPairs != 9 || rep.Windows[0].LocalUnmatched != 6 {
			t.Errorf("match = %+v, local unmatched %d, want 12 sends and receives, 9 pairs, 6 unmatched",
				m, rep.Windows[0].LocalUnmatched)
		}
	}
}

// TestRatioGuards pins the shared denominator guard.
func TestRatioGuards(t *testing.T) {
	cases := []struct{ num, den, want float64 }{
		{1, 0, 0},
		{0, 0, 0},
		{1, math.NaN(), 0},
		{1, math.Inf(1), 0},
		{6, 3, 2},
	}
	for _, c := range cases {
		if got := Ratio(c.num, c.den); got != c.want {
			t.Errorf("Ratio(%g, %g) = %g, want %g", c.num, c.den, got, c.want)
		}
	}
}
