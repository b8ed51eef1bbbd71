package analysis

import (
	"testing"

	"chameleon/internal/mpi"
	"chameleon/internal/ranklist"
	"chameleon/internal/sig"
	"chameleon/internal/trace"
	"chameleon/internal/tracegen"
)

func mkFile(p int) *trace.File {
	ranks := tracegen.Span(0, p)
	send := trace.Event{Op: mpi.OpSend, Stack: sig.Stack(sig.Mix(1)), Dest: trace.Relative(1), Tag: 1, Bytes: 100}
	recv := trace.Event{Op: mpi.OpRecv, Stack: sig.Stack(sig.Mix(2)), Src: trace.Relative(-1), Tag: 1, Bytes: 100}
	coll := trace.Event{Op: mpi.OpAllreduce, Stack: sig.Stack(sig.Mix(3)), Bytes: 8}
	return &trace.File{
		P: p,
		Nodes: []*trace.Node{
			trace.NewLoop(10, []*trace.Node{
				trace.NewLeaf(send, ranks, 1000),
				trace.NewLeaf(recv, ranks, 0),
			}),
			trace.NewLeaf(coll, ranks, 500),
		},
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize(mkFile(4))
	if s.P != 4 || s.Leaves != 3 || s.DistinctSites != 3 {
		t.Fatalf("summary: %+v", s)
	}
	if s.DynamicEvents != 10*2+1 {
		t.Fatalf("events = %d", s.DynamicEvents)
	}
	if s.MaxLoopDepth != 1 {
		t.Fatalf("depth = %d", s.MaxLoopDepth)
	}
	if s.CompressionRatio != 7 {
		t.Fatalf("ratio = %v", s.CompressionRatio)
	}
	if s.OpCounts["Send"] != 10 || s.OpCounts["Allreduce"] != 1 {
		t.Fatalf("op counts: %v", s.OpCounts)
	}
	if s.String() == "" {
		t.Fatalf("empty render")
	}
}

func TestVolumes(t *testing.T) {
	vols := Volumes(mkFile(4))
	if len(vols) != 4 {
		t.Fatalf("volumes = %d", len(vols))
	}
	for _, v := range vols {
		if v.SendEvents != 10 || v.SendBytes != 1000 || v.RecvEvents != 10 || v.CollEvents != 1 {
			t.Fatalf("rank %d: %+v", v.Rank, v)
		}
	}
}

func TestMatrix(t *testing.T) {
	m := Matrix(mkFile(4))
	// Ring: each rank sends 10 messages to rank+1 mod 4.
	if m.TotalMessages() != 40 {
		t.Fatalf("total = %d", m.TotalMessages())
	}
	if m.Counts[0][1] != 10 || m.Counts[3][0] != 10 {
		t.Fatalf("counts: %v", m.Counts)
	}
	if m.Bytes[0][1] != 1000 {
		t.Fatalf("bytes: %v", m.Bytes)
	}
	if m.Unresolved != 0 {
		t.Fatalf("unresolved = %d", m.Unresolved)
	}
}

func TestMatrixUnresolved(t *testing.T) {
	reply := trace.Event{Op: mpi.OpSend, Stack: 9, Dest: trace.Endpoint{Kind: trace.EPReplyToLast}, Bytes: 8}
	f := &trace.File{P: 2, Nodes: []*trace.Node{trace.NewLeaf(reply, ranklist.SingleRank(0), 0)}}
	m := Matrix(f)
	if m.Unresolved != 1 || m.TotalMessages() != 0 {
		t.Fatalf("unresolved = %d total = %d", m.Unresolved, m.TotalMessages())
	}
}

func TestCompareEquivalent(t *testing.T) {
	d := Compare(mkFile(4), mkFile(4))
	if !d.Equivalent() {
		t.Fatalf("identical traces differ: %+v", d)
	}
}

func TestCompareFindsDifferences(t *testing.T) {
	a, b := mkFile(4), mkFile(4)
	// Remove the collective from b.
	b.Nodes = b.Nodes[:1]
	d := Compare(a, b)
	if d.Equivalent() {
		t.Fatalf("diff missed a dropped site")
	}
	if len(d.MissingInB) != 1 || len(d.MissingInA) != 0 {
		t.Fatalf("missing: %v / %v", d.MissingInA, d.MissingInB)
	}
	if len(d.EventDeltas) != 4 {
		t.Fatalf("event deltas: %v", d.EventDeltas)
	}
	if d.EventDeltas[0] != 1 {
		t.Fatalf("delta = %d", d.EventDeltas[0])
	}
}

func TestCriticalPath(t *testing.T) {
	got := CriticalPath(mkFile(4), 1000)
	// Per rank: 10*(1000 delta + 1000 alpha) + 10*1000 alpha (recv) +
	// (500 delta + 1000 alpha) for the collective.
	want := int64(10*2000 + 10*1000 + 1500)
	if got != want {
		t.Fatalf("critical path = %d, want %d", got, want)
	}
}

func TestCompareSiteCountShift(t *testing.T) {
	// Same sites, same per-rank totals: b runs the send site 11 times and
	// the recv site 9 times where a runs each 10 times. Before per-site
	// counting this diffed as equivalent.
	a, b := mkFile(4), mkFile(4)
	loop := b.Nodes[0]
	send, recv := loop.Body[0], loop.Body[1]
	b.Nodes = []*trace.Node{
		trace.NewLoop(9, []*trace.Node{send, recv}),
		trace.NewLeaf(send.Ev, send.Ranks, 1000),
		trace.NewLeaf(send.Ev, send.Ranks, 1000),
		b.Nodes[1],
	}
	d := Compare(a, b)
	if d.Equivalent() {
		t.Fatalf("diff missed a per-site count shift")
	}
	if len(d.EventDeltas) != 0 {
		t.Fatalf("per-rank totals should agree: %v", d.EventDeltas)
	}
	if len(d.SiteCountDeltas) != 2 {
		t.Fatalf("site deltas: %v", d.SiteCountDeltas)
	}
	sendSite, recvSite := uint64(send.Ev.Stack), uint64(recv.Ev.Stack)
	if d.SiteCountDeltas[sendSite] != -4 || d.SiteCountDeltas[recvSite] != 4 {
		t.Fatalf("site deltas: %v", d.SiteCountDeltas)
	}
	if d.Reason() == "" {
		t.Fatalf("divergent diff has empty reason")
	}
}

func TestDiffReason(t *testing.T) {
	if r := Compare(mkFile(4), mkFile(4)).Reason(); r != "" {
		t.Fatalf("equivalent diff has reason %q", r)
	}
	a, b := mkFile(4), mkFile(4)
	b.Nodes = b.Nodes[:1]
	d := Compare(a, b)
	if r := d.Reason(); r == "" {
		t.Fatalf("missing-site diff has empty reason")
	}
}

// stripRank clones a node sequence with one rank removed from every
// leaf's rank list, dropping leaves left with no members — the shape of
// a trace whose rank crash-stopped before recording anything.
func stripRank(seq []*trace.Node, rank int) []*trace.Node {
	var out []*trace.Node
	for _, n := range seq {
		if n.IsLoop() {
			out = append(out, trace.NewLoop(n.Iters, stripRank(n.Body, rank)))
			continue
		}
		var keep []int
		for _, r := range n.Ranks.Ranks() {
			if r != rank {
				keep = append(keep, r)
			}
		}
		if len(keep) == 0 {
			continue
		}
		out = append(out, trace.NewLeaf(n.Ev, ranklist.FromRanks(keep), 0))
	}
	return out
}

func TestCompareWithTolerateRanks(t *testing.T) {
	full := mkFile(4)
	faulted := mkFile(4)
	faulted.Nodes = stripRank(faulted.Nodes, 2)
	faulted.Retired = []int{2}
	// A site covered only by the retired rank: present in full, gone
	// entirely from faulted.
	solo := trace.Event{Op: mpi.OpBarrier, Stack: sig.Stack(sig.Mix(4))}
	full.Nodes = append(full.Nodes, trace.NewLeaf(solo, ranklist.SingleRank(2), 0))

	if Compare(full, faulted).Equivalent() {
		t.Fatalf("plain compare must see the missing rank")
	}
	d := CompareWith(full, faulted, CompareOpts{TolerateRanks: []int{2}})
	if !d.Equivalent() {
		t.Fatalf("tolerated compare diverges: %s", d.Reason())
	}

	// Tolerance must not mask divergence among the surviving ranks.
	broken := mkFile(4)
	broken.Nodes = stripRank(broken.Nodes, 2)
	broken.Nodes = broken.Nodes[:1] // drop the survivors' collective too
	d = CompareWith(full, broken, CompareOpts{TolerateRanks: []int{2}})
	if d.Equivalent() {
		t.Fatalf("tolerated compare missed a survivor divergence")
	}
}

func TestCompareWithEmptyOptsMatchesCompare(t *testing.T) {
	a, b := mkFile(4), mkFile(4)
	b.Nodes = b.Nodes[:1]
	plain, opted := Compare(a, b), CompareWith(a, b, CompareOpts{})
	if plain.Reason() != opted.Reason() {
		t.Fatalf("CompareWith{} diverges from Compare: %q vs %q", plain.Reason(), opted.Reason())
	}
	if len(plain.EventDeltas) != len(opted.EventDeltas) || len(plain.SiteCountDeltas) != len(opted.SiteCountDeltas) {
		t.Fatalf("CompareWith{} deltas differ from Compare")
	}
}

// TestZeroIterationLoopMetrics pins the empty-window guards: a trace
// whose only loop never trips must produce clean zeros everywhere — no
// NaN, no Inf, no phantom zero-count map entries.
func TestZeroIterationLoopMetrics(t *testing.T) {
	dead := trace.NewLeaf(
		trace.Event{Op: mpi.OpSend, Stack: sig.Stack(sig.Mix(77)), Dest: trace.Relative(1), Bytes: 64},
		ranklist.FromRanks([]int{0, 1}), 100)
	f := &trace.File{P: 2, Nodes: []*trace.Node{trace.NewLoop(0, []*trace.Node{dead})}}

	s := Summarize(f)
	if s.DynamicEvents != 0 || s.CompressionRatio != 0 {
		t.Errorf("summary: events=%d ratio=%g, want zeros", s.DynamicEvents, s.CompressionRatio)
	}
	if len(s.OpCounts) != 0 {
		t.Errorf("summary leaked zero-count ops: %v", s.OpCounts)
	}

	for _, v := range Volumes(f) {
		if v.SendEvents != 0 || v.SendBytes != 0 {
			t.Errorf("volumes leaked from zero-trip loop: %+v", v)
		}
	}

	m := Matrix(f)
	if m.TotalMessages() != 0 || m.Unresolved != 0 || len(m.Counts) != 0 {
		t.Errorf("matrix leaked from zero-trip loop: %+v", m)
	}

	if cp := CriticalPath(f, 1000); cp != 0 {
		t.Errorf("critical path = %d, want 0", cp)
	}

	// A call site whose loop never trips issued no MPI event, so it is
	// neither a covered site nor a phantom zero-valued count delta.
	empty := &trace.File{P: 2}
	if d := Compare(f, empty); !d.Equivalent() {
		t.Errorf("zero-trip loop diverges from the empty trace: %+v", d)
	}
}

// TestEmptyTraceMetrics covers the degenerate no-node trace.
func TestEmptyTraceMetrics(t *testing.T) {
	f := &trace.File{P: 3}
	s := Summarize(f)
	if s.CompressionRatio != 0 || s.DynamicEvents != 0 || s.Leaves != 0 {
		t.Errorf("empty summary: %+v", s)
	}
	if got := len(Volumes(f)); got != 3 {
		t.Errorf("Volumes length = %d, want 3", got)
	}
	if m := Matrix(f); m.TotalMessages() != 0 {
		t.Errorf("empty matrix has messages")
	}
}
