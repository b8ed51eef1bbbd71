package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"chameleon/internal/mpi"
	"chameleon/internal/ranklist"
	"chameleon/internal/sig"
	"chameleon/internal/stats"
)

// call is one Visitor callback, with what the node it was handed held
// then: Walk's nodes are scratch, so the record copies the fields.
type call struct {
	kind   string // "enter", "leave", "leaf"
	c      Cursor
	loop   bool
	ev     Event
	ranks  ranklist.List
	iters  uint64
	delta  []byte // the histograms' encodings; nil when the field is nil
	itersH []byte
}

func histBytes(h *stats.Histogram) []byte {
	if h == nil {
		return nil
	}
	return appendHist([]byte{}, h)
}

// recorder records every callback. It prunes the loops whose EnterLoop
// ordinal (from 1) is a multiple of prune, when prune > 0.
type recorder struct {
	calls  []call
	prune  int
	enters int
	header *Header
}

func (r *recorder) record(kind string, n *Node, c Cursor) {
	r.calls = append(r.calls, call{
		kind: kind, c: c, loop: n.IsLoop(), ev: n.Ev, ranks: n.Ranks, iters: n.Iters,
		delta: histBytes(n.Delta), itersH: histBytes(n.ItersHist),
	})
}

func (r *recorder) Header(h Header) { r.header = &h }

func (r *recorder) EnterLoop(n *Node, c Cursor) bool {
	r.record("enter", n, c)
	r.enters++
	return r.prune == 0 || r.enters%r.prune != 0
}

func (r *recorder) LeaveLoop(n *Node, c Cursor) { r.record("leave", n, c) }
func (r *recorder) Leaf(n *Node, c Cursor)      { r.record("leaf", n, c) }

// CheckWalkMatchesAccept fails t unless Walk(data) fails exactly when
// DecodeBinary(data) fails, and otherwise hands the visitor the header
// of the decoded file and then the callbacks Accept makes on its nodes —
// every kind, cursor and node field, in order — with and without
// pruning.
func CheckWalkMatchesAccept(t testing.TB, data []byte) {
	t.Helper()
	f, decodeErr := DecodeBinary(data)
	for _, prune := range []int{0, 1, 2, 3} {
		walked := &recorder{prune: prune}
		err := Walk(data, walked)
		if (err == nil) != (decodeErr == nil) {
			t.Fatalf("Walk err=%v, DecodeBinary err=%v", err, decodeErr)
		}
		if err != nil {
			return
		}
		want := Header{P: f.P, Benchmark: f.Benchmark, Tracer: f.Tracer, Clustered: f.Clustered,
			Filter: f.Filter, Windows: len(f.Nodes)}
		if walked.header == nil || *walked.header != want {
			t.Fatalf("Walk's header %+v, decoded file's %+v", walked.header, want)
		}
		accepted := &recorder{prune: prune}
		Accept(f.Nodes, accepted)
		if len(walked.calls) != len(accepted.calls) {
			t.Fatalf("prune %d: Walk made %d callbacks, Accept %d", prune, len(walked.calls), len(accepted.calls))
		}
		for i, w := range walked.calls {
			if a := accepted.calls[i]; !reflect.DeepEqual(w, a) {
				t.Fatalf("prune %d: callback %d: Walk %+v, Accept %+v", prune, i, w, a)
			}
		}
	}
}

// walkSeeds is the corpus Walk is checked on: the decoder oracle's seeds,
// the scan's canonical payload and its one-edit variants, and
// FuzzReadBinary's poison (the wide rank lists, a rank count past the
// bound).
func walkSeeds(t testing.TB) [][]byte {
	out := append(sortedOracleSeeds(t), scanSeed(""))
	for _, edit := range scanEdits {
		out = append(out, scanSeed(edit))
	}
	return append(out, wideListsPayload(), hugeRankFile(1<<22))
}

func TestWalkMatchesAcceptSeeds(t *testing.T) {
	for i, data := range walkSeeds(t) {
		t.Run(fmt.Sprint(i), func(t *testing.T) { CheckWalkMatchesAccept(t, data) })
	}
}

// FuzzWalkMatchesAccept: on any input Walk is DecodeBinary then Accept,
// or fails exactly where DecodeBinary does (CheckWalkMatchesAccept).
func FuzzWalkMatchesAccept(f *testing.F) {
	for _, data := range walkSeeds(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		CheckWalkMatchesAccept(t, data)
	})
}

// Walk hands out one scratch node per depth, and one histogram with it:
// every node at a depth is the same *Node, whatever sequence it is in
// and whatever it holds, which is why a visitor may not keep one past
// its callback. A loop is not its body's scratch, so it stays intact
// until its LeaveLoop.
func TestWalkReusesScratchNodes(t *testing.T) {
	leaf := func(op mpi.OpCode) *Node {
		return NewLeaf(Event{Op: op, Stack: sig.Stack(sig.Mix(uint64(op)))}, ranklist.SingleRank(0), 5)
	}
	f := &File{P: 1, Nodes: []*Node{
		NewLoop(2, []*Node{leaf(mpi.OpSend)}),
		NewLoop(3, []*Node{leaf(mpi.OpRecv)}),
		leaf(mpi.OpBarrier),
	}}
	var loops, leaves []*Node
	var deltas []*stats.Histogram
	v := &funcVisitor{
		enter: func(n *Node, c Cursor) { loops = append(loops, n) },
		leave: func(n *Node, c Cursor) {
			if n != loops[len(loops)-1] || n.Iters != uint64(len(loops)+1) {
				t.Fatalf("LeaveLoop got %p (Iters %d), EnterLoop %p", n, n.Iters, loops[len(loops)-1])
			}
		},
		leaf: func(n *Node, c Cursor) {
			leaves = append(leaves, n)
			deltas = append(deltas, n.Delta)
		},
	}
	if err := Walk(f.AppendBinary(nil), v); err != nil {
		t.Fatal(err)
	}
	if len(leaves) != 3 || leaves[0] != leaves[1] || deltas[0] != deltas[1] {
		t.Fatalf("the two loops' leaves are %p and %p, deltas %p and %p: not one scratch node", leaves[0], leaves[1], deltas[0], deltas[1])
	}
	if loops[0] != loops[1] || leaves[2] != loops[0] || leaves[0] == leaves[2] {
		t.Fatal("the top level's loops and leaf are not one scratch node, or share the body's")
	}
	if leaves[0].Ev.Op != mpi.OpRecv || leaves[2].Ev.Op != mpi.OpBarrier {
		t.Fatalf("the scratch nodes hold %v and %v, the last nodes read at their depths are the recv and the barrier", leaves[0].Ev.Op, leaves[2].Ev.Op)
	}
}

type funcVisitor struct {
	enter, leave, leaf func(*Node, Cursor)
}

func (v *funcVisitor) EnterLoop(n *Node, c Cursor) bool { v.enter(n, c); return true }
func (v *funcVisitor) LeaveLoop(n *Node, c Cursor)      { v.leave(n, c) }
func (v *funcVisitor) Leaf(n *Node, c Cursor)           { v.leaf(n, c) }

// normalList wraps descriptors in normal form as ranklist.Normalize
// keeps them, without expanding them; it panics on any others.
func normalList(rls ...ranklist.RL) ranklist.List {
	l, ok := ranklist.Normalize(rls, nil)
	if !ok {
		panic(fmt.Sprintf("%v is not in normal form", rls))
	}
	return l
}

// rawList is the list of the descriptors js writes, kept as written:
// List.UnmarshalJSON is the one way to build a list out of normal form
// outside package ranklist, as a hand-written trace would hold it.
func rawList(js string) ranklist.List {
	var l ranklist.List
	if err := json.Unmarshal([]byte(js), &l); err != nil {
		panic(err)
	}
	return l
}

// wideListsPayload is a canonical payload of 64 leaves, each with a
// distinct rank list of one strided run of 2^20 ranks: 1.5 KB.
func wideListsPayload() []byte {
	f := &File{P: maxRankExpansion, Benchmark: "WIDE"}
	ev := Event{Op: mpi.OpBarrier, Stack: sig.Stack(sig.Mix(0x71de))}
	for i := 0; i < 64; i++ {
		l := normalList(ranklist.Range(i, maxRankExpansion, 1))
		f.Nodes = append(f.Nodes, NewLeaf(ev, l, 0))
	}
	return f.AppendBinary(nil)
}

// Rank lists are checked, not expanded: the wide lists payload decodes,
// walks and scans in well under a millisecond a list, allocating under
// 64 KB. Each list used to be expanded and re-compacted on first sight:
// ~0.9 s and 3.2 GB a read.
func TestWideRankListsReadWithoutExpanding(t *testing.T) {
	data := wideListsPayload()
	if len(data) > 2<<10 {
		t.Fatalf("the payload is %d bytes, want under 2 KB", len(data))
	}
	reads := map[string]func() error{
		"decode": func() error { _, err := DecodeBinary(data); return err },
		"walk":   func() error { return Walk(data, leafVisitor(func(*Node, Cursor) {})) },
		"scan": func() error {
			if _, ok := ScanCanonical(data); !ok {
				return fmt.Errorf("not canonical")
			}
			return nil
		},
	}
	for _, name := range []string{"decode", "walk", "scan"} {
		t.Run(name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			if err := reads[name](); err != nil {
				t.Fatal(err)
			}
			took := time.Since(start)
			runtime.ReadMemStats(&after)
			got := after.TotalAlloc - before.TotalAlloc
			t.Logf("%s of %d bytes: %v, %d B allocated", name, len(data), took, got)
			if got > 64<<10 || took > 250*time.Millisecond {
				t.Fatalf("%s of %d bytes took %v and allocated %d B", name, len(data), took, got)
			}
		})
	}
}

// Lists out of normal form, which JSON bodies carry, are expanded and
// re-compacted, against a budget for the whole file of 2^20 ranks plus
// one a byte: one such list of 2^20 ranks reads, a second does not.
func TestNonNormalRankListsExpandWithinBudget(t *testing.T) {
	split := func(start int) ranklist.List { // {start .. start+2^20) as two runs
		half := maxRankExpansion / 2
		return rawList(fmt.Sprintf(`[{"start":%d,"dims":[[%d,1]]},{"start":%d,"dims":[[%d,1]]}]`, start, half, start+half, half))
	}
	ev := Event{Op: mpi.OpBarrier, Stack: sig.Stack(sig.Mix(0x71df))}
	f := &File{P: 4, Nodes: []*Node{NewLeaf(ev, split(0), 1)}}
	g, err := DecodeBinary(f.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	if want := normalList(ranklist.Range(0, maxRankExpansion, 1)); !reflect.DeepEqual(g.Nodes[0].Ranks, want) {
		t.Fatalf("read %v, want the normal form %v", g.Nodes[0].Ranks, want)
	}
	f.Nodes = append(f.Nodes, NewLeaf(ev, split(1), 1))
	data := f.AppendBinary(nil)
	if _, err := DecodeBinary(data); !errors.Is(err, errRankBudget) {
		t.Fatalf("two lists past the budget: err=%v", err)
	}
	if err := Walk(data, nil); !errors.Is(err, errRankBudget) {
		t.Fatalf("Walk of two lists past the budget: err=%v", err)
	}
	if _, ok := ScanCanonical(data); ok {
		t.Fatal("lists out of normal form scanned as canonical")
	}
}
