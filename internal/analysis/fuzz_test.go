package analysis

import (
	"math/rand"
	"reflect"
	"testing"

	"chameleon/internal/mpi"
	"chameleon/internal/ranklist"
	"chameleon/internal/sig"
	"chameleon/internal/stats"
	"chameleon/internal/trace"
)

// genBytes reads a fuzz input as a stream of small choices; an
// exhausted input reads as zeros, so every input is a valid pair of
// traces.
type genBytes struct {
	b []byte
	i int
}

func (g *genBytes) next(n int) int {
	if g.i >= len(g.b) {
		return 0
	}
	v := int(g.b[g.i])
	g.i++
	return v % n
}

var genOps = []mpi.OpCode{
	mpi.OpSend, mpi.OpIsend, mpi.OpRecv, mpi.OpIrecv, mpi.OpSendrecv,
	mpi.OpBarrier, mpi.OpAllreduce, mpi.OpBcast, mpi.OpWait,
}

// genEndpoint draws a relative end-point (any offset), an absolute one
// (maybe past P: it resolves mod P), or a wildcard.
func genEndpoint(g *genBytes, p int) trace.Endpoint {
	switch g.next(4) {
	case 0:
		return trace.Relative(g.next(2*p+1) - p)
	case 1:
		return trace.Absolute(g.next(2 * p))
	case 2:
		return trace.Endpoint{Kind: trace.EPAnySource}
	}
	return trace.Endpoint{Kind: trace.EPReplyToLast}
}

// genList draws a rank list, compacted from the ranks of descriptors:
// runs that cross P (or 0), runs of coprime strides, 2D blocks, single
// ranks, random subsets, and two disjoint runs (joined when they meet).
func genList(g *genBytes, p int) ranklist.List {
	start := g.next(p+4) - 2
	var rls []ranklist.RL
	switch g.next(6) {
	case 0:
		rls = []ranklist.RL{ranklist.Range(start, 1+g.next(p+6), 1)}
	case 1:
		strides := []int{2, 3, 5, 7}
		rls = []ranklist.RL{ranklist.Range(start, 1+g.next(p/2+3), strides[g.next(4)])}
	case 2:
		n, d := 1+g.next(4), 1+g.next(3)
		s := (n-1)*d + 1 + g.next(6)
		rls = []ranklist.RL{ranklist.New(start, ranklist.Dim{Iters: n, Stride: d}, ranklist.Dim{Iters: 1 + g.next(5), Stride: s})}
	case 3:
		return ranklist.SingleRank(start)
	case 4:
		var ranks []int
		for r := 0; r < p+2; r++ {
			if g.next(2) == 1 {
				ranks = append(ranks, r)
			}
		}
		return ranklist.FromRanks(ranks)
	default:
		n := 1 + g.next(5)
		rls = []ranklist.RL{
			ranklist.Range(start, n, 1),
			ranklist.Range(start+n+g.next(3), 1+g.next(5), 1+g.next(2)),
		}
	}
	var ranks []int
	for _, r := range rls {
		ranks = append(ranks, r.Ranks()...)
	}
	return ranklist.FromRanks(ranks)
}

// genLeaf draws a leaf on one of six call sites: an operation with the
// end-points it needs, a payload, a delta histogram or none, and a
// list.
func genLeaf(g *genBytes, p int) *trace.Node {
	ev := trace.Event{
		Op:    genOps[g.next(len(genOps))],
		Stack: sig.Stack(sig.Mix(uint64(1 + g.next(6)))),
		Tag:   g.next(3),
		Bytes: g.next(4) << (4 * g.next(4)),
	}
	switch ev.Op {
	case mpi.OpSend, mpi.OpIsend:
		ev.Dest = genEndpoint(g, p)
	case mpi.OpRecv, mpi.OpIrecv:
		ev.Src = genEndpoint(g, p)
	case mpi.OpSendrecv:
		ev.Dest, ev.Src = genEndpoint(g, p), genEndpoint(g, p)
	}
	n := trace.NewLeaf(ev, genList(g, p), int64(g.next(256)-64)*10)
	switch g.next(3) {
	case 0:
		n.Delta = nil
	case 1:
		n.Delta.Add(int64(g.next(256)) * 7)
	}
	return n
}

// genLoop draws a loop of 0..4 trips, zero-trip ones included, some
// with a trip-count histogram whose mean the walk takes instead.
func genLoop(g *genBytes, body []*trace.Node) *trace.Node {
	n := trace.NewLoop(uint64(g.next(5)), body)
	if g.next(3) == 0 {
		n.ItersHist = stats.NewHistogram()
		for s := 1 + g.next(3); s > 0; s-- {
			n.ItersHist.Add(int64(g.next(6)))
		}
	}
	return n
}

// genSeq draws one to three nodes, loops nested up to three deep.
func genSeq(g *genBytes, p, depth int) []*trace.Node {
	seq := make([]*trace.Node, 1+g.next(3))
	for i := range seq {
		if depth < 3 && g.next(3) == 0 {
			seq[i] = genLoop(g, genSeq(g, p, depth+1))
		} else {
			seq[i] = genLeaf(g, p)
		}
	}
	return seq
}

// perturb copies seq, now and then with a leaf on a new list or a loop
// of other trips: a second trace that mostly agrees with the first.
func perturb(g *genBytes, seq []*trace.Node, p int) []*trace.Node {
	out := make([]*trace.Node, len(seq))
	for i, n := range seq {
		c := *n
		if n.IsLoop() {
			c.Body = perturb(g, n.Body, p)
			if g.next(4) == 0 {
				c.Iters = uint64(g.next(5))
			}
		} else if g.next(4) == 0 {
			c.Ranks = genList(g, p)
		}
		out[i] = &c
	}
	return out
}

// readersInput draws two traces of P in 1..40, the second independent
// or a perturbed copy of the first at its own P, a tolerance set and a
// latency.
func readersInput(data []byte) (a, b *trace.File, opts CompareOpts, alpha int64) {
	g := &genBytes{b: data}
	a = &trace.File{P: 1 + g.next(40)}
	for w := 1 + g.next(3); w > 0; w-- {
		if g.next(2) == 0 {
			a.Nodes = append(a.Nodes, genLeaf(g, a.P))
		} else {
			a.Nodes = append(a.Nodes, genLoop(g, genSeq(g, a.P, 1)))
		}
	}
	b = &trace.File{P: a.P}
	if g.next(2) == 0 {
		b.P = 1 + g.next(40)
	}
	if g.next(3) == 0 {
		b.Nodes = genSeq(g, b.P, 1)
	} else {
		b.Nodes = perturb(g, a.Nodes, b.P)
	}
	for k := g.next(5); k > 0; k-- {
		opts.TolerateRanks = append(opts.TolerateRanks, g.next(max(a.P, b.P)+4)-2)
	}
	return a, b, opts, int64(g.next(2000))
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
// expanded every list (ref_test.go), over generated pairs of traces. Its
// 2000 random seeds run in every plain test run.
func FuzzReadersMatchReference(f *testing.F) {
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < 2000; i++ {
		seed := make([]byte, 16+rng.Intn(240))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Fuzz(checkReaders)
}
