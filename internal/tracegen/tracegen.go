// Package tracegen draws trace files from a byte stream for the
// differential fuzzers, and holds fixtures several suites share. Only
// tests may import it (`make check` fails if a binary does). Every
// caller gets the same, widest draw: there are no options.
package tracegen

import (
	"math/rand"

	"chameleon/internal/mpi"
	"chameleon/internal/ranklist"
	"chameleon/internal/sig"
	"chameleon/internal/stats"
	"chameleon/internal/trace"
	"chameleon/internal/vtime"
)

// Gen reads its input as a stream of small choices. An exhausted stream
// reads as zeros, so every input is a valid program.
type Gen struct {
	b []byte
	i int
}

// New returns a Gen reading data.
func New(data []byte) *Gen { return &Gen{b: data} }

// Seeds returns n inputs of 16 to 255 bytes from a math/rand source of
// the given seed: a fuzzer's seed corpus, or a seeded suite's inputs.
func Seeds(seed int64, n int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, 16+rng.Intn(240))
		rng.Read(out[i])
	}
	return out
}

// Int draws a choice in [0, n); n must be positive.
func (g *Gen) Int(n int) int {
	if g.i >= len(g.b) {
		return 0
	}
	v := int(g.b[g.i])
	g.i++
	return v % n
}

// P draws a world size in 1..64.
func (g *Gen) P() int { return 1 + g.Int(64) }

// ops are the operations leaves draw from: every point-to-point form and
// a spread of collectives and local ops.
var ops = []mpi.OpCode{
	mpi.OpSend, mpi.OpIsend, mpi.OpRecv, mpi.OpIrecv, mpi.OpSendrecv,
	mpi.OpBarrier, mpi.OpAllreduce, mpi.OpBcast, mpi.OpAlltoall, mpi.OpWait,
}

// Endpoint draws a relative end-point (any offset up to ±p), an absolute
// one (maybe at or past p: it resolves mod p), AnySource or ReplyToLast.
func (g *Gen) Endpoint(p int) trace.Endpoint {
	switch g.Int(4) {
	case 0:
		return trace.Relative(g.Int(2*p+1) - p)
	case 1:
		return trace.Absolute(g.Int(2 * p))
	case 2:
		return trace.Endpoint{Kind: trace.EPAnySource}
	}
	return trace.Endpoint{Kind: trace.EPReplyToLast}
}

// List draws a rank list in normal form, built by FromRanks from the
// ranks of one of: a run that may cross 0 or p, a run of a coprime
// stride, a 2D block, a single rank (maybe outside [0, p)), a random
// subset of [0, p+2) (maybe empty), two disjoint runs (joined when they
// meet), or every rank of [0, p).
func (g *Gen) List(p int) ranklist.List {
	start := g.Int(p+4) - 2
	var rls []ranklist.RL
	switch g.Int(7) {
	case 0:
		rls = []ranklist.RL{ranklist.Range(start, 1+g.Int(p+6), 1)}
	case 1:
		strides := []int{2, 3, 5, 7}
		rls = []ranklist.RL{ranklist.Range(start, 1+g.Int(p/2+3), strides[g.Int(4)])}
	case 2:
		n, d := 1+g.Int(4), 1+g.Int(3)
		s := (n-1)*d + 1 + g.Int(6)
		rls = []ranklist.RL{ranklist.New(start, ranklist.Dim{Iters: n, Stride: d}, ranklist.Dim{Iters: 1 + g.Int(5), Stride: s})}
	case 3:
		return ranklist.SingleRank(start)
	case 4:
		var ranks []int
		for r := 0; r < p+2; r++ {
			if g.Int(2) == 1 {
				ranks = append(ranks, r)
			}
		}
		return ranklist.FromRanks(ranks)
	case 5:
		n := 1 + g.Int(5)
		rls = []ranklist.RL{
			ranklist.Range(start, n, 1),
			ranklist.Range(start+n+g.Int(3), 1+g.Int(5), 1+g.Int(2)),
		}
	default:
		return Span(0, p)
	}
	var ranks []int
	for _, r := range rls {
		ranks = append(ranks, r.Ranks()...)
	}
	return ranklist.FromRanks(ranks)
}

// Leaf draws a leaf: an operation with the end-points it needs, no call
// site or one of six, a tag in 0..5, a payload, a compute time that may
// be negative, a list, and a delta histogram of none or one to three
// samples.
func (g *Gen) Leaf(p int) *trace.Node {
	ev := trace.Event{Op: ops[g.Int(len(ops))]}
	if site := g.Int(7); site > 0 {
		ev.Stack = sig.Stack(sig.Mix(uint64(site)))
	}
	ev.Tag = g.Int(6)
	ev.Bytes = g.Int(4) << (4 * g.Int(4))
	switch ev.Op {
	case mpi.OpSend, mpi.OpIsend:
		ev.Dest = g.Endpoint(p)
	case mpi.OpRecv, mpi.OpIrecv:
		ev.Src = g.Endpoint(p)
	case mpi.OpSendrecv:
		ev.Dest, ev.Src = g.Endpoint(p), g.Endpoint(p)
	}
	n := trace.NewLeaf(ev, g.List(p), int64(g.Int(256)-64)*10)
	samples := g.Int(4)
	if samples == 0 {
		n.Delta = nil
	}
	for ; samples > 1; samples-- {
		n.Delta.Add(int64(g.Int(256)) * 7)
	}
	return n
}

// Loop draws a loop of 0..4 trips around body, some with a trip-count
// histogram whose mean the readers take instead.
func (g *Gen) Loop(body []*trace.Node) *trace.Node {
	n := trace.NewLoop(uint64(g.Int(5)), body)
	if g.Int(3) == 0 {
		n.ItersHist = stats.NewHistogram()
		for s := 1 + g.Int(3); s > 0; s-- {
			n.ItersHist.Add(int64(g.Int(6)))
		}
	}
	return n
}

// Seq draws one to three nodes at the given depth: leaves, and loops
// nested down to depth 3.
func (g *Gen) Seq(p, depth int) []*trace.Node {
	seq := make([]*trace.Node, 1+g.Int(3))
	for i := range seq {
		if depth < 3 && g.Int(3) == 0 {
			seq[i] = g.Loop(g.Seq(p, depth+1))
		} else {
			seq[i] = g.Leaf(p)
		}
	}
	return seq
}

// File draws a program of P in 1..64 over one to three windows
// (top-level nodes), each a leaf or a loop.
func (g *Gen) File() *trace.File {
	f := &trace.File{P: g.P()}
	for w := 1 + g.Int(3); w > 0; w-- {
		if g.Int(2) == 0 {
			f.Nodes = append(f.Nodes, g.Leaf(f.P))
		} else {
			f.Nodes = append(f.Nodes, g.Loop(g.Seq(f.P, 1)))
		}
	}
	return f
}

// Span is the list of the n ranks from lo, in normal form.
func Span(lo, n int) ranklist.List {
	ranks := make([]int, n)
	for i := range ranks {
		ranks[i] = lo + i
	}
	return ranklist.FromRanks(ranks)
}

// Covers reports whether a leaf of seq lists rank r.
func Covers(seq []*trace.Node, r int) bool {
	for _, n := range seq {
		if n.IsLoop() && Covers(n.Body, r) || !n.IsLoop() && n.Ranks.Contains(r) {
			return true
		}
	}
	return false
}

// Ring is a program of steps rounds, each 50 µs of compute and then a
// Sendrecv to the next rank and from the previous one.
func Ring(steps int) func(*mpi.Proc) {
	return func(p *mpi.Proc) {
		next, prev := (p.Rank()+1)%p.Size(), (p.Rank()+p.Size()-1)%p.Size()
		for it := 0; it < steps; it++ {
			p.Compute(50 * vtime.Microsecond)
			p.World().Sendrecv(next, 1, 128, nil, prev, 1)
		}
	}
}

// SendRecvTrace builds a small deterministic trace over every rank of p:
// a loop of iters trips around a send to the next rank and a receive
// from the previous one, then an Allreduce. Each trip adds two events
// per rank; seed perturbs the call-site signatures, so distinct seeds
// give distinct content addresses.
func SendRecvTrace(p int, benchmark string, iters, seed uint64) *trace.File {
	ranks := Span(0, p)
	send := trace.Event{Op: mpi.OpSend, Stack: sig.Stack(sig.Mix(seed*100 + 1)), Dest: trace.Relative(1), Tag: 1, Bytes: 256}
	recv := trace.Event{Op: mpi.OpRecv, Stack: sig.Stack(sig.Mix(seed*100 + 2)), Src: trace.Relative(-1), Tag: 1, Bytes: 256}
	coll := trace.Event{Op: mpi.OpAllreduce, Stack: sig.Stack(sig.Mix(seed*100 + 3)), Bytes: 8}
	return &trace.File{
		P:         p,
		Benchmark: benchmark,
		Tracer:    "chameleon",
		Nodes: []*trace.Node{
			trace.NewLoop(iters, []*trace.Node{
				trace.NewLeaf(send, ranks, 1000),
				trace.NewLeaf(recv, ranks, 0),
			}),
			trace.NewLeaf(coll, ranks, 500),
		},
	}
}
