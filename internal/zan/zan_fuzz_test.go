package zan

import (
	"math/rand"
	"reflect"
	"testing"

	"chameleon/internal/mpi"
	"chameleon/internal/ranklist"
	"chameleon/internal/trace"
)

// genBytes reads a fuzz input as a stream of small choices; an
// exhausted input reads as zeros, so every input is a valid program.
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

// genOps are the operations generated leaves draw from: every
// point-to-point form and a spread of collectives and local ops.
var genOps = []mpi.OpCode{
	mpi.OpSend, mpi.OpIsend, mpi.OpRecv, mpi.OpIrecv, mpi.OpSendrecv,
	mpi.OpBarrier, mpi.OpAllreduce, mpi.OpBcast, mpi.OpAlltoall, mpi.OpWait,
}

// genEndpoint draws a Relative, Absolute, AnySource or ReplyToLast
// end-point; Absolute ranks stay in [0, p).
func genEndpoint(g *genBytes, p int) trace.Endpoint {
	switch g.next(4) {
	case 0:
		return trace.Relative(g.next(2*p+1) - p)
	case 1:
		return trace.Absolute(g.next(p))
	case 2:
		return trace.Endpoint{Kind: trace.EPAnySource}
	}
	return trace.Endpoint{Kind: trace.EPReplyToLast}
}

// genLeaf draws one leaf: an operation with the end-points it needs, a
// tag in 0..5, a payload, a delta histogram of one to three samples and
// a non-empty rank list inside [0, p).
func genLeaf(g *genBytes, p int) *trace.Node {
	ev := trace.Event{
		Op:    genOps[g.next(len(genOps))],
		Tag:   g.next(6),
		Bytes: g.next(4) << (4 * g.next(4)),
	}
	sends, recvs := p2pSides(ev.Op)
	if sends {
		ev.Dest = genEndpoint(g, p)
	}
	if recvs {
		ev.Src = genEndpoint(g, p)
	}
	var ranks []int
	switch g.next(3) {
	case 0: // every rank
		for r := 0; r < p; r++ {
			ranks = append(ranks, r)
		}
	case 1: // one rank
		ranks = []int{g.next(p)}
	default: // a random subset
		for r := 0; r < p; r++ {
			if g.next(2) == 1 {
				ranks = append(ranks, r)
			}
		}
		if len(ranks) == 0 {
			ranks = []int{g.next(p)}
		}
	}
	n := trace.NewLeaf(ev, ranklist.FromRanks(ranks), int64(g.next(256))*10)
	for s := g.next(3); s > 0; s-- {
		n.Delta.Add(int64(g.next(256)) * 7)
	}
	return n
}

// genSeq draws one to three nodes: leaves, and loops (zero-trip ones
// included) nested up to three deep.
func genSeq(g *genBytes, p, depth int) []*trace.Node {
	seq := make([]*trace.Node, 1+g.next(3))
	for i := range seq {
		if depth < 3 && g.next(3) == 0 {
			seq[i] = trace.NewLoop(uint64(g.next(5)), genSeq(g, p, depth+1))
		} else {
			seq[i] = genLeaf(g, p)
		}
	}
	return seq
}

// genTrace draws a program of P in 1..64 over one to three windows
// (top-level nodes).
func genTrace(data []byte) *trace.File {
	g := &genBytes{b: data}
	p := 1 + g.next(64)
	f := &trace.File{P: p}
	for w := 1 + g.next(3); w > 0; w-- {
		if g.next(2) == 0 {
			f.Nodes = append(f.Nodes, genLeaf(g, p))
		} else {
			f.Nodes = append(f.Nodes, trace.NewLoop(uint64(g.next(5)), genSeq(g, p, 1)))
		}
	}
	return f
}

// checkAnalyzeMatchesReference fails t unless Analyze and the
// pre-change analyzer (zan_ref_test.go) return the same Report, field
// for field, in the closed-form and in the expansion mode — the rank
// classes expanded to the reference's per-rank rows, the rest as they
// are; and so do
// AnalyzeBytes over the file's encoding and the pre-change analyzer over
// the file decoded from it (the codec keeps a histogram's mean, not its
// variance).
func checkAnalyzeMatchesReference(t *testing.T, f *trace.File) {
	t.Helper()
	payload := f.AppendBinary(nil)
	decoded, err := trace.DecodeBinary(payload)
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []Options{{}, {Expand: true}} {
		for _, c := range []struct {
			name    string
			f       *trace.File
			analyze func() (*Report, error)
		}{
			{"Analyze", f, func() (*Report, error) { return Analyze(f, opt) }},
			{"AnalyzeBytes", decoded, func() (*Report, error) { return AnalyzeBytes(payload, opt) }},
		} {
			want, wantRanks, err := refAnalyze(c.f, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.analyze()
			if err != nil {
				t.Fatal(err)
			}
			if ranks := expandClasses(t, got); !reflect.DeepEqual(ranks, wantRanks) {
				t.Fatalf("Expand=%v: %s rank rows differ from the reference:\n%+v\nvs\n%+v", opt.Expand, c.name, ranks, wantRanks)
			}
			rest := *got
			rest.RankClasses = nil
			if !reflect.DeepEqual(&rest, want) {
				t.Fatalf("Expand=%v: %s differs from the reference:\n%+v\nvs\n%+v", opt.Expand, c.name, &rest, want)
			}
		}
	}
}

// FuzzAnalyzeMatchesReference: on every generated program the channel
// table reports exactly what the per-window channel maps did, whether
// zan walks the tree or its encoding.
func FuzzAnalyzeMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(34))
	for i := 0; i < 64; i++ {
		seed := make([]byte, 16+rng.Intn(240))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAnalyzeMatchesReference(t, genTrace(data))
	})
}

// TestAnalyzeMatchesReferenceFixtures runs the oracle over the
// package's hand-built traces and a multi-window ring.
func TestAnalyzeMatchesReferenceFixtures(t *testing.T) {
	for _, f := range []*trace.File{twoRankTrace(), ringTrace(64, 4), ringTrace(5, 3)} {
		checkAnalyzeMatchesReference(t, f)
	}
}
