package trace_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"chameleon/internal/apps"
	"chameleon/internal/mpi"
	"chameleon/internal/ranklist"
	"chameleon/internal/sig"
	"chameleon/internal/stats"
	"chameleon/internal/trace"
	"chameleon/internal/tracer"
	"chameleon/internal/vtime"
)

// refFold is the intra-node fold as it stood before nodes carried a
// structural hash: every candidate pair goes through StructuralEqual.
// Compressor must make the same decisions and count the same
// comparisons — Compares is charged to the virtual clock — so the tests
// below drive both with one stream and compare after every append.
type refFold struct {
	seq      []*trace.Node
	filter   bool
	window   int // the compressor's MaxWindow: DefaultMaxWindow if 0
	compares int
	size     int
}

func (c *refFold) maxWindow() int {
	if c.window > 0 {
		return c.window
	}
	return trace.DefaultMaxWindow
}

func (c *refFold) equal(a, b *trace.Node) bool {
	c.compares++
	return trace.StructuralEqual(a, b, c.filter)
}

func (c *refFold) append(n *trace.Node) {
	c.size += n.SizeBytes()
	c.seq = append(c.seq, n)
	for c.absorb() || c.create() {
	}
}

func (c *refFold) absorb() bool {
	n := len(c.seq)
	for m := 1; m <= c.maxWindow() && m < n; m++ {
		loop := c.seq[n-1-m]
		if !loop.IsLoop() || len(loop.Body) != m {
			continue
		}
		run := c.seq[n-m:]
		ok := true
		for k := 0; k < m && ok; k++ {
			ok = c.equal(loop.Body[k], run[k])
		}
		if !ok {
			continue
		}
		for k := 0; k < m; k++ {
			c.size += trace.MergeInto(loop.Body[k], run[k], c.filter) - run[k].SizeBytes()
		}
		loop.Iters++
		c.seq = c.seq[:n-m]
		return true
	}
	return false
}

func (c *refFold) create() bool {
	n := len(c.seq)
	for L := 1; L <= min(c.maxWindow(), n/2); L++ {
		a, b := c.seq[n-2*L:n-L], c.seq[n-L:]
		ok := true
		for k := 0; k < L && ok; k++ {
			ok = c.equal(a[k], b[k])
		}
		if !ok {
			continue
		}
		body := make([]*trace.Node, L)
		for k := 0; k < L; k++ {
			body[k] = a[k]
			c.size += trace.MergeInto(body[k], b[k], c.filter) - b[k].SizeBytes()
		}
		c.size += 16 + 24
		c.seq = append(c.seq[:n-2*L], trace.NewLoop(2, body))
		return true
	}
	return false
}

// foldPair drives a pooled Compressor and the reference with one stream.
type foldPair struct {
	t    *testing.T
	name string
	pool trace.Pool
	got  trace.Compressor
	want refFold
	n    int
}

// newFoldPair starts a pair with the given Filter and MaxWindow on both
// sides.
func newFoldPair(t *testing.T, name string, filter bool, window int) *foldPair {
	p := &foldPair{t: t, name: name, want: refFold{filter: filter, window: window}}
	p.got.Filter, p.got.MaxWindow = filter, window
	p.got.Pool = &p.pool
	return p
}

func (p *foldPair) leaf(ev trace.Event, ranks ranklist.List, delta int64) {
	p.want.append(trace.NewLeaf(ev, ranks, delta))
	p.got.AppendLeaf(p.pool.Leaf(ev, ranks, delta))
	p.check()
}

// node appends a pre-built node; the compressor consumes n, the
// reference a deep copy taken first.
func (p *foldPair) node(n *trace.Node) {
	p.want.append(n.Clone())
	p.got.AppendNode(n)
	p.check()
}

func (p *foldPair) check() {
	p.t.Helper()
	p.n++
	if p.got.Compares != p.want.compares || p.got.SizeBytes() != p.want.size {
		p.t.Fatalf("%s, append %d: Compares %d SizeBytes %d, reference %d / %d",
			p.name, p.n, p.got.Compares, p.got.SizeBytes(), p.want.compares, p.want.size)
	}
	if !sameSeq(p.got.Seq, p.want.seq) {
		p.t.Fatalf("%s, append %d: folded to\n%s\nreference\n%s",
			p.name, p.n, trace.Format(p.got.Seq), trace.Format(p.want.seq))
	}
}

// sameSeq reports whether two sequences would print the same under
// trace.Format — structure, trip counts, rank lists, histogram summaries
// — without building the strings (the streams below make ~100k appends).
func sameSeq(a, b []*trace.Node) bool {
	if len(a) != len(b) {
		return false
	}
	for i, x := range a {
		y := b[i]
		if x.IsLoop() != y.IsLoop() || x.Iters != y.Iters || !sameHist(x.ItersHist, y.ItersHist) ||
			!x.Ev.Equal(y.Ev) || x.Ranks.String() != y.Ranks.String() ||
			!sameHist(x.Delta, y.Delta) || !sameSeq(x.Body, y.Body) {
			return false
		}
	}
	return true
}

func sameHist(a, b *stats.Histogram) bool {
	if a == nil || b == nil {
		return a == b
	}
	for i := 0; i < 64; i++ {
		if a.Bucket(i) != b.Bucket(i) {
			return false
		}
	}
	return a.Min == b.Min && a.Max == b.Max &&
		a.Count() == b.Count() && a.FMean() == b.FMean() && a.Std() == b.Std()
}

// TestFoldMatchesReferenceOnPseudoRandomStreams replays
// TestCompressorPseudoRandomStreams' generator (same LCG, same seed)
// with per-event deltas added, under both filter settings.
func TestFoldMatchesReferenceOnPseudoRandomStreams(t *testing.T) {
	for _, filter := range []bool{false, true} {
		state := uint64(12345)
		next := func(n int) int {
			state = state*6364136223846793005 + 1442695040888963407
			return int(state>>33) % n
		}
		for trial := 0; trial < 50; trial++ {
			p := newFoldPair(t, "pseudo-random", filter, 0)
			for i := next(200) + 1; i > 0; i-- {
				site := next(4) + 1
				p.leaf(trace.Event{
					Op: mpi.OpSend, Stack: sig.Stack(sig.Mix(uint64(site))),
					Comm: mpi.CommWorld, Dest: trace.Relative(1), Tag: site, Bytes: 64,
				}, ranklist.SingleRank(0), int64(next(1<<20)))
			}
		}
	}
}

// FuzzFoldMatchesReference drives Compressor and refFold with a leaf
// stream from a small palette, so that loops form and nest, under
// either filter setting and a MaxWindow of 1 to 8 or the default, and
// requires the same sequence, SizeBytes and Compares after every append.
// The first byte picks the settings; each further byte is a leaf: one
// of four sites, on rank 0 alone or on ranks {0, 2} (the same smallest
// rank, so the same structural hash but not equal), with the byte's high
// bits as its delta.
func FuzzFoldMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 1, 0, 1, 2, 0, 1, 0, 1, 2, 0, 1, 0, 1, 2, 3})
	f.Add([]byte{1, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1, 2, 0, 0, 0, 1, 0, 0, 1, 2})
	f.Add([]byte{6, 0, 1, 2, 3, 0, 1, 2, 7, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 6, 3, 0, 1, 2, 3})
	f.Add([]byte{17, 0, 8, 16, 1, 9, 0, 8, 16, 1, 9, 0, 8, 24, 1, 9, 0, 4, 4, 0, 4, 4, 0})
	f.Add([]byte{3, 0, 1, 0, 1, 4, 0, 1, 0, 1, 4, 0, 5, 0, 1, 4, 0, 1, 0, 1, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		window := int(data[0]>>1) % 9
		p := newFoldPair(t, fmt.Sprintf("window %d", window), data[0]&1 == 1, window)
		lists := [2]ranklist.List{ranklist.SingleRank(0), ranklist.FromRanks([]int{0, 2})}
		for _, b := range data[1:] {
			site := int(b&3) + 1
			p.leaf(trace.Event{
				Op: mpi.OpSend, Stack: sig.Stack(sig.Mix(uint64(site))),
				Comm: mpi.CommWorld, Dest: trace.Relative(1), Tag: site, Bytes: 64,
			}, lists[b>>2&1], int64(b>>3))
		}
	})
}

// BenchmarkFold prices the intra-node fold in ns per event on rank 0's
// stream of LU class A at P=256, the lu_st_p256 record path: through one
// compressor, and through 256 fed round robin, as one process hosting
// every rank interleaves them. Filter is off and each compressor has
// its own pool, as in the benchmark's trace.compress_ns_per_event probe.
func BenchmarkFold(b *testing.B) {
	s := captureRun(b, "LU", 256, func(rank int) bool { return rank == 0 })[0]
	for _, comps := range []int{1, 256} {
		b.Run(fmt.Sprintf("compressors=%d", comps), func(b *testing.B) {
			pools := make([]trace.Pool, comps)
			cs := make([]trace.Compressor, comps)
			lists := make([]ranklist.List, comps)
			for j := range cs {
				cs[j].Pool = &pools[j]
				lists[j] = ranklist.SingleRank(j)
			}
			var d time.Duration
			for i := 0; i < b.N; i++ {
				for j := range cs {
					pools[j].PutSeq(cs[j].Reset())
				}
				start := time.Now()
				for k, ev := range s.events {
					for j := range cs {
						cs[j].AppendLeaf(pools[j].Leaf(ev, lists[j], s.deltas[k]))
					}
				}
				d += time.Since(start)
			}
			b.ReportMetric(float64(d.Nanoseconds())/float64(b.N*comps*len(s.events)), "ns/event")
		})
	}
}

// rankStream is what one rank hands its compressor during a run: the
// encoded events with their delta times, cut at every marker.
type rankStream struct {
	events []trace.Event
	deltas []int64
	cuts   []int // len(events) at each marker call
}

// capture records a rank's stream the way tracer.Recorder would encode
// it, without compressing anything.
type capture struct {
	rec  *tracer.Recorder
	out  *rankStream
	last vtime.Time
}

func (c *capture) Pre(*mpi.CallInfo) {}
func (c *capture) Finalize()         {}
func (c *capture) Post(ci *mpi.CallInfo) {
	switch {
	case ci.Op == mpi.OpFinalize:
	case ci.Marker():
		c.out.cuts = append(c.out.cuts, len(c.out.events))
	default:
		now := c.rec.Proc.Clock.Now()
		c.out.events = append(c.out.events, c.rec.Encode(ci, sig.Sites.Signature(sig.CaptureSite(1))))
		c.out.deltas = append(c.out.deltas, int64(now-c.last))
		c.last = now
	}
}

const appRanks = 16

var (
	appStreamsOnce sync.Once
	appStreams     map[string][]rankStream
)

// captureApps runs the three skeletons the benchmark workloads trace,
// markers on, and keeps every rank's stream.
func captureApps(t *testing.T) map[string][]rankStream {
	appStreamsOnce.Do(func() {
		appStreams = map[string][]rankStream{}
		for _, name := range []string{"LU", "STENCIL", "PHASE"} {
			appStreams[name] = captureRun(t, name, appRanks, func(int) bool { return true })
		}
	})
	return appStreams
}

// captureRun runs skeleton name, class A, at P=p with markers on, and
// returns the streams of the ranks keep selects (the others are empty).
func captureRun(tb testing.TB, name string, p int, keep func(rank int) bool) []rankStream {
	spec, err := apps.Registry(name, apps.ClassA, p)
	if err != nil {
		tb.Fatal(err)
	}
	streams := make([]rankStream, p)
	_, err = mpi.Run(mpi.Config{P: p, Hooks: func(pr *mpi.Proc) mpi.Interposer {
		if !keep(pr.Rank()) {
			return mpi.NopInterposer{}
		}
		return &capture{rec: tracer.NewRecorder(pr, spec.SigMode, spec.Filter), out: &streams[pr.Rank()]}
	}}, spec.Body(true))
	if err != nil {
		tb.Fatal(err)
	}
	return streams
}

// TestFoldMatchesReferenceOnAppStreams: the record path proper — each
// rank's own events, singleton rank lists — on a corner, an edge and an
// interior rank of the 4x4 grid.
func TestFoldMatchesReferenceOnAppStreams(t *testing.T) {
	for name, streams := range captureApps(t) {
		for _, rank := range []int{0, 2, 5} {
			s := streams[rank]
			if len(s.events) < 100 {
				t.Fatalf("%s rank %d: only %d events captured", name, rank, len(s.events))
			}
			for _, filter := range []bool{false, true} {
				p := newFoldPair(t, name, filter, 0)
				for i, ev := range s.events {
					p.leaf(ev, ranklist.SingleRank(rank), s.deltas[i])
				}
				if len(p.got.Seq) >= len(s.events)/4 {
					t.Fatalf("%s rank %d: %d events folded to %d top-level nodes only", name, rank, len(s.events), len(p.got.Seq))
				}
			}
		}
	}
}

// TestFoldMatchesReferenceOnMergedSegments is rank 0's online path: at
// every marker the leads' partial traces merge (consumed by the merger) and
// the merged nodes — multi-rank lists, end-points and rank lists
// rewritten in place since a lead's compressor hashed them — are
// appended with AppendNode. The merge order alternates between segments,
// so consecutive segments arrive structurally equal but carrying
// different stale hashes: without the re-hash in AppendNode they stop
// folding.
func TestFoldMatchesReferenceOnMergedSegments(t *testing.T) {
	leads := []int{0, 3, 5, 10}
	for name, streams := range captureApps(t) {
		cuts := streams[0].cuts
		if len(cuts) < 4 {
			t.Fatalf("%s: only %d marker calls", name, len(cuts))
		}
		for _, filter := range []bool{false, true} {
			p := newFoldPair(t, name+" merged", filter, 0)
			appended := 0
			for seg := range cuts {
				var merged []*trace.Node
				for i := range leads {
					lead := leads[i]
					if seg%2 == 1 {
						lead = leads[len(leads)-1-i]
					}
					s := streams[lead]
					lo := 0
					if seg > 0 {
						lo = s.cuts[seg-1]
					}
					var pool trace.Pool
					part := trace.Compressor{Filter: filter, Pool: &pool}
					for k := lo; k < s.cuts[seg]; k++ {
						part.AppendLeaf(pool.Leaf(s.events[k], ranklist.SingleRank(lead), s.deltas[k]))
					}
					m := trace.Merger{Filter: filter, P: appRanks}
					merged = m.Merge(merged, part.Reset())
				}
				for _, n := range merged {
					p.node(n)
					appended++
				}
			}
			if len(p.got.Seq) >= appended/2 {
				t.Fatalf("%s: %d merged nodes folded to %d top-level nodes only", name, appended, len(p.got.Seq))
			}
		}
	}
}
