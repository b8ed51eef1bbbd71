package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"chameleon/internal/mpi"
	"chameleon/internal/ranklist"
	"chameleon/internal/sig"
	"chameleon/internal/stats"
)

// fuzzSeedFile builds a representative v2 trace for the fuzz corpus:
// loops, leaves, rank lists with strides, histograms with spread.
func fuzzSeedFile() *File {
	ranks := ranklist.FromRanks([]int{0, 1, 2, 3, 4, 5, 6, 7})
	odd := ranklist.FromRanks([]int{1, 3, 5, 7})
	send := Event{Op: mpi.OpSend, Stack: sig.Stack(sig.Mix(1)), Dest: Relative(1), Tag: 7, Bytes: 512}
	recv := Event{Op: mpi.OpRecv, Stack: sig.Stack(sig.Mix(2)), Src: Relative(-1), Tag: 7, Bytes: 512}
	coll := Event{Op: mpi.OpAllreduce, Stack: sig.Stack(sig.Mix(3)), Bytes: 8}
	sendLeaf := NewLeaf(send, ranks, 1200)
	sendLeaf.Delta.Add(900)
	sendLeaf.Delta.Add(4000)
	return &File{
		P:         8,
		Benchmark: "PHASE",
		Tracer:    "chameleon",
		Nodes: []*Node{
			NewLoop(40, []*Node{
				sendLeaf,
				NewLeaf(recv, odd, 0),
			}),
			NewLeaf(coll, ranks, 500),
		},
	}
}

// wideHistFile is a trace whose one leaf carries bucket detail outside
// [BucketOf(Min), BucketOf(Max)] — nothing Add would build, but the
// decoders accept it, so a histogram's buckets have to come from the
// ones actually set (SetBucket), not from its extrema.
func wideHistFile() *File {
	h := stats.NewHistogram()
	h.Restore(100, 200, 150, 4)
	for _, i := range []int{0, 7, 8, 63} {
		h.SetBucket(i, 1)
	}
	leaf := NewLeaf(Event{Op: mpi.OpSend, Stack: 42, Dest: Relative(1)}, ranklist.SingleRank(0), 0)
	leaf.Delta = h
	return &File{P: 1, Nodes: []*Node{NewLoop(3, []*Node{leaf})}}
}

// histBuckets returns every bucket of h as one array.
func histBuckets(h *stats.Histogram) [64]uint64 {
	var b [64]uint64
	for i := range b {
		b[i] = h.Bucket(i)
	}
	return b
}

// checkSpans fails unless a Merge out of every decoded histogram moves
// every bucket it holds, and Reset of a clone empties them all. It
// compares what a caller reads: a spilled histogram keeps its array
// through Reset.
func checkSpans(t testing.TB, seq []*Node) {
	t.Helper()
	for _, n := range seq {
		for _, h := range []*stats.Histogram{n.Delta, n.ItersHist} {
			if h == nil {
				continue
			}
			into := stats.NewHistogram()
			into.Merge(h)
			if h.Count() > 0 && histBuckets(into) != histBuckets(h) {
				t.Fatalf("Merge moved %v of decoded buckets %v", histBuckets(into), histBuckets(h))
			}
			c := h.Clone()
			c.Reset()
			if histBuckets(c) != [64]uint64{} {
				t.Fatalf("Reset left %v of decoded buckets %v", histBuckets(c), histBuckets(h))
			}
		}
		checkSpans(t, n.Body)
	}
}

// FuzzReadBinary feeds arbitrary bytes to the binary decoder. The
// decoder must never panic or allocate unboundedly: corrupt input
// returns an error. Decoded files must survive re-encoding.
func FuzzReadBinary(f *testing.F) {
	// Seed 1: the v1 compat fixture from the repository testdata.
	v1, err := os.ReadFile(filepath.Join("..", "..", "testdata", "compat_v1_phase.trc"))
	if err != nil {
		f.Fatalf("v1 seed: %v", err)
	}
	f.Add(v1)

	// Seed 2: a representative v2 golden built in-process.
	var v2 bytes.Buffer
	if err := fuzzSeedFile().WriteBinary(&v2); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())

	// Seed 3: truncated v2.
	f.Add(v2.Bytes()[:v2.Len()/2])

	// Seed 4: histogram buckets outside the extrema.
	var wide bytes.Buffer
	if err := wideHistFile().WriteBinary(&wide); err != nil {
		f.Fatal(err)
	}
	f.Add(wide.Bytes())

	// Poison: a rank count past the bound, which every per-rank table a
	// reader sizes would have to allocate.
	f.Add(hugeRankFile(1 << 40))
	f.Add(hugeRankFile(1 << 22))
	// Poison: distinct rank lists of 2^20 ranks each, which the decoder
	// once expanded, every one.
	f.Add(wideListsPayload())

	f.Fuzz(func(t *testing.T, data []byte) {
		decoded, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever decoded must re-encode cleanly.
		if err := decoded.WriteBinary(io.Discard); err != nil {
			t.Fatalf("re-encode of decoded trace failed: %v", err)
		}
		checkSpans(t, decoded.Nodes)
	})
}

// FuzzReadAny exercises the format sniffer (binary magics + the JSON
// fallback) on arbitrary input: what decodes holds its rank lists in
// normal form, validates without panicking, and re-encodes to bytes
// that read back.
func FuzzReadAny(f *testing.F) {
	var v2 bytes.Buffer
	if err := fuzzSeedFile().WriteBinary(&v2); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	var js bytes.Buffer
	if err := fuzzSeedFile().Write(&js); err != nil {
		f.Fatal(err)
	}
	f.Add(js.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadAny(bytes.NewReader(data))
		if err != nil {
			return
		}
		VisitLeaves(g.Nodes, func(n *Node, _ Cursor) {
			if !n.Ranks.Normal() {
				t.Fatalf("decoded rank list %v is not in normal form", n.Ranks)
			}
		})
		g.Validate() //nolint:errcheck — must return, not panic
		// The archive stores the re-encoding of what decoded unwalked.
		if err := Walk(g.AppendBinary(nil), nil); err != nil {
			t.Fatalf("the re-encoding of a decoded trace does not read back: %v", err)
		}
	})
}

// normalInput reads a fuzz input as a rank count p in 1..64, a ring
// offset, and up to four lists of hand-built descriptors, kept as
// written: 1-3 descriptors each, of 0-3 dimensions, with starts in
// [0, 48), 1-4 iterations and strides from -4 to 4, so that the
// descriptors of a list (and of two lists) overlap and repeat ranks.
func normalInput(data []byte) (p, off int, raw []string) {
	next := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		v := int(data[0]) % n
		data = data[1:]
		return v
	}
	p, off = 1+next(64), next(256)-128
	for k := 1 + next(4); k > 0; k-- {
		var descs []string
		for n := 1 + next(3); n > 0; n-- {
			var dims []string
			for d := next(4); d > 0; d-- {
				dims = append(dims, fmt.Sprintf("[%d,%d]", 1+next(4), next(9)-4))
			}
			descs = append(descs, fmt.Sprintf(`{"start":%d,"dims":[%s]}`, next(48), strings.Join(dims, ",")))
		}
		raw = append(raw, "["+strings.Join(descs, ",")+"]")
	}
	return p, off, raw
}

// rankBoundLists are lists in normal form at and one past each bound
// the reader holds a rank list to (checkRanks), and whether it reads
// them: the start, a dimension's iterations and stride, the ranks of one
// descriptor and of the list.
var rankBoundLists = []struct {
	js string
	ok bool
}{
	{`[{"start":0}]`, true},
	{`[{"start":-1}]`, false},
	{`[{"start":1073741824}]`, true},
	{`[{"start":1073741825}]`, false},
	{`[{"start":0,"dims":[[1048576,1]]}]`, true},
	{`[{"start":0,"dims":[[1048577,1]]}]`, false},
	{`[{"start":0,"dims":[[2,1073741824]]}]`, true},
	{`[{"start":0,"dims":[[2,1073741825]]}]`, false},
	{`[{"start":0,"dims":[[2,1],[2,1073741824]]}]`, true},
	{`[{"start":0,"dims":[[2,1],[2,1073741825]]}]`, false},
	{`[{"start":0,"dims":[[1024,1],[1024,2048]]}]`, true},
	{`[{"start":0,"dims":[[1025,1],[1024,2048]]}]`, false},
	{`[{"start":0,"dims":[[524288,1]]},{"start":524290,"dims":[[524288,2]]}]`, true},
	{`[{"start":0,"dims":[[524288,1]]},{"start":524290,"dims":[[524288,2]]},{"start":2000000}]`, false},
}

// checkMarshalMatchesDecode fails t unless MarshalBinary of a leaf on l
// fails exactly when DecodeBinary of the leaf's bytes does, and returns
// MarshalBinary's error.
func checkMarshalMatchesDecode(t testing.TB, l ranklist.List) error {
	t.Helper()
	f := &File{P: 1, Nodes: []*Node{NewLeaf(Event{Op: mpi.OpBarrier}, l, 1)}}
	_, err := f.MarshalBinary()
	if _, derr := DecodeBinary(f.AppendBinary(nil)); (err == nil) != (derr == nil) {
		t.Fatalf("a leaf on %v: MarshalBinary error %v, DecodeBinary of its bytes %v", l, err, derr)
	}
	return err
}

// checkNormalList fails t unless l is in normal form and holds the
// descriptors FromRanks builds for ranks, a sorted set.
func checkNormalList(t *testing.T, what string, l ranklist.List, ranks []int) {
	t.Helper()
	if want := ranklist.FromRanks(ranks); !l.Normal() || !l.Equal(want) {
		t.Fatalf("%s = %v (normal: %v), want %v", what, l, l.Normal(), want)
	}
}

// checkPieces fails t unless l's descriptors are disjoint one-piece
// descriptors, in order of their first rank, covering ranks, a sorted
// set: at most two dimensions of at least two iterations at a positive
// stride, whose rows do not interleave.
func checkPieces(t *testing.T, what string, l ranklist.List, ranks []int) {
	t.Helper()
	last := -1 << 62
	for _, r := range l.Descriptors() {
		d := r.Dims
		ok := len(d) <= 2 && r.Start > last
		for _, dim := range d {
			ok = ok && dim.Iters >= 2 && dim.Stride >= 1
		}
		if len(d) == 2 {
			ok = ok && (d[0].Iters-1)*d[0].Stride < d[1].Stride
		}
		if !ok {
			t.Fatalf("%s = %v: descriptor %v is not one piece, or out of order", what, l, r)
		}
		last = r.Start
	}
	if got := l.Ranks(); l.Size() != len(got) || !slices.Equal(got, ranks) {
		t.Fatalf("%s = %v: %d ranks %v, want %v", what, l, l.Size(), got, ranks)
	}
}

// FuzzRankListsNormal holds every door a rank list enters by to normal
// form: FromRanks, Union, the binary decoder and the JSON reader give a
// list in normal form equal to FromRanks of its expansion, whatever
// descriptors it was written with. The two decoders refuse a file with
// a list that runs below rank 0 (a descending one can): its normal form
// would start there, which the reader refuses in the bytes, so its
// re-encoding would not read back. Shift and Classes give disjoint
// one-piece descriptors with the ranks the expansion says. For every
// list in normal form it draws or unites, and for lists at and one past
// each bound of the reader (rankBoundLists), MarshalBinary refuses a
// leaf on the list exactly when DecodeBinary refuses its bytes.
func FuzzRankListsNormal(f *testing.F) {
	for _, c := range rankBoundLists {
		l := rawList(c.js)
		if !l.Normal() {
			f.Fatalf("%s: %v is not in normal form", c.js, l)
		}
		if err := checkMarshalMatchesDecode(f, l); (err == nil) != c.ok {
			f.Fatalf("%s: MarshalBinary error %v, want refused=%v", c.js, err, !c.ok)
		}
	}
	for _, l := range []ranklist.List{ranklist.SingleRank(1 << 31), ranklist.FromRanks([]int{0, 1 << 31})} {
		if checkMarshalMatchesDecode(f, l) == nil {
			f.Fatalf("MarshalBinary of a leaf on %v succeeded", l)
		}
	}
	for i := 0; i < 32; i++ {
		seed := make([]byte, 8+i*3)
		for j := range seed {
			seed[j] = byte(i*131 + j*29 + j*j)
		}
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, off, raw := normalInput(data)
		file := &File{P: p}
		lists := make([]ranklist.List, len(raw))
		sets := make([][]int, len(raw))
		for i, js := range raw {
			l := rawList(js)
			sets[i] = l.Ranks()
			lists[i] = ranklist.FromRanks(sets[i])
			checkNormalList(t, "FromRanks", lists[i], sets[i])
			checkMarshalMatchesDecode(t, lists[i])
			file.Nodes = append(file.Nodes, NewLeaf(Event{Op: mpi.OpBarrier, Tag: i}, l, 1))
		}
		for i := range lists {
			j := (i + 1) % len(lists)
			union := ranklist.FromRanks(append(append([]int(nil), sets[i]...), sets[j]...)).Ranks()
			checkNormalList(t, "Union", lists[i].Union(lists[j]), union)
			checkMarshalMatchesDecode(t, lists[i].Union(lists[j]))
		}
		var js bytes.Buffer
		if err := file.Write(&js); err != nil {
			t.Fatal(err)
		}
		negative := slices.ContainsFunc(sets, func(set []int) bool {
			return slices.ContainsFunc(set, func(r int) bool { return r < 0 })
		})
		for name, b := range map[string][]byte{"DecodeBinary": file.AppendBinary(nil), "JSON DecodeAny": js.Bytes()} {
			g, err := DecodeAny(b)
			if negative {
				if err == nil {
					t.Fatalf("%s: a list that runs below rank 0 decoded", name)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i, n := range g.Nodes {
				checkNormalList(t, name, n.Ranks, sets[n.Ev.Tag])
				if n.Ev.Tag != i {
					t.Fatalf("%s: leaf %d came back as leaf %d", name, i, n.Ev.Tag)
				}
			}
		}
		for i, l := range lists {
			var moved []int
			for _, r := range sets[i] {
				if r >= 0 && r < p {
					moved = append(moved, ((r+off)%p+p)%p)
				}
			}
			slices.Sort(moved)
			checkPieces(t, "Shift", l.Shift(off, p), moved)
		}
		seen := 0
		for _, c := range ranklist.Classes(lists, p) {
			ranks := c.Ranks.Ranks()
			checkPieces(t, "a class", c.Ranks, ranks)
			for _, r := range ranks {
				var of []int
				for i, set := range sets {
					if _, in := slices.BinarySearch(set, r); in {
						of = append(of, i)
					}
				}
				if !slices.Equal(of, c.Of) && len(of)+len(c.Of) > 0 {
					t.Fatalf("rank %d is covered by lists %v, its class %v by %v", r, of, c.Ranks, c.Of)
				}
			}
			seen += c.Size
		}
		if seen != p {
			t.Fatalf("the classes hold %d ranks, want %d", seen, p)
		}
	})
}

// corrupter hand-assembles binary trace files so the regression tests
// below can hit specific decoder bounds.
type corrupter struct{ buf bytes.Buffer }

func (c *corrupter) magic(v byte)    { c.buf.Write([]byte{'C', 'H', 'A', 'M', 'T', 'R', 'C', v}) }
func (c *corrupter) bytes(b ...byte) { c.buf.Write(b) }

func (c *corrupter) uvarint(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	c.buf.Write(tmp[:n])
}

func (c *corrupter) varint(v int64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], v)
	c.buf.Write(tmp[:n])
}

func (c *corrupter) str(s string) {
	c.uvarint(uint64(len(s)))
	c.buf.WriteString(s)
}

// header writes a v2 preamble with an empty site table.
func (c *corrupter) header() {
	c.magic('2')
	c.uvarint(1) // P
	c.bytes(0)   // flags
	c.str("")    // benchmark
	c.str("")    // tracer
	c.uvarint(0) // site table count
}

// hugeRankFile is a complete v2 file of no sites and no nodes that
// claims p ranks: 19 bytes at p = 2^40.
func hugeRankFile(p uint64) []byte {
	var c corrupter
	c.magic('2')
	c.uvarint(p)
	c.bytes(0)   // flags
	c.str("")    // benchmark
	c.str("")    // tracer
	c.uvarint(0) // site table count
	c.uvarint(0) // node count
	return c.buf.Bytes()
}

func mustErr(t *testing.T, name string, data []byte) {
	t.Helper()
	if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
		t.Fatalf("%s: corrupt input decoded without error", name)
	}
}

func TestReadBinaryCorruptInputs(t *testing.T) {
	t.Run("truncated", func(t *testing.T) {
		var good bytes.Buffer
		if err := fuzzSeedFile().WriteBinary(&good); err != nil {
			t.Fatal(err)
		}
		for cut := 1; cut < good.Len(); cut += 7 {
			if _, err := ReadBinary(bytes.NewReader(good.Bytes()[:cut])); err == nil {
				t.Fatalf("truncation at %d bytes decoded without error", cut)
			}
		}
	})

	t.Run("rank count above the bound", func(t *testing.T) {
		if n := len(hugeRankFile(1 << 40)); n != 19 {
			t.Fatalf("payload is %d bytes, want 19", n)
		}
		mustErr(t, "P=2^40", hugeRankFile(1<<40))
		mustErr(t, "P=2^22", hugeRankFile(1<<22))
		mustErr(t, "P=2^20+1", hugeRankFile(maxRankExpansion+1))
		if _, err := DecodeBinary(hugeRankFile(maxRankExpansion)); err != nil {
			t.Fatalf("P at the bound rejected: %v", err)
		}
		if _, err := Read(strings.NewReader(`{"p":1099511627776}`)); err == nil {
			t.Fatal("JSON trace with P=2^40 decoded without error")
		}
	})

	t.Run("huge node count", func(t *testing.T) {
		var c corrupter
		c.header()
		c.uvarint(1 << 40) // node count far past the 1<<24 cap
		mustErr(t, "node count", c.buf.Bytes())
	})

	t.Run("node count within cap but no data", func(t *testing.T) {
		// A count under the cap must not commit a huge allocation before
		// the decoder notices the stream is empty.
		var c corrupter
		c.header()
		c.uvarint(1 << 23)
		mustErr(t, "empty-bodied count", c.buf.Bytes())
	})

	t.Run("negative rank iters", func(t *testing.T) {
		// Pre-hardening this panicked: RL.Ranks computed a negative
		// slice capacity from a corrupt iteration count.
		var c corrupter
		c.header()
		c.uvarint(1)  // one node
		c.bytes(0x01) // leaf
		c.uvarint(1)  // op
		c.uvarint(0)  // site index (v2, empty table -> out of range later is fine)
		mustErr(t, "negative iters", c.buf.Bytes())
	})

	t.Run("negative rank iters full leaf", func(t *testing.T) {
		var c corrupter
		c.magic('1') // v1: leaves carry raw signatures, no site table
		c.uvarint(4) // P
		c.bytes(0)   // flags
		c.str("")    // benchmark
		c.str("")    // tracer
		c.uvarint(1) // node count
		c.bytes(0x01)
		c.uvarint(1)  // op
		c.uvarint(42) // raw signature
		c.varint(0)   // comm
		c.varint(0)   // tag
		c.varint(0)   // bytes
		c.bytes(0)    // dest endpoint kind none
		c.bytes(0)    // src endpoint kind none
		c.uvarint(1)  // one rank descriptor
		c.varint(0)   // start
		c.uvarint(1)  // one dim
		c.varint(-5)  // iters: negative — must error, not panic
		c.varint(1)   // stride
		mustErr(t, "negative iters leaf", c.buf.Bytes())
	})

	t.Run("huge rank expansion", func(t *testing.T) {
		var c corrupter
		c.magic('1')
		c.uvarint(4)
		c.bytes(0)
		c.str("")
		c.str("")
		c.uvarint(1)
		c.bytes(0x01)
		c.uvarint(1)
		c.uvarint(42)
		c.varint(0)
		c.varint(0)
		c.varint(0)
		c.bytes(0)
		c.bytes(0)
		c.uvarint(1)      // one rank descriptor
		c.varint(0)       // start
		c.uvarint(2)      // two dims
		c.varint(1 << 19) // iters
		c.varint(1)       // stride
		c.varint(1 << 19) // iters: product 1<<38 — must be rejected
		c.varint(1)       // stride
		mustErr(t, "rank expansion", c.buf.Bytes())
	})

	t.Run("site index out of range", func(t *testing.T) {
		var c corrupter
		c.header() // empty site table
		c.uvarint(1)
		c.bytes(0x01)
		c.uvarint(1)
		c.uvarint(99) // site index into the empty table
		mustErr(t, "site index", c.buf.Bytes())
	})

	t.Run("huge site table", func(t *testing.T) {
		var c corrupter
		c.magic('2')
		c.uvarint(1)
		c.bytes(0)
		c.str("")
		c.str("")
		c.uvarint(1 << 30) // site count past the cap
		mustErr(t, "site table", c.buf.Bytes())
	})

	t.Run("huge string", func(t *testing.T) {
		var c corrupter
		c.magic('2')
		c.uvarint(1)
		c.bytes(0)
		c.uvarint(1 << 30) // benchmark length
		mustErr(t, "string length", c.buf.Bytes())
	})

	t.Run("bad magic", func(t *testing.T) {
		mustErr(t, "magic", []byte("NOTATRCE"))
	})
}

// TestDecodeAllocationBoundedByInput: a sequence's slabs are sized from
// its declared node count before any node is read, so a file of loops
// nested as deep as the decoder allows, each carrying an iterations
// histogram and each declaring more nodes than it holds, is where a
// count can lie. Whatever the counts say, a decode allocates no more
// than the nodes, histograms and 64-bucket spill arrays the whole input
// could hold (plus a quarter for the allocator's size classes). With the
// counts checked per sequence only, the greedy file allocates 18 times
// the bound (41 MB); with the histogram slabs drawing on no budget, both
// files 1.3–1.4. The spilled file is as many histograms of three buckets
// as fit: every one allocates its array.
func TestDecodeAllocationBoundedByInput(t *testing.T) {
	const size = 16 << 10
	bound := uint64(size/minNodeBytes*(unsafe.Sizeof(Node{})+unsafe.Sizeof(&Node{})) +
		(size/minHistNodeBytes+maxBinaryDepth+1)*unsafe.Sizeof(stats.Histogram{}) +
		size/minSpillBytes*unsafe.Sizeof([64]uint64{}))
	bound += bound/4 + 64<<10 // size classes; the decoder's own state and its error
	nested := func(claim func(left int) uint64) []byte {
		var c corrupter
		c.header()
		for depth := 0; depth <= maxBinaryDepth; depth++ {
			c.uvarint(claim(size - c.buf.Len()))
			c.bytes(tagLoop)
			c.uvarint(1) // iters
			c.uvarint(1) // iterations histogram: one sample
			c.varint(0)  // min
			c.varint(0)  // max
			c.uvarint(0) // mean
			c.uvarint(0) // no buckets
		}
		c.uvarint(claim(size - c.buf.Len()))
		return append(c.buf.Bytes(), make([]byte, size-c.buf.Len())...)
	}
	for name, data := range map[string][]byte{
		// Each sequence claims all the bytes after it can hold.
		"greedy": nested(func(left int) uint64 { return uint64(left/minNodeBytes - 2) }),
		// Each claims a share, so every level passes the file-wide check.
		"shared": nested(func(int) uint64 { return size / minNodeBytes / (maxBinaryDepth + 2) }),
		"spilled": func() []byte {
			const loopBytes = 4 + minSpillBytes // tag, iters, histogram, empty body
			var c corrupter
			c.header()
			n := (size - c.buf.Len() - 4) / loopBytes
			c.uvarint(uint64(n + 1)) // one more than it holds
			for i := 0; i < n; i++ {
				c.bytes(tagLoop)
				c.uvarint(1) // iters
				c.uvarint(3) // iterations histogram: three samples
				c.varint(0)  // min
				c.varint(0)  // max
				c.uvarint(0) // mean
				c.uvarint(3) // three buckets of one
				for b := uint64(0); b < 3; b++ {
					c.uvarint(b)
					c.uvarint(1)
				}
				c.uvarint(0) // empty body
			}
			return append(c.buf.Bytes(), make([]byte, size-c.buf.Len())...)
		}(),
	} {
		t.Run(name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			const runs = 3
			for i := 0; i < runs; i++ {
				if _, err := DecodeBinary(data); err == nil {
					t.Fatal("a file of lying counts decoded")
				}
			}
			runtime.ReadMemStats(&after)
			got := (after.TotalAlloc - before.TotalAlloc) / runs
			t.Logf("%d-byte input: %d B allocated a decode, bound %d", len(data), got, bound)
			if got > bound {
				t.Fatalf("decoding %d bytes allocated %d B, bound %d", len(data), got, bound)
			}
		})
	}
}

// TestLoadAnyCorruptFile proves the path-level loader surfaces decode
// errors instead of panicking.
func TestLoadAnyCorruptFile(t *testing.T) {
	dir := t.TempDir()
	var c corrupter
	c.header()
	c.uvarint(1 << 40)
	path := filepath.Join(dir, "corrupt.trc")
	if err := os.WriteFile(path, c.buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadAny(path); err == nil {
		t.Fatal("corrupt file loaded without error")
	}
}
