package trace

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"chameleon/internal/mpi"
	"chameleon/internal/ranklist"
	"chameleon/internal/sig"
)

// CheckScanMatchesDecode is the scan's oracle, the path it replaces:
// ScanCanonical(data) reports true exactly when DecodeBinary(data)
// succeeds and AppendBinary of the result is data, and then its Summary
// is the decoded file's. Neither the scan nor the decode interns a site
// into sig.Sites (no test of this package runs in parallel, so nothing
// else grows it meanwhile).
func CheckScanMatchesDecode(t testing.TB, data []byte) {
	t.Helper()
	sites := sig.Sites.Len()
	sum, ok := ScanCanonical(data)
	f, err := DecodeBinary(data)
	if n := sig.Sites.Len(); n != sites {
		t.Fatalf("the scan and the decode interned %d sites", n-sites)
	}
	canonical := err == nil && bytes.HasPrefix(data, binaryMagicV2[:]) && bytes.Equal(f.AppendBinary(nil), data)
	if ok != canonical {
		t.Fatalf("scan says canonical=%v, decode and re-encode say %v (decode error %v)", ok, canonical, err)
	}
	if ok {
		if want := Summarize(f); !reflect.DeepEqual(sum, want) {
			t.Fatalf("scan summary %+v, decoded file's %+v", sum, want)
		}
	}
}

// Signatures of the scan seed's call sites, which nothing else interns.
var (
	scanSigA = sig.Mix(0x5ca9_0001)
	scanSigB = sig.Mix(0x5ca9_0002)
	scanSigC = sig.Mix(0x5ca9_0003)
)

// scanSeed writes a canonical payload by hand, one field at a time —
// P=8, clustered, two call sites, a loop of two leaves with rank lists
// and histograms, two retired ranks — or, given an edit, the same
// payload with that one edit, which makes it non-canonical.
func scanSeed(edit string) []byte {
	var c corrupter
	if edit == "v1 magic" {
		c.magic('1')
	} else {
		c.magic('2')
	}
	c.uvarint(8) // P
	flags := byte(1 | 4)
	if edit == "unknown flag bit" {
		flags |= 8
	}
	c.bytes(flags)
	c.str("SCAN")
	c.str("chameleon")
	sites := []uint64{scanSigA, scanSigB}
	switch edit {
	case "swapped site entries": // the leaves keep their signatures
		sites = []uint64{scanSigB, scanSigA}
	case "unused site":
		sites = append(sites, scanSigC)
	case "duplicated signature":
		sites = []uint64{scanSigA, scanSigA}
	}
	c.uvarint(uint64(len(sites)))
	for _, s := range sites {
		c.uvarint(s)
		c.str("") // no metadata: signature-only sites resolve to none
		c.str("")
		c.varint(0)
	}
	if edit == "overlong varint" {
		c.bytes(0x81, 0x00) // one top-level node, in two bytes
	} else {
		c.uvarint(1)
	}
	c.bytes(tagLoop)
	c.uvarint(10) // iters
	c.uvarint(0)  // no iterations histogram
	c.uvarint(2)
	all := ranklist.FromRanks([]int{0, 1, 2, 3, 4, 5, 6, 7})
	for i, op := range []mpi.OpCode{mpi.OpSend, mpi.OpRecv} {
		c.bytes(tagLeaf)
		c.uvarint(uint64(op))
		if edit == "swapped site entries" {
			c.uvarint(uint64(1 - i))
		} else {
			c.uvarint(uint64(i)) // site index
		}
		c.varint(0)  // comm
		c.varint(1)  // tag
		c.varint(64) // bytes
		c.bytes(byte(EPRelative))
		c.varint(int64(1 - 2*i))
		c.bytes(byte(EPNone))
		if i == 1 && edit == "non-normal rank list" {
			c.uvarint(2) // {0..3} and {4..7}: the normal form is one
			for _, start := range []int64{0, 4} {
				c.varint(start)
				c.uvarint(1)
				c.varint(4)
				c.varint(1)
			}
		} else {
			c.bytes(appendRanks(nil, all)...)
		}
		c.uvarint(2) // histogram: two samples, 100 and 200
		c.varint(100)
		c.varint(200)
		c.uvarint(math.Float64bits(150))
		c.uvarint(2)
		buckets := []uint64{7, 8}
		if i == 0 && edit == "unsorted histogram buckets" {
			buckets = []uint64{8, 7}
		}
		for _, b := range buckets {
			c.uvarint(b)
			c.uvarint(1)
		}
	}
	retired := []int64{1, 3}
	if edit == "unsorted retired ranks" {
		retired = []int64{3, 1}
	}
	c.uvarint(uint64(len(retired)))
	for _, rk := range retired {
		c.varint(rk)
	}
	if edit == "trailing bytes" {
		c.bytes(0)
	}
	return c.buf.Bytes()
}

// scanEdits are the one-edit non-canonical variants of scanSeed.
var scanEdits = []string{
	"overlong varint", "swapped site entries", "unused site",
	"duplicated signature", "unsorted histogram buckets",
	"non-normal rank list", "unknown flag bit", "trailing bytes",
	"unsorted retired ranks", "v1 magic",
}

func TestScanCanonicalSeed(t *testing.T) {
	data := scanSeed("")
	CheckScanMatchesDecode(t, data)
	sum, ok := ScanCanonical(data)
	want := Summary{
		P: 8, Benchmark: "SCAN", Tracer: "chameleon", Clustered: true,
		Sigs:          []uint64{scanSigA, scanSigB},
		DynamicEvents: 20,
		NodeCount:     3,
	}
	if !ok || !reflect.DeepEqual(sum, want) {
		t.Fatalf("scan of the seed: ok=%v %+v, want %+v", ok, sum, want)
	}
}

// Every edit makes the seed non-canonical, and each one the scan catches
// is one the decoder accepts (all but the unknown flag bit and v1 magic,
// which decode to something else): it is the re-encoding that differs.
func TestScanRejectsNonCanonical(t *testing.T) {
	for _, edit := range scanEdits {
		t.Run(edit, func(t *testing.T) {
			data := scanSeed(edit)
			CheckScanMatchesDecode(t, data)
			if _, ok := ScanCanonical(data); ok {
				t.Fatal("a non-canonical payload scanned as canonical")
			}
			if _, err := DecodeBinary(data); err != nil && edit != "v1 magic" {
				t.Fatalf("the edit should leave the payload decodable: %v", err)
			}
		})
	}
}

// The fast path fires on what the encoder writes: every generated trace
// and committed fixture, re-encoded, scans as canonical. (The archive
// corpus runs in oracle_corpus_test.go.)
func TestScanCanonicalOnGeneratedTraces(t *testing.T) {
	check := func(t *testing.T, f *File) {
		t.Helper()
		payload := f.AppendBinary(nil)
		sum, ok := ScanCanonical(payload)
		if !ok {
			t.Fatalf("the encoder's output (%d bytes) did not scan as canonical", len(payload))
		}
		if want := Summarize(f); !reflect.DeepEqual(sum, want) {
			t.Fatalf("scan summary %+v, file's %+v", sum, want)
		}
		CheckScanMatchesDecode(t, payload)
	}
	for name, f := range map[string]*File{
		"fuzz seed":      fuzzSeedFile(),
		"wide histogram": wideHistFile(),
		"sample":         sampleFile(),
	} {
		t.Run(name, func(t *testing.T) { check(t, f) })
	}
	for _, path := range []string{
		filepath.Join("..", "..", "testdata", "compat_v1_phase.trc"),
		filepath.Join("..", "cli", "testdata", "phase8.trc"),
		filepath.Join("..", "cli", "testdata", "phase8_crash.trc"),
	} {
		t.Run(filepath.Base(path), func(t *testing.T) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			f, err := DecodeBinary(b)
			if err != nil {
				t.Fatal(err)
			}
			check(t, f)
		})
	}
	t.Run("compressor", func(t *testing.T) {
		gen := func(bs []byte, filter bool) bool {
			c := compress(stream(bs, 5), filter)
			check(t, &File{P: 4, Benchmark: "Q", Tracer: "quick", Filter: filter, Nodes: c.Seq})
			return true
		}
		if err := quick.Check(gen, &quick.Config{MaxCount: 100}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestScanAllocationBoundedByInput mirrors TestDecodeAllocationBoundedByInput
// on the scan, which builds no tree: whatever the counts say, it
// allocates no more than the site table the input could hold (a
// signature each, and the strings), a scratch node and histogram per
// depth (one spill array each at most), and a little of its own: 0.5 to
// 19 KB for these files, the most for 65 nested loops.
// A fresh histogram per histogram read takes the spilled file to 7 times
// the bound, and a site table sized from its declared count alone takes
// the lying table to 97 times it.
func TestScanAllocationBoundedByInput(t *testing.T) {
	const size = 16 << 10
	bound := uint64(size/minSiteBytes*2*unsafe.Sizeof(uint64(0)) + size +
		unsafe.Sizeof([64]uint64{}) + 4<<10)
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
	files := map[string][]byte{
		"greedy": nested(func(left int) uint64 { return uint64(left/minNodeBytes - 2) }),
		"shared": nested(func(int) uint64 { return size / minNodeBytes / (maxBinaryDepth + 2) }),
		"spilled": func() []byte {
			var c corrupter
			c.header()
			const loopBytes = 3 + minSpillBytes // tag, iters, histogram, empty body
			n := (size - c.buf.Len() - 4) / loopBytes
			c.uvarint(uint64(n + 1)) // one more than it holds
			for i := 0; i < n; i++ {
				c.bytes(tagLoop)
				c.uvarint(1) // iters
				c.uvarint(3) // iterations histogram: three samples
				c.varint(0)  // min
				c.varint(2)  // max
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
		"lying site table": func() []byte {
			var c corrupter
			c.header()
			c.buf.Truncate(c.buf.Len() - 1) // the site table's count
			c.uvarint(1 << 20)              // the most the decoder allows, far more than follow
			return append(c.buf.Bytes(), make([]byte, size-c.buf.Len())...)
		}(),
	}
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		data := files[name]
		t.Run(name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			const runs = 3
			for i := 0; i < runs; i++ {
				if _, ok := ScanCanonical(data); ok {
					t.Fatal("a file of lying counts scanned as canonical")
				}
			}
			runtime.ReadMemStats(&after)
			got := (after.TotalAlloc - before.TotalAlloc) / runs
			t.Logf("%s: %d B allocated, bound %d", name, got, bound)
			if got > bound {
				t.Fatalf("scanning %d bytes allocated %d B, bound %d", len(data), got, bound)
			}
		})
	}
}

// FuzzScanMatchesDecode: on any input the scan agrees with decoding and
// re-encoding (CheckScanMatchesDecode). The corpus is the one-edit
// variants of a canonical payload, the decoder oracle's seeds (the
// committed fixtures and FuzzReadBinary's and FuzzReadAny's seeds) and
// FuzzReadBinary's other poison, the wide rank lists among it.
func FuzzScanMatchesDecode(f *testing.F) {
	f.Add(scanSeed(""))
	for _, edit := range scanEdits {
		f.Add(scanSeed(edit))
	}
	for _, data := range sortedOracleSeeds(f) {
		f.Add(data)
	}
	f.Add(hugeRankFile(1 << 22))
	f.Add(wideListsPayload())
	f.Fuzz(func(t *testing.T, data []byte) {
		CheckScanMatchesDecode(t, data)
	})
}
