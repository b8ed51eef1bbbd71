package trace

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"chameleon/internal/mpi"
	"chameleon/internal/ranklist"
	"chameleon/internal/sig"
)

// CheckDecodeMatchesReference fails t unless the codec agrees with the
// pre-change one (binary_ref_test.go) on data: both decoders accept it
// or both reject it (but for a rank count above maxRankExpansion, and
// rank lists out of normal form past the expansion budget, which only
// the codec rejects), and what they accept is the same file —
// metadata, site table, every node, rank list and histogram (unexported
// span included) — which both encoders write as the same bytes.
// Exported to the external test package, which feeds it the archive
// corpus.
func CheckDecodeMatchesReference(t testing.TB, data []byte) {
	t.Helper()
	got, err := DecodeBinary(data)
	want, refErr := refReadBinary(bytes.NewReader(data))
	if refErr == nil && want.P > maxRankExpansion {
		// The reference predates the rank-count bound: what it accepts
		// with P above the bound, the codec must reject.
		if err == nil {
			t.Fatalf("DecodeBinary accepted P=%d, above the bound %d", got.P, maxRankExpansion)
		}
		return
	}
	if refErr == nil && errors.Is(err, errRankBudget) {
		// The reference predates the expansion budget: it expands every
		// list out of normal form, however many ranks they come to in all.
		return
	}
	if (err == nil) != (refErr == nil) {
		t.Fatalf("decoders disagree on %d bytes: DecodeBinary err=%v, reference err=%v", len(data), err, refErr)
	}
	if err != nil {
		return
	}
	if got.P != want.P || got.Benchmark != want.Benchmark || got.Tracer != want.Tracer ||
		got.Clustered != want.Clustered || got.Filter != want.Filter ||
		!reflect.DeepEqual(got.Retired, want.Retired) || !reflect.DeepEqual(got.Sites, want.Sites) {
		t.Fatalf("metadata differs: %+v vs reference %+v", header(got), header(want))
	}
	if where := diffSeq(got.Nodes, want.Nodes, "nodes"); where != "" {
		t.Fatalf("decoded nodes differ at %s", where)
	}
	CheckEncodeMatchesReference(t, got)
	var ref bytes.Buffer
	if err := refWriteBinary(want, &ref); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.AppendBinary(nil), ref.Bytes()) {
		t.Fatal("the two decodes re-encode to different bytes")
	}
	checkSpans(t, got.Nodes)
}

// CheckEncodeMatchesReference fails t unless AppendBinary and
// WriteBinary write f exactly as the pre-change encoder does.
func CheckEncodeMatchesReference(t testing.TB, f *File) {
	t.Helper()
	var ref, w bytes.Buffer
	if err := refWriteBinary(f, &ref); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteBinary(&w); err != nil {
		t.Fatal(err)
	}
	if got := f.AppendBinary([]byte("prefix")); !bytes.Equal(got[len("prefix"):], ref.Bytes()) || string(got[:len("prefix")]) != "prefix" {
		t.Fatalf("AppendBinary wrote %d bytes, the reference encoder %d, or they differ", len(got)-len("prefix"), ref.Len())
	}
	if !bytes.Equal(w.Bytes(), ref.Bytes()) {
		t.Fatalf("WriteBinary wrote %d bytes, the reference encoder %d, or they differ", w.Len(), ref.Len())
	}
}

func header(f *File) string {
	return fmt.Sprintf("P=%d %q %q clustered=%v filter=%v retired=%v sites=%d",
		f.P, f.Benchmark, f.Tracer, f.Clustered, f.Filter, f.Retired, len(f.Sites))
}

// diffSeq names the first place two decoded sequences differ, or "".
func diffSeq(a, b []*Node, at string) string {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return fmt.Sprintf("%s: %d vs %d nodes (nil %v vs %v)", at, len(a), len(b), a == nil, b == nil)
	}
	for i := range a {
		x, y, here := a[i], b[i], fmt.Sprintf("%s[%d]", at, i)
		switch {
		case x.Ev != y.Ev:
			return here + ": event"
		case !reflect.DeepEqual(x.Ranks, y.Ranks):
			return fmt.Sprintf("%s: ranks %v vs %v", here, x.Ranks, y.Ranks)
		case !reflect.DeepEqual(x.Delta, y.Delta):
			return here + ": delta histogram"
		case x.Iters != y.Iters:
			return here + ": iters"
		case !reflect.DeepEqual(x.ItersHist, y.ItersHist):
			return here + ": iters histogram"
		}
		if d := diffSeq(x.Body, y.Body, here+".body"); d != "" {
			return d
		}
	}
	return ""
}

// OracleSeeds is every input the oracle is run on besides the archive
// corpus: the committed binary fixtures, the seeds of FuzzReadBinary and
// FuzzReadAny, and hand-assembled files aimed at the memo — rank lists
// written in a form the decoder normalizes, repeated, and a corrupt list
// repeated after a good one.
func OracleSeeds(t testing.TB) map[string][]byte {
	t.Helper()
	seeds := map[string][]byte{}
	for _, path := range []string{
		filepath.Join("..", "..", "testdata", "compat_v1_phase.trc"),
		filepath.Join("..", "cli", "testdata", "phase8.trc"),
		filepath.Join("..", "cli", "testdata", "phase8_crash.trc"),
	} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		seeds[filepath.Base(path)] = b
	}
	encode := func(f *File) []byte {
		var buf bytes.Buffer
		if err := refWriteBinary(f, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	v2 := encode(fuzzSeedFile())
	seeds["fuzz v2"] = v2
	seeds["fuzz v2 truncated"] = v2[:len(v2)/2]
	seeds["fuzz wide histogram"] = encode(wideHistFile())
	seeds["sample"] = encode(sampleFile())
	var js bytes.Buffer
	if err := fuzzSeedFile().Write(&js); err != nil {
		t.Fatal(err)
	}
	seeds["fuzz JSON"] = js.Bytes()
	seeds["rank count above the bound"] = hugeRankFile(1 << 40)

	// Three leaves whose rank lists are written as two singletons — the
	// decoder re-compacts them to one descriptor, and the memo must hand
	// the repeats that normal form, not the bytes' form.
	unnormal := func(c *corrupter) {
		c.uvarint(2) // two descriptors
		c.varint(0)  // {0}
		c.uvarint(0)
		c.varint(1) // {1}
		c.uvarint(0)
	}
	var c corrupter
	memoFile(&c, []func(*corrupter){unnormal, unnormal, unnormal})
	seeds["unnormalized lists repeated"] = c.buf.Bytes()

	// A list that fails its checks, after a good one and then again: the
	// memo holds only lists that passed.
	bad := func(c *corrupter) {
		c.uvarint(1)
		c.varint(0)
		c.uvarint(1)
		c.varint(-3) // iters < 1
		c.varint(1)
	}
	c = corrupter{}
	memoFile(&c, []func(*corrupter){unnormal, bad, bad})
	seeds["bad list after good"] = c.buf.Bytes()
	return seeds
}

// sortedOracleSeeds is OracleSeeds in the order of their names, so a
// fuzz target's seed#N numbering is stable.
func sortedOracleSeeds(t testing.TB) [][]byte {
	seeds := OracleSeeds(t)
	names := make([]string, 0, len(seeds))
	for name := range seeds {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([][]byte, len(names))
	for i, name := range names {
		out[i] = seeds[name]
	}
	return out
}

// memoFile assembles a v1 file of one loop over len(lists) leaves, each
// with the rank list the given writer emits.
func memoFile(c *corrupter, lists []func(*corrupter)) {
	c.magic('1')
	c.uvarint(4) // P
	c.bytes(0)   // flags
	c.str("MEMO")
	c.str("")
	c.uvarint(1)     // one top-level node
	c.bytes(tagLoop) // a loop
	c.uvarint(3)     // iters
	c.uvarint(0)     // no iters histogram
	c.uvarint(uint64(len(lists)))
	for i, list := range lists {
		c.bytes(tagLeaf)
		c.uvarint(uint64(mpi.OpSend))
		c.uvarint(uint64(sig.Mix(uint64(i)))) // raw signature
		c.varint(0)                           // comm
		c.varint(0)                           // tag
		c.varint(8)                           // bytes
		c.bytes(byte(EPRelative))
		c.varint(1)
		c.bytes(byte(EPNone))
		list(c)
		c.uvarint(1) // histogram: one sample
		c.varint(5)
		c.varint(5)
		c.uvarint(0x4014000000000000) // 5.0
		c.uvarint(1)
		c.uvarint(3)
		c.uvarint(1)
	}
}

// TestDecodeMatchesReferenceSeeds runs the oracle over the seeds; the
// archive corpus rides in the external package (oracle_corpus_test.go).
func TestDecodeMatchesReferenceSeeds(t *testing.T) {
	for name, data := range OracleSeeds(t) {
		t.Run(name, func(t *testing.T) { CheckDecodeMatchesReference(t, data) })
	}
	// The memo seeds decode, and the repeats share the normal form.
	f, err := DecodeBinary(OracleSeeds(t)["unnormalized lists repeated"])
	if err != nil {
		t.Fatal(err)
	}
	body := f.Nodes[0].Body
	want := ranklist.FromRanks([]int{0, 1})
	for i, n := range body {
		if !reflect.DeepEqual(n.Ranks, want) {
			t.Fatalf("leaf %d ranks %v, want the normal form %v", i, n.Ranks, want)
		}
	}
	if _, err := DecodeBinary(OracleSeeds(t)["bad list after good"]); err == nil {
		t.Fatal("a corrupt rank list after a good one decoded")
	}
}

// FuzzDecodeMatchesReference: on any input the codec and the pre-change
// codec accept or reject alike, and agree on what they accept.
func FuzzDecodeMatchesReference(f *testing.F) {
	for _, data := range sortedOracleSeeds(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		CheckDecodeMatchesReference(t, data)
	})
}
