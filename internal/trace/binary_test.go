package trace

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"

	"chameleon/internal/mpi"
	"chameleon/internal/ranklist"
	"chameleon/internal/sig"
	"chameleon/internal/stats"
)

func sampleFile() *File {
	any := leaf(3)
	any.Ev.Src = Endpoint{Kind: EPAnySource}
	reply := leaf(4)
	reply.Ev.Dest = Endpoint{Kind: EPReplyToLast}
	inner := NewLoop(5, []*Node{leaf(2)})
	other := NewLoop(7, []*Node{leaf(2)})
	MergeInto(inner, other, true) // gives inner an iters histogram
	return &File{
		P:         8,
		Benchmark: "BT",
		Tracer:    "chameleon",
		Clustered: true,
		Filter:    true,
		Nodes: []*Node{
			leaf(1),
			NewLoop(10, []*Node{rankLeaf(5, 2), inner}),
			any,
			reply,
		},
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	f := sampleFile()
	var buf bytes.Buffer
	if err := f.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.P != f.P || back.Benchmark != f.Benchmark || back.Tracer != f.Tracer ||
		back.Clustered != f.Clustered || back.Filter != f.Filter {
		t.Fatalf("metadata: %+v", back)
	}
	if !SeqStructuralEqual(f.Nodes, back.Nodes, false) {
		t.Fatalf("structure lost:\n%s\nvs\n%s", Format(f.Nodes), Format(back.Nodes))
	}
	if DynamicEvents(back.Nodes) != DynamicEvents(f.Nodes) {
		t.Fatalf("events differ")
	}
	// Delta statistics survive.
	if back.Nodes[0].Delta.Count() != f.Nodes[0].Delta.Count() ||
		back.Nodes[0].Delta.Mean() != f.Nodes[0].Delta.Mean() {
		t.Fatalf("histogram lost: %v vs %v", back.Nodes[0].Delta, f.Nodes[0].Delta)
	}
	// The filtered loop's iteration histogram survives.
	loop := back.Nodes[1].Body[1]
	if loop.ItersHist == nil || loop.MeanIters() != 6 {
		t.Fatalf("iters hist lost: %+v", loop)
	}
}

// TestBinaryRetiredRoundTrip pins the retired-ranks section: the set
// survives a binary round trip canonically (sorted, deduplicated), a
// retired-free file encodes byte-identical with the field nil or empty
// (content-address stability), and corrupt sections are rejected.
func TestBinaryRetiredRoundTrip(t *testing.T) {
	f := sampleFile()
	f.Retired = []int{5, 1, 5, 3}
	var buf bytes.Buffer
	if err := f.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 3, 5}; !slices.Equal(back.Retired, want) {
		t.Fatalf("retired = %v, want %v", back.Retired, want)
	}
	// Same set, different crash order: identical bytes (the content
	// address must be a function of the set).
	f.Retired = []int{3, 5, 1}
	var buf2 bytes.Buffer
	if err := f.WriteBinary(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("retired order changed the encoding")
	}
	// No retired ranks: byte-identical whether the field is nil or
	// empty, and identical to the pre-section format.
	f.Retired = nil
	var bare bytes.Buffer
	if err := f.WriteBinary(&bare); err != nil {
		t.Fatal(err)
	}
	f.Retired = []int{}
	var empty bytes.Buffer
	if err := f.WriteBinary(&empty); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bare.Bytes(), empty.Bytes()) {
		t.Fatal("empty retired slice changed the encoding")
	}
	if bytes.Equal(bare.Bytes(), buf.Bytes()) {
		t.Fatal("retired section missing from the encoding")
	}
	if got, err := ReadBinary(bytes.NewReader(bare.Bytes())); err != nil || got.Retired != nil {
		t.Fatalf("bare decode: retired=%v err=%v", got.Retired, err)
	}
	// Corrupt sections: count past P, rank past P.
	f.Retired = []int{1}
	var one bytes.Buffer
	if err := f.WriteBinary(&one); err != nil {
		t.Fatal(err)
	}
	good := one.Bytes()
	for name, mutate := range map[string]func([]byte) []byte{
		"count past P": func(b []byte) []byte {
			b = append([]byte(nil), b...)
			b[len(b)-2] = 200 // count varint (P is 8)
			return b
		},
		"rank past P": func(b []byte) []byte {
			b = append([]byte(nil), b...)
			b[len(b)-1] = 100 // zigzag varint 50 (P is 8)
			return b
		},
		"truncated": func(b []byte) []byte { return b[:len(b)-1] },
	} {
		if _, err := ReadBinary(bytes.NewReader(mutate(good))); err == nil {
			t.Errorf("%s: corrupt retired section accepted", name)
		}
	}
}

func TestBinaryCompact(t *testing.T) {
	f := sampleFile()
	var bin, js bytes.Buffer
	if err := f.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	if err := f.Write(&js); err != nil {
		t.Fatal(err)
	}
	if bin.Len() >= js.Len() {
		t.Fatalf("binary (%d) not smaller than JSON (%d)", bin.Len(), js.Len())
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("not a trace file at all")); err == nil {
		t.Fatalf("garbage accepted")
	}
	if _, err := ReadBinary(strings.NewReader("CHAMTRC1")); err == nil {
		t.Fatalf("truncated accepted")
	}
}

func TestLoadAnySniffs(t *testing.T) {
	f := sampleFile()
	dir := t.TempDir()
	binPath, jsonPath := dir+"/t.bin", dir+"/t.json"
	if err := f.SaveBinary(binPath); err != nil {
		t.Fatal(err)
	}
	if err := f.Save(jsonPath); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{binPath, jsonPath} {
		got, err := LoadAny(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if !SeqStructuralEqual(f.Nodes, got.Nodes, false) {
			t.Fatalf("%s: structure lost", path)
		}
	}
	if _, err := LoadAny(dir + "/missing"); err == nil {
		t.Fatalf("missing file accepted")
	}
}

func TestBinaryRanklistFidelity(t *testing.T) {
	n := leaf(1)
	n.Ranks = ranklist.FromRanks([]int{0, 2, 4, 6, 9})
	f := &File{P: 16, Nodes: []*Node{n}}
	var buf bytes.Buffer
	if err := f.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Nodes[0].Ranks.Equal(n.Ranks) {
		t.Fatalf("ranks = %v, want %v", back.Nodes[0].Ranks, n.Ranks)
	}
}

// TestBinaryHistogramSpan: a decoded histogram holds every bucket it was
// written with, outside its extrema too (see wideHistFile) — four, so
// spilled — and the folds out of it move them all.
func TestBinaryHistogramSpan(t *testing.T) {
	file := wideHistFile()
	var buf bytes.Buffer
	if err := file.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, want := back.Nodes[0].Body[0].Delta, file.Nodes[0].Body[0].Delta
	if histBuckets(got) != histBuckets(want) {
		t.Fatalf("decoded buckets %v, wrote %v", histBuckets(got), histBuckets(want))
	}
	checkSpans(t, back.Nodes)
	scaled := stats.NewHistogram()
	scaled.MergeScaled(got, 3)
	for i, c := range histBuckets(got) {
		if scaled.Bucket(i) != 3*c {
			t.Fatalf("MergeScaled moved %v of %v", histBuckets(scaled), histBuckets(got))
		}
	}
}

// TestStringBoundMatchesDecode: each string the format carries — the
// benchmark and tracer names and a site's Func and File — encodes and
// reads back at maxStringLen bytes, and one byte more is refused by
// MarshalBinary as DecodeBinary refuses the bytes AppendBinary writes.
func TestStringBoundMatchesDecode(t *testing.T) {
	stack := sig.Stack(sig.Mix(1))
	fields := []struct {
		name string
		set  func(*File, string)
		get  func(*File) string
	}{
		{"Benchmark", func(f *File, s string) { f.Benchmark = s }, func(f *File) string { return f.Benchmark }},
		{"Tracer", func(f *File, s string) { f.Tracer = s }, func(f *File) string { return f.Tracer }},
		{"Func", func(f *File, s string) { f.Sites[0].Func = s }, func(f *File) string { return f.Sites[0].Func }},
		{"File", func(f *File, s string) { f.Sites[0].File = s }, func(f *File) string { return f.Sites[0].File }},
	}
	for _, fd := range fields {
		for _, n := range []int{maxStringLen, maxStringLen + 1} {
			f := &File{
				P:     1,
				Nodes: []*Node{NewLeaf(Event{Op: mpi.OpBarrier, Stack: stack}, ranklist.SingleRank(0), 1)},
				Sites: []sig.SiteInfo{{Sig: uint64(stack), Func: "main", File: "main.go", Line: 1}},
			}
			s := strings.Repeat("x", n)
			fd.set(f, s)
			b, err := f.MarshalBinary()
			got, derr := DecodeBinary(f.AppendBinary(nil))
			if n > maxStringLen {
				if !errors.Is(err, errStringLen) || derr == nil {
					t.Fatalf("%s of %d bytes: MarshalBinary error %v, DecodeBinary error %v; want both refused", fd.name, n, err, derr)
				}
				continue
			}
			if err != nil || derr != nil {
				t.Fatalf("%s of %d bytes: MarshalBinary error %v, DecodeBinary error %v", fd.name, n, err, derr)
			}
			if fd.get(got) != s || !bytes.Equal(b, got.AppendBinary(nil)) {
				t.Fatalf("%s of %d bytes did not read back as written", fd.name, n)
			}
		}
	}
}
