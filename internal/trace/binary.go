package trace

// Binary trace format: a compact varint encoding of trace files, the
// analogue of ScalaTrace's on-disk format (the JSON form is for
// debugging and interchange).
//
// Version 2 ("CHAMTRC2", written by WriteBinary) numbers call sites in a
// file-local table, with the labels the file gives them (File.Sites), so
// every leaf stores a small varint index instead of its full 64-bit stack
// signature; the reader interns nothing into sig.Sites:
//
//	magic "CHAMTRC2"
//	varint P, flags byte (clustered, filter, has-retired), strings
//	benchmark/tracer
//	site table: varint count, then per site:
//	  uvarint signature, strings func/file, varint line
//	varint node count, then nodes depth-first:
//	  0x01 leaf:  op, site-index, comm, tag, bytes, dest, src, ranklist, hist
//	  0x02 loop:  iters, optional iters-hist, body count, body nodes
//	if flags has-retired: varint count, then the sorted retired ranks
//
// The retired section is written only when non-empty and announced by
// its flag bit, so a trace with no crashed ranks encodes byte-identical
// to files written before the section existed — content addresses of
// archived runs are stable across the addition.
//
// Version 1 ("CHAMTRC1") had no site table and stored the raw stack
// signature on each leaf; DecodeBinary still reads it.
//
// Everything integer is unsigned/signed varint; histograms store count,
// min, max, mean and the sparse bucket set.
//
// The codec works on whole byte slices. Encoding appends into one
// buffer. Reading is one walker behind three entry points, which so
// share every bound and fail on the same inputs: DecodeBinary keeps the
// nodes, Walk hands them to a Visitor one at a time in scratch, and
// ScanCanonical checks that the bytes are canonical. The walker reads
// straight out of the input, which it never retains (strings are copied
// out). A file holds few distinct rank lists (a P=64 LU trace: 10
// across 1 162 leaves), so each is read once and memoized by its
// encoded bytes, and every later leaf whose list has the same bytes
// shares it. A list in the compactor's normal form (ranklist.Normal),
// which is every list the encoder writes, is checked in O(descriptors)
// and kept as written, never expanded; only a list written otherwise
// (a v1 file's, or a JSON file's: Read decodes JSON by re-encoding it
// and reading that here) is expanded and re-compacted, against a budget
// of ranks for the whole file drawn from the input's size. So every
// list a decoded File holds is in normal form. Decoded, the
// nodes of one sequence come from one []Node and their histograms from
// one []stats.Histogram, each sized to that sequence — so a node kept
// from a decoded file keeps its whole sequence's slab alive. The sizes
// are declared counts, so the slabs of all sequences together draw on
// one budget, the nodes the whole input can hold, and the 64-bucket
// arrays of histograms with three or more buckets on another: what a
// read allocates stays proportional to its input however the counts
// lie.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"

	"chameleon/internal/mpi"
	"chameleon/internal/ranklist"
	"chameleon/internal/sig"
	"chameleon/internal/stats"
)

var (
	binaryMagicV1 = [8]byte{'C', 'H', 'A', 'M', 'T', 'R', 'C', '1'}
	binaryMagicV2 = [8]byte{'C', 'H', 'A', 'M', 'T', 'R', 'C', '2'}
)

const (
	tagLeaf byte = 0x01
	tagLoop byte = 0x02
)

// encoder is the file-local site table of one encoding, and the error
// of the first string or leaf it wrote that the walker would refuse.
type encoder struct {
	siteTable
	err error
}

// AppendBinary appends the file's binary encoding (version 2) to dst.
// A caller that knows about how long the encoding is (the bytes it was
// decoded from) passes dst with that capacity. It encodes any file,
// even one DecodeBinary refuses; MarshalBinary and WriteBinary check.
func (f *File) AppendBinary(dst []byte) []byte {
	b, _ := f.appendBinary(dst)
	return b
}

// MarshalBinary returns the file's binary encoding, or an error when
// DecodeBinary would refuse a leaf's rank list (checkRanks) or a string
// (maxStringLen) for a bound.
func (f *File) MarshalBinary() ([]byte, error) {
	return f.appendBinary(nil)
}

// WriteBinary serializes the trace file in the compact binary format
// (version 2: site-indexed leaves behind a file-local call-site table),
// refusing what MarshalBinary refuses.
func (f *File) WriteBinary(w io.Writer) error {
	b, err := f.MarshalBinary()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

func (f *File) appendBinary(dst []byte) ([]byte, error) {
	e := encoder{siteTable: collectSites(f)}
	b := e.file(dst, f)
	return b, e.err
}

func (e *encoder) file(b []byte, f *File) []byte {
	b = append(b, binaryMagicV2[:]...)
	b = binary.AppendUvarint(b, uint64(f.P))
	retired := canonicalRetired(f.Retired)
	var flags byte
	if f.Clustered {
		flags |= 1
	}
	if f.Filter {
		flags |= 2
	}
	if len(retired) > 0 {
		flags |= 4
	}
	b = append(b, flags)
	b = e.str(b, f.Benchmark)
	b = e.str(b, f.Tracer)
	b = binary.AppendUvarint(b, uint64(len(e.sites)))
	for _, s := range e.sites {
		b = binary.AppendUvarint(b, s.Sig)
		b = e.str(b, s.Func)
		b = e.str(b, s.File)
		b = binary.AppendVarint(b, int64(s.Line))
	}
	b = e.seq(b, f.Nodes)
	if len(retired) > 0 {
		b = binary.AppendUvarint(b, uint64(len(retired)))
		for _, rk := range retired {
			b = binary.AppendVarint(b, int64(rk))
		}
	}
	return b
}

func (e *encoder) str(b []byte, s string) []byte {
	if len(s) > maxStringLen && e.err == nil {
		e.err = errStringLen
	}
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// canonicalRetired returns the retired list sorted and deduplicated —
// the encoding must be a function of the set, not of crash order, or
// identical runs would hash to different content addresses.
func canonicalRetired(retired []int) []int {
	if len(retired) == 0 {
		return nil
	}
	out := append([]int(nil), retired...)
	sort.Ints(out)
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

// siteTable is the call-site table of one encoding: the distinct
// signatures of the file's leaves in order of first use, depth-first.
type siteTable struct {
	index map[uint64]int // signature → file-local index
	sites []sig.SiteInfo
	given []sig.SiteInfo // File.Sites, which labels the sites
	// first maps a signature to its first entry in given; nil while
	// given's entries are the sites so far, in order.
	first map[uint64]int
}

// collectSites builds f's site table. A site takes the labels of f's
// first Sites entry for its signature, or, lacking one, of its leaf's
// live site in sig.Sites, as the sites a producer captured do.
func collectSites(f *File) siteTable {
	t := siteTable{index: make(map[uint64]int), given: f.Sites}
	t.seq(f.Nodes)
	return t
}

func (t *siteTable) seq(seq []*Node) {
	for _, n := range seq {
		if n.IsLoop() {
			t.seq(n.Body)
			continue
		}
		k := uint64(n.Ev.Stack)
		if _, ok := t.index[k]; ok {
			continue
		}
		info, ok := t.label(k)
		if !ok {
			if ri, live := sig.Sites.Resolve(n.Ev.Site); live && ri.Sig == k {
				info = ri
			}
		}
		info.ID, info.Sig = uint32(len(t.sites)), k
		t.index[k] = len(t.sites)
		t.sites = append(t.sites, info)
	}
}

// label returns the file's first entry for k, the next site's signature.
func (t *siteTable) label(k uint64) (sig.SiteInfo, bool) {
	if i := len(t.sites); t.first == nil {
		if i >= len(t.given) {
			return sig.SiteInfo{}, false // every entry names an earlier site
		}
		if t.given[i].Sig == k {
			return t.given[i], true
		}
		t.first = make(map[uint64]int, len(t.given))
		for j := len(t.given) - 1; j >= 0; j-- {
			t.first[t.given[j].Sig] = j
		}
	}
	if j, ok := t.first[k]; ok {
		return t.given[j], true
	}
	return sig.SiteInfo{}, false
}

func (e *encoder) seq(b []byte, seq []*Node) []byte {
	b = binary.AppendUvarint(b, uint64(len(seq)))
	for _, n := range seq {
		b = e.node(b, n)
	}
	return b
}

func (e *encoder) node(b []byte, n *Node) []byte {
	if n.IsLoop() {
		b = append(b, tagLoop)
		b = binary.AppendUvarint(b, n.Iters)
		b = appendHist(b, n.ItersHist)
		return e.seq(b, n.Body)
	}
	b = append(b, tagLeaf)
	b = binary.AppendUvarint(b, uint64(n.Ev.Op))
	b = binary.AppendUvarint(b, uint64(e.index[uint64(n.Ev.Stack)]))
	b = binary.AppendVarint(b, int64(n.Ev.Comm))
	b = binary.AppendVarint(b, int64(n.Ev.Tag))
	b = binary.AppendVarint(b, int64(n.Ev.Bytes))
	b = appendEndpoint(b, n.Ev.Dest)
	b = appendEndpoint(b, n.Ev.Src)
	if e.err == nil {
		e.err = checkRanks(n.Ranks.Descriptors())
	}
	b = appendRanks(b, n.Ranks)
	return appendHist(b, n.Delta)
}

func appendEndpoint(b []byte, e Endpoint) []byte {
	b = append(b, byte(e.Kind))
	if e.Kind == EPRelative || e.Kind == EPAbsolute {
		b = binary.AppendVarint(b, int64(e.Off))
	}
	return b
}

func appendRanks(b []byte, l ranklist.List) []byte {
	rls := l.Descriptors()
	b = binary.AppendUvarint(b, uint64(len(rls)))
	for _, r := range rls {
		b = binary.AppendVarint(b, int64(r.Start))
		b = binary.AppendUvarint(b, uint64(len(r.Dims)))
		for _, d := range r.Dims {
			b = binary.AppendVarint(b, int64(d.Iters))
			b = binary.AppendVarint(b, int64(d.Stride))
		}
	}
	return b
}

func appendHist(b []byte, h *stats.Histogram) []byte {
	if h == nil || h.Count() == 0 {
		return binary.AppendUvarint(b, 0)
	}
	b = binary.AppendUvarint(b, h.Count())
	b = binary.AppendVarint(b, h.Min)
	b = binary.AppendVarint(b, h.Max)
	b = binary.AppendUvarint(b, math.Float64bits(float64(h.Mean())))
	nonzero := 0
	h.EachBucket(func(int, uint64) bool {
		nonzero++
		return true
	})
	b = binary.AppendUvarint(b, uint64(nonzero))
	h.EachBucket(func(i int, c uint64) bool {
		b = binary.AppendUvarint(b, uint64(i))
		b = binary.AppendUvarint(b, c)
		return true
	})
	return b
}

// Lower bounds on the input bytes one element consumes, which turn a
// count the rest of the input cannot hold into an error before anything
// is sized by it: a node is at least a tag, a varint and two empty
// counts (a loop); a node carrying a histogram at least a loop whose
// iterations histogram holds a count, min, max, mean and bucket count (a
// leaf always carries one and takes more); a histogram that spills (see
// stats.Histogram), its count, min, max, mean and bucket count and three
// index/count pairs; a site a signature, two empty strings and a line.
const (
	minNodeBytes     = 4
	minHistNodeBytes = 8
	minSpillBytes    = 11
	minSiteBytes     = 4
)

const maxBinaryDepth = 64

// maxRankExpansion bounds the rank count of one leaf's rank list and the
// file's rank count: what a reader that walks a list rank by rank, or
// sizes a per-rank table, takes on.
const maxRankExpansion = 1 << 20

// maxStringLen bounds the bytes of a benchmark, tracer or site label:
// the walker refuses a longer one, and MarshalBinary will not write it.
const maxStringLen = 1 << 20

var (
	errVarint       = errors.New("varint overflows 64 bits")
	errNotCanonical = errors.New("not the canonical encoding")
	errStringLen    = errors.New("trace: string too long")
	errRankBudget   = errors.New("trace: rank lists not in normal form expand past the input's budget")
)

// walker reads one binary trace straight out of its byte slice: the one
// reader of the format (see the top of this file).
type walker struct {
	b   []byte
	off int
	err error

	// v sees the nodes (nil: no callbacks, as in DecodeBinary).
	v Visitor
	// f receives the header, site table, nodes and retired ranks, when
	// the walk keeps them (DecodeBinary).
	f *File
	// strict rejects any bytes the encoder would not write for what
	// they decode to (ScanCanonical).
	strict bool

	// sites is the v2 site table's signatures, which leaf indices map
	// through. nil for version-1 files (leaves carry raw signatures).
	// used counts the entries leaves have referenced so far (strict).
	sites []sig.Stack
	used  uint64
	// ranks memoizes every rank list read so far, keyed by its encoded
	// bytes: equal bytes read to an equal list, so a repeat shares the
	// first and skips its checks, which those same bytes passed.
	ranks map[string]ranklist.List
	// nodes and hists are how many more nodes, and nodes carrying a
	// histogram, the input can hold, across the whole file: a kept
	// sequence's slabs are sized from its declared count before its
	// nodes are read, so every slab draws on these, and nested sequences
	// cannot each claim the same bytes.
	nodes, hists uint64
	// spills is how many more histograms of three or more buckets, each
	// allocating a 64-bucket array once its bytes are read, the input can
	// hold: the bound is the input's, held beside the slabs'.
	spills uint64
	// expand is how many more ranks lists not in normal form may expand
	// to, file-wide: 2^20 (one list's most) plus one per input byte.
	expand int

	slots   []*slot // Walk's scratch, one per depth
	scratch []byte  // strict: an element's canonical encoding
}

// slot is Walk's scratch at one depth: the node read there last, and its
// one histogram (a leaf's Delta or a loop's ItersHist).
type slot struct {
	n Node
	h stats.Histogram
}

// walkedBody is the Body of every loop Walk hands out: empty but not
// nil, so the node reads as a loop. Its body arrives as the callbacks
// between EnterLoop and LeaveLoop.
var walkedBody = []*Node{}

func (w *walker) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

func (w *walker) uvarint() uint64 {
	if w.err != nil {
		return 0
	}
	if w.off < len(w.b) && w.b[w.off] < 0x80 {
		v := w.b[w.off]
		w.off++
		return uint64(v)
	}
	v, n := binary.Uvarint(w.b[w.off:])
	switch {
	case n == 0:
		w.err = io.ErrUnexpectedEOF
		return 0
	case n < 0:
		w.err = errVarint
		return 0
	case w.strict && n > 1 && w.b[w.off+n-1] == 0:
		w.err = errNotCanonical
		return 0
	}
	w.off += n
	return v
}

func (w *walker) varint() int64 {
	ux := w.uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// int reads a varint the node keeps in an int.
func (w *walker) int() int {
	v := w.varint()
	if w.strict && int64(int(v)) != v {
		w.fail(errNotCanonical)
	}
	return int(v)
}

func (w *walker) byte() byte {
	if w.err != nil {
		return 0
	}
	if w.off >= len(w.b) {
		w.err = io.ErrUnexpectedEOF
		return 0
	}
	v := w.b[w.off]
	w.off++
	return v
}

func (w *walker) str() string {
	n := w.uvarint()
	if w.err != nil || n > maxStringLen {
		w.fail(errStringLen)
		return ""
	}
	if n > w.left() {
		w.err = io.ErrUnexpectedEOF
		return ""
	}
	s := string(w.b[w.off : w.off+int(n)])
	w.off += int(n)
	return s
}

// left is the count of input bytes not yet read.
func (w *walker) left() uint64 { return uint64(len(w.b) - w.off) }

// ReadBinary deserializes a binary trace file (either format version)
// from r, read to its end.
func ReadBinary(r io.Reader) (*File, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	return DecodeBinary(b)
}

// DecodeBinary deserializes a binary trace file (either format version)
// held in memory: the walk that keeps what it reads. The decoded file
// does not retain b.
func DecodeBinary(b []byte) (*File, error) {
	w := walker{f: &File{}}
	if err := w.walk(b); err != nil {
		return nil, err
	}
	return w.f, nil
}

// walk reads b whole: magic, header, site table, nodes and the retired
// section.
func (w *walker) walk(b []byte) error {
	if len(b) < len(binaryMagicV2) {
		return fmt.Errorf("trace: read magic: %w", io.ErrUnexpectedEOF)
	}
	magic := [8]byte(b)
	if magic != binaryMagicV1 && magic != binaryMagicV2 {
		return fmt.Errorf("trace: not a binary trace file")
	}
	w.b, w.off = b, len(binaryMagicV2)
	w.nodes = uint64(len(b)) / minNodeBytes
	w.hists = uint64(len(b)) / minHistNodeBytes
	w.spills = uint64(len(b)) / minSpillBytes
	w.expand = maxRankExpansion + len(b)

	h := Header{P: int(w.uvarint())}
	if w.err == nil {
		if err := checkRankCount(h.P); err != nil {
			return err
		}
	}
	flags := w.byte()
	if w.strict && flags&^7 != 0 {
		w.fail(errNotCanonical)
	}
	h.Clustered, h.Filter = flags&1 != 0, flags&2 != 0
	h.Benchmark, h.Tracer = w.str(), w.str()
	if magic == binaryMagicV2 {
		w.readSites()
	}
	n := w.count(0)
	h.Windows = int(n)
	if hv, ok := w.v.(HeaderVisitor); ok && w.err == nil {
		hv.Header(h)
	}
	nodes := w.seq(n, 0, Cursor{Mult: 1})
	var retired []int
	if flags&4 != 0 {
		retired = w.retired(h.P)
	}
	if w.strict && w.err == nil && (w.used != uint64(len(w.sites)) || w.off != len(b)) {
		w.fail(errNotCanonical) // a site no leaf uses, or trailing bytes
	}
	if w.err != nil {
		return fmt.Errorf("trace: decode binary: %w", w.err)
	}
	if f := w.f; f != nil {
		f.P, f.Clustered, f.Filter, f.Benchmark, f.Tracer = h.P, h.Clustered, h.Filter, h.Benchmark, h.Tracer
		f.Nodes, f.Retired = nodes, retired
	}
	return nil
}

// readSites reads the v2 call-site table and, kept, records it on the
// file as written. Strict, a signature may appear once, and a line must
// fit the int it is kept in; any labels are canonical, since the encoder
// writes the labels its file carries.
func (w *walker) readSites() {
	n := w.uvarint()
	if w.err != nil || n > 1<<20 || n > w.left()/minSiteBytes {
		w.fail(fmt.Errorf("trace: site table too large"))
		return
	}
	w.sites = make([]sig.Stack, 0, n) // non-nil even when empty: the file is v2
	if w.f != nil && n > 0 {
		w.f.Sites = make([]sig.SiteInfo, 0, n)
	}
	for i := uint64(0); i < n && w.err == nil; i++ {
		info := sig.SiteInfo{ID: uint32(i), Sig: w.uvarint(), Func: w.str(), File: w.str()}
		line := w.varint()
		info.Line = int(line)
		if w.strict && int64(info.Line) != line {
			w.fail(errNotCanonical)
		}
		if w.err != nil {
			return
		}
		w.sites = append(w.sites, sig.Stack(info.Sig))
		if w.f != nil {
			w.f.Sites = append(w.f.Sites, info)
		}
	}
	if w.strict {
		sorted := slices.Clone(w.sites)
		slices.Sort(sorted)
		if len(slices.Compact(sorted)) != len(w.sites) {
			w.fail(errNotCanonical) // the encoder writes one entry per signature
		}
	}
}

// count reads the node count of a sequence at depth and draws it from
// the file's node budget.
func (w *walker) count(depth int) uint64 {
	if depth > maxBinaryDepth {
		w.fail(fmt.Errorf("trace: nesting too deep"))
		return 0
	}
	n := w.uvarint()
	if w.err != nil || n > 1<<24 || n > w.nodes || n > w.left()/minNodeBytes {
		w.fail(fmt.Errorf("trace: node count too large"))
		return 0
	}
	w.nodes -= n
	return n
}

// seq reads a sequence of n nodes at depth, under cursor c (each
// top-level node is its own window). Kept, it returns them: one []Node,
// their histograms in one []stats.Histogram made at the first node that
// needs one and sized to the nodes left. Walked, each node is read into
// the depth's slot.
func (w *walker) seq(n uint64, depth int, c Cursor) []*Node {
	if w.err != nil {
		return nil
	}
	hists := histSlab{budget: &w.hists}
	var nodes []Node
	var seq []*Node
	var nd *Node
	if w.f != nil {
		nodes, seq = make([]Node, n), make([]*Node, n)
	} else {
		for len(w.slots) <= depth {
			w.slots = append(w.slots, new(slot))
		}
		nd, hists.scratch = &w.slots[depth].n, &w.slots[depth].h
	}
	for i := uint64(0); i < n; i++ {
		if seq != nil {
			nd, hists.left = &nodes[i], n-i
			seq[i] = nd
		}
		if depth == 0 {
			c.Window = int(i)
		}
		w.node(nd, depth, c, &hists)
		if w.err != nil {
			return nil
		}
	}
	return seq
}

// histSlab hands out the histograms of one sequence's nodes — at most
// one each: a leaf's Delta or a loop's ItersHist — or, walked, the
// depth's one scratch histogram.
type histSlab struct {
	free    []stats.Histogram
	left    uint64  // nodes of the sequence not yet read, the current one included
	budget  *uint64 // the walker's hists
	scratch *stats.Histogram
}

// next sizes a new slab to the nodes left, or to what the budget has
// left — a histogram past it takes a slab of its own, which the bytes of
// its node pay for.
func (s *histSlab) next() *stats.Histogram {
	if s.scratch != nil {
		s.scratch.Reset()
		return s.scratch
	}
	if len(s.free) == 0 {
		k := min(s.left, *s.budget)
		*s.budget -= k
		s.free = make([]stats.Histogram, max(k, 1))
	}
	h := &s.free[0]
	s.free = s.free[1:]
	h.Reset()
	return h
}

// node reads one node into n and, walked, hands it to the visitor: a
// loop's body is read whether or not EnterLoop prunes it, so pruning
// changes the callbacks, never what the walk accepts.
func (w *walker) node(n *Node, depth int, c Cursor, hists *histSlab) {
	*n = Node{}
	switch w.byte() {
	case tagLoop:
		n.Iters = w.uvarint()
		n.ItersHist = w.hist(hists)
		count := w.count(depth + 1)
		if w.f != nil {
			n.Body = w.seq(count, depth+1, c)
			return
		}
		n.Body = walkedBody
		if w.v == nil || w.err != nil || !w.v.EnterLoop(n, c) {
			v := w.v // read the body with no visitor to call back
			w.v = nil
			w.seq(count, depth+1, c)
			w.v = v
			return
		}
		w.seq(count, depth+1, Cursor{Mult: c.Mult * n.MeanIters(), Depth: c.Depth + 1, Window: c.Window})
		if w.err == nil {
			w.v.LeaveLoop(n, c)
		}
	case tagLeaf:
		w.leaf(n)
		if n.Delta = w.hist(hists); n.Delta == nil {
			n.Delta = hists.next()
		}
		if w.v != nil && w.err == nil {
			w.v.Leaf(n, c)
		}
	default:
		w.fail(fmt.Errorf("trace: unknown node tag"))
	}
}

// leaf reads a leaf's event and rank list.
func (w *walker) leaf(n *Node) {
	op := w.uvarint()
	if w.strict && op > math.MaxUint8 { // an OpCode is a byte
		w.fail(errNotCanonical)
	}
	n.Ev.Op = mpi.OpCode(op)
	if w.sites != nil {
		idx := w.uvarint()
		if idx >= uint64(len(w.sites)) {
			w.fail(fmt.Errorf("trace: site index %d out of range", idx))
			return
		}
		if w.strict && idx > w.used { // the encoder numbers sites in order of first use
			w.fail(errNotCanonical)
		} else if idx == w.used {
			w.used++
		}
		n.Ev.Stack = w.sites[idx]
	} else {
		n.Ev.Stack = sig.Stack(w.uvarint())
	}
	comm := w.varint()
	if w.strict && int64(int32(comm)) != comm { // a CommID
		w.fail(errNotCanonical)
	}
	n.Ev.Comm = mpi.CommID(comm)
	n.Ev.Tag = w.int()
	n.Ev.Bytes = w.int()
	n.Ev.Dest = w.endpoint()
	n.Ev.Src = w.endpoint()
	n.Ranks = w.rankList()
}

// retired reads the optional trailing retired-ranks section. The count
// is bounded by the file's rank count (a retired rank must be a world
// rank), so a corrupt count cannot force a huge allocation. Strict, the
// list is the sorted, duplicate-free, non-empty one the encoder writes.
func (w *walker) retired(p int) []int {
	n := w.uvarint()
	if w.err != nil {
		return nil
	}
	if n > uint64(p) || n > w.left() {
		w.fail(fmt.Errorf("trace: retired count %d out of range", n))
		return nil
	}
	if w.strict && n == 0 {
		w.fail(errNotCanonical)
	}
	out := make([]int, 0, n)
	prev := int64(-1)
	for i := uint64(0); i < n && w.err == nil; i++ {
		rk := w.varint()
		switch {
		case w.err != nil:
		case rk < 0 || rk >= int64(p):
			w.fail(fmt.Errorf("trace: retired rank %d out of range", rk))
			return nil
		case w.strict && rk <= prev:
			w.fail(errNotCanonical)
		}
		prev = rk
		out = append(out, int(rk))
	}
	return out
}

func (w *walker) endpoint() Endpoint {
	e := Endpoint{Kind: EPKind(w.byte())}
	if e.Kind == EPRelative || e.Kind == EPAbsolute {
		e.Off = w.int()
	}
	return e
}

// rankList reads one leaf's rank list, or shares the list an earlier
// leaf read from the same bytes.
func (w *walker) rankList() ranklist.List {
	start := w.off
	descs, dims := w.skipRanks()
	if w.err != nil {
		return ranklist.List{}
	}
	if l, ok := w.ranks[string(w.b[start:w.off])]; ok {
		return l
	}
	end := w.off
	w.off = start
	l := w.ranksChecked(descs, dims)
	if w.err != nil {
		return ranklist.List{}
	}
	if w.ranks == nil {
		w.ranks = make(map[string]ranklist.List)
	}
	w.ranks[string(w.b[start:end])] = l
	return l
}

// skipRanks moves past one encoded rank list, checking only that its
// varints are there, and returns its descriptor and dimension counts,
// which the bytes it moved past bound.
func (w *walker) skipRanks() (descs, dims uint64) {
	descs = w.uvarint()
	for i := uint64(0); i < descs && w.err == nil; i++ {
		w.varint() // start
		k := w.uvarint()
		for j := uint64(0); j < k && w.err == nil; j++ {
			w.varint() // iters
			w.varint() // stride
		}
		dims += k
	}
	return descs, dims
}

// ranksChecked reads one rank list the first time its bytes are seen —
// descs descriptors of dims dimensions in all, as skipRanks counted
// them — checking every bound — and holds it to normal form
// (ranklist.Normalize): a list in it, which is every list the encoder
// writes, is kept as written, in one []RL and one []Dim, never
// expanded. Any other is expanded and re-compacted against the file's
// expansion budget; strict, it is rejected.
func (w *walker) ranksChecked(descs, dims uint64) ranklist.List {
	w.uvarint() // descs
	if descs > 1<<20 {
		w.fail(fmt.Errorf("trace: rank list too large"))
		return ranklist.List{}
	}
	rls := make([]ranklist.RL, descs)
	slab := make([]ranklist.Dim, dims)
	for i := range rls {
		rl := &rls[i]
		rl.Start = int(w.varint())
		if k := w.uvarint(); k > 0 {
			rl.Dims, slab = slab[:k:k], slab[k:]
		}
		for j := range rl.Dims {
			rl.Dims[j] = ranklist.Dim{Iters: int(w.varint()), Stride: int(w.varint())}
		}
	}
	if err := checkRanks(rls); err != nil {
		w.fail(err)
		return ranklist.List{}
	}
	budget := &w.expand
	if w.strict {
		budget = nil // the encoder writes normal form only
	}
	l, ok := ranklist.Normalize(rls, budget)
	switch {
	case ok:
		// A list re-compacted from its ranks starts where they do (a
		// descending run may reach below 0), and its re-encoding is read
		// with the bounds above.
		if err := checkRanks(l.Descriptors()); err != nil {
			w.fail(err)
			return ranklist.List{}
		}
		return l
	case w.strict:
		w.fail(errNotCanonical)
	default:
		w.fail(errRankBudget)
	}
	return ranklist.List{}
}

// checkRanks returns the first of the walker's bounds a rank list breaks,
// which the encoder holds every leaf's list to as well: each start in
// [0, 2^30], at most 8 dimensions of 1 to 2^20 iterations at a stride
// within ±2^30, and at most 2^20 ranks in all.
func checkRanks(rls []ranklist.RL) error {
	total := 0
	for _, rl := range rls {
		if rl.Start < 0 || rl.Start > 1<<30 {
			return fmt.Errorf("trace: rank list start %d out of range", rl.Start)
		}
		if len(rl.Dims) > 8 {
			return errors.New("trace: rank list dims too large")
		}
		size := 1
		for _, d := range rl.Dims {
			if d.Iters < 1 || d.Iters > maxRankExpansion || d.Stride < -(1<<30) || d.Stride > 1<<30 {
				return errors.New("trace: rank list dimension out of range")
			}
			if size > maxRankExpansion/d.Iters {
				return errors.New("trace: rank list too large")
			}
			size *= d.Iters
		}
		if total += size; total > maxRankExpansion {
			return errors.New("trace: rank list too large")
		}
	}
	return nil
}

// hist reads an optional histogram into the sequence's slab (or the
// depth's scratch); nil when the encoding holds none. Strict, the
// histogram must re-encode to the bytes it was read from.
func (w *walker) hist(hists *histSlab) *stats.Histogram {
	start := w.off
	count := w.uvarint()
	if count == 0 {
		return nil
	}
	h := hists.next()
	min := w.varint()
	max := w.varint()
	mean := math.Float64frombits(w.uvarint())
	nonzero := w.uvarint()
	if nonzero > 64 {
		w.fail(fmt.Errorf("trace: histogram buckets out of range"))
		return h
	}
	if nonzero >= 3 {
		if w.spills == 0 {
			w.fail(fmt.Errorf("trace: more histogram buckets than the input holds"))
			return h
		}
		w.spills--
	}
	for i := uint64(0); i < nonzero && w.err == nil; i++ {
		idx := w.uvarint()
		c := w.uvarint()
		if idx < 64 {
			h.SetBucket(int(idx), c)
		}
	}
	h.Restore(min, max, mean, count)
	if w.strict && w.err == nil {
		w.scratch = appendHist(w.scratch[:0], h)
		if !bytes.Equal(w.scratch, w.b[start:w.off]) {
			w.fail(errNotCanonical)
		}
	}
	return h
}

// SaveBinary writes the trace to path in binary form.
func (f *File) SaveBinary(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	defer out.Close()
	if err := f.WriteBinary(out); err != nil {
		return err
	}
	return out.Close()
}

// LoadAny reads a trace file in either format, sniffing the magic.
func LoadAny(path string) (*File, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeAny(b)
}

// ReadAny reads a trace from r in either format (binary v1/v2 or
// JSON), sniffing the magic.
func ReadAny(r io.Reader) (*File, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	return DecodeAny(b)
}

// DecodeAny decodes a trace held in memory in either format (binary
// v1/v2 or JSON), sniffing the magic.
func DecodeAny(b []byte) (*File, error) {
	if len(b) >= 8 && ([8]byte(b) == binaryMagicV1 || [8]byte(b) == binaryMagicV2) {
		return DecodeBinary(b)
	}
	return Read(bytes.NewReader(b))
}
