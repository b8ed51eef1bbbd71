package trace

// Binary trace format: a compact varint encoding of trace files, the
// analogue of ScalaTrace's on-disk format (the JSON form is for
// debugging and interchange).
//
// Version 2 ("CHAMTRC2", written by WriteBinary) interns call sites into
// a file-local table so every leaf stores a small varint index instead
// of its full 64-bit stack signature:
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
// buffer. Decoding reads straight out of the input, which it never
// retains (strings are copied out), and never expands a rank list: a
// file holds few distinct lists (a P=64 LU trace: 10 across 1 162
// leaves), so each is decoded once and memoized by its encoded bytes,
// and every later leaf whose list has the same bytes shares it. The
// nodes of one sequence come from one []Node and their histograms from
// one []stats.Histogram, each sized to that sequence — so a node kept
// from a decoded file keeps its whole sequence's slab alive. The sizes
// are declared counts, so the slabs of all sequences together draw on
// one budget, the nodes the whole input can hold, and the 64-bucket
// arrays of histograms with three or more buckets on another: what a
// decode allocates stays proportional to its input however the counts
// lie.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
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

// encoder is the file-local site table of one encoding.
type encoder struct {
	index map[uint64]int
	sites []sig.SiteInfo
}

// AppendBinary appends the file's binary encoding (version 2) to dst.
// A caller that knows about how long the encoding is (the bytes it was
// decoded from) passes dst with that capacity.
func (f *File) AppendBinary(dst []byte) []byte {
	e := encoder{index: make(map[uint64]int)}
	e.sites = collectSites(f.Nodes, e.index, nil)
	return e.file(dst, f)
}

// WriteBinary serializes the trace file in the compact binary format
// (version 2: site-indexed leaves behind a file-local call-site table).
func (f *File) WriteBinary(w io.Writer) error {
	_, err := w.Write(f.AppendBinary(nil))
	return err
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
	b = appendStr(b, f.Benchmark)
	b = appendStr(b, f.Tracer)
	b = binary.AppendUvarint(b, uint64(len(e.sites)))
	for _, s := range e.sites {
		b = binary.AppendUvarint(b, s.Sig)
		b = appendStr(b, s.Func)
		b = appendStr(b, s.File)
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

func appendStr(b []byte, s string) []byte {
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

// collectSites walks the sequence and assigns every distinct call-site
// signature a dense file-local index in first-appearance order,
// resolving function/file/line metadata through the process intern
// table when the leaf carries an interned SiteID.
func collectSites(seq []*Node, index map[uint64]int, sites []sig.SiteInfo) []sig.SiteInfo {
	for _, n := range seq {
		if n.IsLoop() {
			sites = collectSites(n.Body, index, sites)
			continue
		}
		k := uint64(n.Ev.Stack)
		if _, ok := index[k]; ok {
			continue
		}
		info := sig.SiteInfo{ID: uint32(len(sites)), Sig: k}
		if n.Ev.Site != sig.NoSite {
			if ri, ok := sig.Sites.Resolve(n.Ev.Site); ok && ri.Sig == k {
				info.Func, info.File, info.Line = ri.Func, ri.File, ri.Line
			}
		}
		index[k] = len(sites)
		sites = append(sites, info)
	}
	return sites
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

// maxRankExpansion bounds the total rank count one leaf's rank list may
// cover: the first decode of a list materializes the cross product of
// its dimensions, so corrupt iteration counts must be rejected before
// expansion (a negative Iters would panic the allocator; a huge one
// would OOM).
const maxRankExpansion = 1 << 20

var (
	errVarint       = errors.New("varint overflows 64 bits")
	errNotCanonical = errors.New("not the canonical encoding")
)

// decoder reads one binary trace straight out of its byte slice.
type decoder struct {
	b   []byte
	off int
	err error

	// sites is the deserialized v2 site table: leaf indices map through
	// it to stack signatures and process-interned SiteIDs. nil for
	// version-1 files (leaves carry raw signatures).
	sites []decodedSite
	// ranks memoizes every rank list decoded so far, keyed by its
	// encoded bytes: equal bytes decode to an equal list, so a repeat
	// shares the first decode and skips its checks, which those same
	// bytes passed.
	ranks map[string]ranklist.List
	// nodes and hists are how many more nodes, and nodes carrying a
	// histogram, the input can hold, across the whole file: a sequence's
	// slabs are sized from its declared count before its nodes are read,
	// so every slab draws on these, and nested sequences cannot each
	// claim the same bytes.
	nodes, hists uint64
	// spills is how many more histograms of three or more buckets the
	// input can hold: each allocates a 64-bucket array beside its slab
	// slot. A histogram spills only once its bytes are read, so the input
	// bounds the arrays already; spills holds that bound in the decoder,
	// beside the slabs', rather than in the order it reads.
	spills uint64
	// strict rejects a varint written in more bytes than it needs, which
	// the encoder never writes: ScanCanonical reads with it set.
	strict bool
}

type decodedSite struct {
	sig sig.Stack
	id  sig.SiteID
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off < len(d.b) && d.b[d.off] < 0x80 {
		v := d.b[d.off]
		d.off++
		return uint64(v)
	}
	v, n := binary.Uvarint(d.b[d.off:])
	switch {
	case n == 0:
		d.err = io.ErrUnexpectedEOF
		return 0
	case n < 0:
		d.err = errVarint
		return 0
	case d.strict && n > 1 && d.b[d.off+n-1] == 0:
		d.err = errNotCanonical
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	ux := d.uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.err = io.ErrUnexpectedEOF
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *decoder) str() string {
	n := d.uvarint()
	if d.err != nil || n > 1<<20 {
		d.fail(fmt.Errorf("trace: string too long"))
		return ""
	}
	if n > d.left() {
		d.err = io.ErrUnexpectedEOF
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// left is the count of input bytes not yet read.
func (d *decoder) left() uint64 { return uint64(len(d.b) - d.off) }

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
// held in memory. The decoded file does not retain b.
func DecodeBinary(b []byte) (*File, error) {
	if len(b) < len(binaryMagicV2) {
		return nil, fmt.Errorf("trace: read magic: %w", io.ErrUnexpectedEOF)
	}
	var version int
	switch [8]byte(b) {
	case binaryMagicV1:
		version = 1
	case binaryMagicV2:
		version = 2
	default:
		return nil, fmt.Errorf("trace: not a binary trace file")
	}
	d := &decoder{
		b:      b,
		off:    len(binaryMagicV2),
		nodes:  uint64(len(b)) / minNodeBytes,
		hists:  uint64(len(b)) / minHistNodeBytes,
		spills: uint64(len(b)) / minSpillBytes,
	}
	f := &File{}
	f.P = int(d.uvarint())
	if d.err == nil {
		if err := checkRankCount(f.P); err != nil {
			return nil, err
		}
	}
	flags := d.byte()
	f.Clustered = flags&1 != 0
	f.Filter = flags&2 != 0
	f.Benchmark = d.str()
	f.Tracer = d.str()
	if version >= 2 {
		d.siteTable(f)
	}
	f.Nodes = d.seq(0)
	if flags&4 != 0 {
		f.Retired = d.retired(f.P)
	}
	if d.err != nil {
		return nil, fmt.Errorf("trace: decode binary: %w", d.err)
	}
	return f, nil
}

// siteTable decodes the v2 call-site table, re-interning each entry
// into the process table (so decoded events get live SiteIDs) and
// recording the serializable form on the file.
func (d *decoder) siteTable(f *File) {
	n := d.uvarint()
	if d.err != nil || n > 1<<20 || n > d.left()/minSiteBytes {
		d.fail(fmt.Errorf("trace: site table too large"))
		return
	}
	d.sites = make([]decodedSite, 0, n) // non-nil even when empty: the file is v2
	if n > 0 {
		f.Sites = make([]sig.SiteInfo, 0, n)
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		info := sig.SiteInfo{
			ID:   uint32(i),
			Sig:  d.uvarint(),
			Func: d.str(),
			File: d.str(),
			Line: int(d.varint()),
		}
		d.sites = append(d.sites, decodedSite{sig: sig.Stack(info.Sig), id: sig.Sites.InternSigMeta(info)})
		f.Sites = append(f.Sites, info)
	}
}

// seq decodes one node sequence into a single []Node, its histograms
// into a single []stats.Histogram made at the first node that needs one
// and sized to the nodes left.
func (d *decoder) seq(depth int) []*Node {
	if depth > maxBinaryDepth {
		d.fail(fmt.Errorf("trace: nesting too deep"))
		return nil
	}
	n := d.uvarint()
	if d.err != nil || n > 1<<24 || n > d.nodes || n > d.left()/minNodeBytes {
		d.fail(fmt.Errorf("trace: node count too large"))
		return nil
	}
	d.nodes -= n
	nodes := make([]Node, n)
	seq := make([]*Node, n)
	hists := histSlab{budget: &d.hists}
	for i := range nodes {
		seq[i] = &nodes[i]
		hists.left = uint64(len(nodes) - i)
		d.node(&nodes[i], depth, &hists)
		if d.err != nil {
			return nil
		}
	}
	return seq
}

// histSlab hands out the histograms of one sequence's nodes — at most
// one each: a leaf's Delta or a loop's ItersHist.
type histSlab struct {
	free   []stats.Histogram
	left   uint64  // nodes of the sequence not yet decoded, the current one included
	budget *uint64 // the decoder's hists
}

// next sizes a new slab to the nodes left, or to what the budget has
// left — a histogram past it takes a slab of its own, which the bytes of
// its node pay for.
func (s *histSlab) next() *stats.Histogram {
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

func (d *decoder) node(n *Node, depth int, hists *histSlab) {
	switch d.byte() {
	case tagLoop:
		n.Iters = d.uvarint()
		n.ItersHist = d.hist(hists)
		n.Body = d.seq(depth + 1)
	case tagLeaf:
		n.Ev.Op = mpi.OpCode(d.uvarint())
		if d.sites != nil {
			idx := d.uvarint()
			if idx >= uint64(len(d.sites)) {
				d.fail(fmt.Errorf("trace: site index %d out of range", idx))
				return
			}
			n.Ev.Stack = d.sites[idx].sig
			n.Ev.Site = d.sites[idx].id
		} else {
			n.Ev.Stack = sig.Stack(d.uvarint())
		}
		n.Ev.Comm = mpi.CommID(d.varint())
		n.Ev.Tag = int(d.varint())
		n.Ev.Bytes = int(d.varint())
		n.Ev.Dest = d.endpoint()
		n.Ev.Src = d.endpoint()
		n.Ranks = d.rankList()
		if n.Delta = d.hist(hists); n.Delta == nil {
			n.Delta = hists.next()
		}
	default:
		d.fail(fmt.Errorf("trace: unknown node tag"))
	}
}

// retired decodes the optional trailing retired-ranks section. The
// count is bounded by the file's rank count (a retired rank must be a
// world rank), so a corrupt count cannot force a huge allocation.
func (d *decoder) retired(p int) []int {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if p < 0 || n > uint64(p) || n > d.left() {
		d.fail(fmt.Errorf("trace: retired count %d out of range", n))
		return nil
	}
	out := make([]int, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		rk := d.varint()
		if rk < 0 || rk >= int64(p) {
			d.fail(fmt.Errorf("trace: retired rank %d out of range", rk))
			return nil
		}
		out = append(out, int(rk))
	}
	return out
}

func (d *decoder) endpoint() Endpoint {
	e := Endpoint{Kind: EPKind(d.byte())}
	if e.Kind == EPRelative || e.Kind == EPAbsolute {
		e.Off = int(d.varint())
	}
	return e
}

// rankList decodes one leaf's rank list, or shares the list an earlier
// leaf decoded from the same bytes.
func (d *decoder) rankList() ranklist.List {
	start := d.off
	d.skipRanks()
	if d.err != nil {
		return ranklist.List{}
	}
	if l, ok := d.ranks[string(d.b[start:d.off])]; ok {
		return l
	}
	end := d.off
	d.off = start
	l := d.ranksChecked()
	if d.err != nil {
		return ranklist.List{}
	}
	if d.ranks == nil {
		d.ranks = make(map[string]ranklist.List)
	}
	d.ranks[string(d.b[start:end])] = l
	return l
}

// skipRanks moves past one encoded rank list, checking only that its
// varints are there.
func (d *decoder) skipRanks() {
	n := d.uvarint()
	for i := uint64(0); i < n && d.err == nil; i++ {
		d.varint() // start
		dims := d.uvarint()
		for j := uint64(0); j < dims && d.err == nil; j++ {
			d.varint() // iters
			d.varint() // stride
		}
	}
}

// ranksChecked decodes one rank list the first time its bytes are seen:
// every bound checked, the descriptors expanded and re-compacted, so the
// list is held in its normal form whatever descriptors were written.
func (d *decoder) ranksChecked() ranklist.List {
	n := d.uvarint()
	if d.err != nil || n > 1<<20 {
		d.fail(fmt.Errorf("trace: rank list too large"))
		return ranklist.List{}
	}
	var ranks []int
	total := uint64(0)
	for i := uint64(0); i < n && d.err == nil; i++ {
		start := int(d.varint())
		if start < 0 || start > 1<<30 {
			d.fail(fmt.Errorf("trace: rank list start %d out of range", start))
			return ranklist.List{}
		}
		dims := d.uvarint()
		if dims > 8 {
			d.fail(fmt.Errorf("trace: rank list dims too large"))
			return ranklist.List{}
		}
		rl := ranklist.RL{Start: start}
		size := uint64(1)
		for j := uint64(0); j < dims; j++ {
			iters := d.varint()
			stride := d.varint()
			if iters < 1 || iters > maxRankExpansion ||
				stride < -(1<<30) || stride > 1<<30 {
				d.fail(fmt.Errorf("trace: rank list dimension out of range"))
				return ranklist.List{}
			}
			size *= uint64(iters)
			if size > maxRankExpansion {
				d.fail(fmt.Errorf("trace: rank list too large"))
				return ranklist.List{}
			}
			rl.Dims = append(rl.Dims, ranklist.Dim{
				Iters:  int(iters),
				Stride: int(stride),
			})
		}
		total += size
		if total > maxRankExpansion {
			d.fail(fmt.Errorf("trace: rank list too large"))
			return ranklist.List{}
		}
		if d.err != nil {
			return ranklist.List{}
		}
		ranks = append(ranks, rl.Ranks()...)
	}
	return ranklist.FromRanks(ranks)
}

// hist decodes an optional histogram into the sequence's slab; nil when
// the encoding holds none.
func (d *decoder) hist(hists *histSlab) *stats.Histogram {
	count := d.uvarint()
	if count == 0 {
		return nil
	}
	h := hists.next()
	min := d.varint()
	max := d.varint()
	mean := math.Float64frombits(d.uvarint())
	nonzero := d.uvarint()
	if nonzero > 64 {
		d.fail(fmt.Errorf("trace: histogram buckets out of range"))
		return h
	}
	if nonzero >= 3 {
		if d.spills == 0 {
			d.fail(fmt.Errorf("trace: more histogram buckets than the input holds"))
			return h
		}
		d.spills--
	}
	for i := uint64(0); i < nonzero && d.err == nil; i++ {
		idx := d.uvarint()
		c := d.uvarint()
		if idx < 64 {
			h.SetBucket(int(idx), c)
		}
	}
	h.Restore(min, max, mean, count)
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
