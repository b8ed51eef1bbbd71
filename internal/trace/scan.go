package trace

// ScanCanonical reads a CHAMTRC2 payload for what describing it takes
// and, in the same pass, decides whether the payload is canonical: the
// bytes AppendBinary writes for the file DecodeBinary reads from them.
// A canonical payload is its own re-encoding, so whoever holds one needs
// neither the decoded tree nor a second encoding of it.
//
// The scan reads with the decoder's own primitives and bounds and
// builds no node: each element is read into a small scratch value (a
// rank list, one reused histogram) whose canonical encoding is compared
// with the bytes it was read from, and what the encoder derives rather
// than reads (the site table's order and metadata, the retired ranks'
// order, the flags) is checked against what the decoded file would
// carry.

import (
	"bytes"
	"fmt"
	"math"
	"slices"

	"chameleon/internal/ranklist"
	"chameleon/internal/sig"
	"chameleon/internal/stats"
)

// Summary is what the archive records of a trace without holding its
// nodes.
type Summary struct {
	P         int
	Benchmark string
	Tracer    string
	Clustered bool
	// Sigs are the call-site signatures in site-table order: the order
	// of first use, depth-first.
	Sigs []uint64
	// DynamicEvents and NodeCount are those of the file's nodes.
	DynamicEvents uint64
	NodeCount     int
}

// Summarize summarizes a decoded file: what ScanCanonical reports of
// the file's canonical encoding.
func Summarize(f *File) Summary {
	sites := f.SiteTable()
	sigs := make([]uint64, len(sites))
	for i, s := range sites {
		sigs[i] = s.Sig
	}
	return Summary{
		P:             f.P,
		Benchmark:     f.Benchmark,
		Tracer:        f.Tracer,
		Clustered:     f.Clustered,
		Sigs:          sigs,
		DynamicEvents: DynamicEvents(f.Nodes),
		NodeCount:     NodeCount(f.Nodes),
	}
}

// ScanCanonical summarizes b in one pass over its bytes. It reports true
// only when DecodeBinary(b) succeeds and AppendBinary of the result
// equals b byte for byte; JSON, version 1, overlong varints, a site
// table out of first-use order, rank lists or histograms not in the
// form the encoder writes, and trailing bytes all report false. Like
// the decoder, it interns the site table into sig.Sites.
func ScanCanonical(b []byte) (Summary, bool) {
	if len(b) < len(binaryMagicV2) || [8]byte(b) != binaryMagicV2 {
		return Summary{}, false
	}
	s := scanner{decoder: decoder{
		b:      b,
		off:    len(binaryMagicV2),
		nodes:  uint64(len(b)) / minNodeBytes,
		spills: uint64(len(b)) / minSpillBytes,
		strict: true,
	}}
	sum := s.file()
	if s.err != nil || s.off != len(b) {
		return Summary{}, false
	}
	return sum, true
}

// scanner is a decoder that keeps, of everything it reads, only what a
// Summary holds and what the next element is checked against.
type scanner struct {
	decoder
	sigs    []uint64        // the site table's signatures
	used    uint64          // site-table entries referenced so far
	count   int             // nodes read so far
	hist    stats.Histogram // scratch: the histogram being checked
	scratch []byte          // scratch: an element's canonical encoding
}

func (s *scanner) file() Summary {
	var sum Summary
	sum.P = int(s.uvarint())
	if s.err == nil {
		if err := checkRankCount(sum.P); err != nil {
			s.fail(err)
		}
	}
	flags := s.byte()
	if flags&^7 != 0 {
		s.fail(errNotCanonical)
	}
	sum.Clustered = flags&1 != 0
	sum.Benchmark = s.str()
	sum.Tracer = s.str()
	s.siteTable()
	sum.Sigs = s.sigs
	sum.DynamicEvents = s.seq(0)
	sum.NodeCount = s.count
	if s.used != uint64(len(s.sigs)) {
		s.fail(errNotCanonical) // an entry no leaf uses
	}
	if flags&4 != 0 {
		s.retired(sum.P)
	}
	return sum
}

// siteTable interns the table as the decoder does and checks that each
// entry carries the metadata the encoder would write for it: the
// metadata the interned site resolves to. A signature may appear once.
func (s *scanner) siteTable() {
	n := s.uvarint()
	if s.err != nil || n > 1<<20 || n > s.left()/minSiteBytes {
		s.fail(fmt.Errorf("trace: site table too large"))
		return
	}
	s.sigs = make([]uint64, 0, n)
	for i := uint64(0); i < n && s.err == nil; i++ {
		info := sig.SiteInfo{ID: uint32(i), Sig: s.uvarint(), Func: s.str(), File: s.str()}
		line := s.varint()
		info.Line = int(line)
		if s.err != nil {
			return
		}
		// collectSites: the metadata of the leaf's interned site, if it
		// resolves to this signature, else none.
		ri, ok := sig.Sites.Resolve(sig.Sites.InternSigMeta(info))
		if !ok || ri.Sig != info.Sig {
			ri = sig.SiteInfo{}
		}
		if int64(info.Line) != line || ri.Func != info.Func || ri.File != info.File || ri.Line != info.Line {
			s.fail(errNotCanonical)
			return
		}
		s.sigs = append(s.sigs, info.Sig)
	}
	sorted := slices.Clone(s.sigs)
	slices.Sort(sorted)
	if len(slices.Compact(sorted)) != len(s.sigs) {
		s.fail(errNotCanonical) // the encoder writes one entry per signature
	}
}

// seq checks one node sequence and returns the dynamic events it
// represents, with DynamicEvents' arithmetic.
func (s *scanner) seq(depth int) uint64 {
	if depth > maxBinaryDepth {
		s.fail(fmt.Errorf("trace: nesting too deep"))
		return 0
	}
	n := s.uvarint()
	if s.err != nil || n > 1<<24 || n > s.nodes || n > s.left()/minNodeBytes {
		s.fail(fmt.Errorf("trace: node count too large"))
		return 0
	}
	s.nodes -= n
	s.count += int(n)
	var events uint64
	for i := uint64(0); i < n && s.err == nil; i++ {
		switch s.byte() {
		case tagLoop:
			iters := s.uvarint()
			s.histogram()
			events += iters * s.seq(depth+1)
		case tagLeaf:
			s.leaf()
			events++
		default:
			s.fail(fmt.Errorf("trace: unknown node tag"))
		}
	}
	return events
}

func (s *scanner) leaf() {
	if s.uvarint() > math.MaxUint8 { // the decoder truncates to an OpCode
		s.fail(errNotCanonical)
	}
	idx := s.uvarint()
	switch {
	case s.err != nil:
		return
	case idx >= uint64(len(s.sigs)):
		s.fail(fmt.Errorf("trace: site index %d out of range", idx))
	case idx > s.used: // the encoder numbers sites in order of first use
		s.fail(errNotCanonical)
	case idx == s.used:
		s.used++
	}
	if c := s.varint(); int64(int32(c)) != c { // a CommID
		s.fail(errNotCanonical)
	}
	s.intField() // tag
	s.intField() // bytes
	s.endpoint()
	s.endpoint()
	s.rankList()
	s.histogram()
}

// intField reads a varint the decoder keeps in an int.
func (s *scanner) intField() {
	if v := s.varint(); int64(int(v)) != v {
		s.fail(errNotCanonical)
	}
}

func (s *scanner) endpoint() {
	if k := EPKind(s.byte()); k == EPRelative || k == EPAbsolute {
		s.intField()
	}
}

// rankList checks one leaf's rank list the first time its bytes appear:
// the decoder's bounds, then that the bytes are the encoding of the
// normal form the decoder holds. A repeat is the bytes already checked.
func (s *scanner) rankList() {
	start := s.off
	s.skipRanks()
	if s.err != nil {
		return
	}
	if _, ok := s.ranks[string(s.b[start:s.off])]; ok {
		return
	}
	end := s.off
	s.off = start
	l := s.ranksChecked()
	if s.err != nil {
		return
	}
	s.scratch = appendRanks(s.scratch[:0], l)
	if !bytes.Equal(s.scratch, s.b[start:end]) {
		s.fail(errNotCanonical)
		return
	}
	if s.ranks == nil {
		s.ranks = make(map[string]ranklist.List)
	}
	s.ranks[string(s.b[start:end])] = l
}

// histogram restores an encoded histogram into the scratch one, as the
// decoder restores it into its slab, and checks that it re-encodes to
// the same bytes.
func (s *scanner) histogram() {
	start := s.off
	count := s.uvarint()
	if count == 0 {
		return
	}
	h := &s.hist
	h.Reset()
	min := s.varint()
	max := s.varint()
	mean := math.Float64frombits(s.uvarint())
	nonzero := s.uvarint()
	if nonzero > 64 {
		s.fail(fmt.Errorf("trace: histogram buckets out of range"))
		return
	}
	if nonzero >= 3 {
		if s.spills == 0 {
			s.fail(fmt.Errorf("trace: more histogram buckets than the input holds"))
			return
		}
		s.spills--
	}
	for i := uint64(0); i < nonzero && s.err == nil; i++ {
		idx := s.uvarint()
		c := s.uvarint()
		if idx < 64 {
			h.SetBucket(int(idx), c)
		}
	}
	if s.err != nil {
		return
	}
	h.Restore(min, max, mean, count)
	s.scratch = appendHist(s.scratch[:0], h)
	if !bytes.Equal(s.scratch, s.b[start:s.off]) {
		s.fail(errNotCanonical)
	}
}

// retired checks the retired section: the decoder's bounds, and the
// sorted, duplicate-free, non-empty list the encoder writes.
func (s *scanner) retired(p int) {
	n := s.uvarint()
	if s.err != nil {
		return
	}
	if n > uint64(p) || n > s.left() {
		s.fail(fmt.Errorf("trace: retired count %d out of range", n))
		return
	}
	if n == 0 {
		s.fail(errNotCanonical)
		return
	}
	prev := int64(-1)
	for i := uint64(0); i < n && s.err == nil; i++ {
		rk := s.varint()
		switch {
		case s.err != nil:
		case rk < 0 || rk >= int64(p):
			s.fail(fmt.Errorf("trace: retired rank %d out of range", rk))
		case rk <= prev:
			s.fail(errNotCanonical)
		}
		prev = rk
	}
}
