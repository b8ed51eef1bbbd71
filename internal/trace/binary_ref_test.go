package trace

// The binary codec exactly as it stood before it decoded straight from
// the byte slice (bufio + io.ByteReader, every rank list expanded and
// re-compacted, one allocation per node and per histogram), kept here —
// only in a test file — as the oracle the rewrite answers to: on any
// input both decoders must accept or reject alike and decode to files
// that re-encode to the same bytes, and both encoders must write the
// same bytes (binary_oracle_test.go). Identifiers carry a ref prefix;
// the bodies are otherwise the pre-change code, verbatim, but for the
// site table, changed since so that labels come from the bytes: the
// reader keeps the table as written and interns nothing into sig.Sites
// (decoded leaves carry sig.NoSite), and the writer labels a site with
// the file's first Sites entry for its signature, or, lacking one, with
// what the leaf's live site resolves to.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"

	"chameleon/internal/mpi"
	"chameleon/internal/ranklist"
	"chameleon/internal/sig"
	"chameleon/internal/stats"
)

var (
	refMagicV1 = [8]byte{'C', 'H', 'A', 'M', 'T', 'R', 'C', '1'}
	refMagicV2 = [8]byte{'C', 'H', 'A', 'M', 'T', 'R', 'C', '2'}
)

const (
	refTagLeaf byte = 0x01
	refTagLoop byte = 0x02
)

type refWriter struct {
	w   *bufio.Writer
	buf [binary.MaxVarintLen64]byte
	err error
}

func (b *refWriter) uvarint(v uint64) {
	if b.err != nil {
		return
	}
	n := binary.PutUvarint(b.buf[:], v)
	_, b.err = b.w.Write(b.buf[:n])
}

func (b *refWriter) varint(v int64) {
	if b.err != nil {
		return
	}
	n := binary.PutVarint(b.buf[:], v)
	_, b.err = b.w.Write(b.buf[:n])
}

func (b *refWriter) byte(v byte) {
	if b.err != nil {
		return
	}
	b.err = b.w.WriteByte(v)
}

func (b *refWriter) str(s string) {
	b.uvarint(uint64(len(s)))
	if b.err != nil {
		return
	}
	_, b.err = b.w.WriteString(s)
}

type refReader struct {
	r   *bufio.Reader
	err error
}

func (b *refReader) uvarint() uint64 {
	if b.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(b.r)
	b.err = err
	return v
}

func (b *refReader) varint() int64 {
	if b.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(b.r)
	b.err = err
	return v
}

func (b *refReader) byte() byte {
	if b.err != nil {
		return 0
	}
	v, err := b.r.ReadByte()
	b.err = err
	return v
}

func (b *refReader) str() string {
	n := b.uvarint()
	if b.err != nil || n > 1<<20 {
		if b.err == nil {
			b.err = fmt.Errorf("trace: string too long")
		}
		return ""
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(b.r, buf); err != nil {
		b.err = err
		return ""
	}
	return string(buf)
}

// WriteBinary serializes the trace file in the compact binary format
// (version 2: site-indexed leaves behind a file-local call-site table).
func refWriteBinary(f *File, w io.Writer) error {
	bw := &refWriter{w: bufio.NewWriter(w)}
	if _, err := bw.w.Write(refMagicV2[:]); err != nil {
		return err
	}
	bw.uvarint(uint64(f.P))
	retired := refCanonicalRetired(f.Retired)
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
	bw.byte(flags)
	bw.str(f.Benchmark)
	bw.str(f.Tracer)
	index := make(map[uint64]int)
	given := make(map[uint64]sig.SiteInfo, len(f.Sites))
	for i := len(f.Sites) - 1; i >= 0; i-- {
		given[f.Sites[i].Sig] = f.Sites[i]
	}
	sites := refCollectSites(f.Nodes, index, given, nil)
	bw.uvarint(uint64(len(sites)))
	for _, s := range sites {
		bw.uvarint(s.Sig)
		bw.str(s.Func)
		bw.str(s.File)
		bw.varint(int64(s.Line))
	}
	refWriteSeq(bw, f.Nodes, index)
	if len(retired) > 0 {
		bw.uvarint(uint64(len(retired)))
		for _, rk := range retired {
			bw.varint(int64(rk))
		}
	}
	if bw.err != nil {
		return bw.err
	}
	return bw.w.Flush()
}

// refCanonicalRetired returns the retired list sorted and deduplicated —
// the encoding must be a function of the set, not of crash order, or
// identical runs would hash to different content addresses.
func refCanonicalRetired(retired []int) []int {
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

// refCollectSites walks the sequence and assigns every distinct call-site
// signature a dense file-local index in first-appearance order, taking
// function/file/line metadata from given (the file's own table) or,
// for a signature it lacks, through the process intern table when the
// leaf carries an interned SiteID.
func refCollectSites(seq []*Node, index map[uint64]int, given map[uint64]sig.SiteInfo, sites []sig.SiteInfo) []sig.SiteInfo {
	for _, n := range seq {
		if n.IsLoop() {
			sites = refCollectSites(n.Body, index, given, sites)
			continue
		}
		k := uint64(n.Ev.Stack)
		if _, ok := index[k]; ok {
			continue
		}
		info := sig.SiteInfo{ID: uint32(len(sites)), Sig: k}
		if g, ok := given[k]; ok {
			info.Func, info.File, info.Line = g.Func, g.File, g.Line
		} else if n.Ev.Site != sig.NoSite {
			if ri, ok := sig.Sites.Resolve(n.Ev.Site); ok && ri.Sig == k {
				info.Func, info.File, info.Line = ri.Func, ri.File, ri.Line
			}
		}
		index[k] = len(sites)
		sites = append(sites, info)
	}
	return sites
}

func refWriteSeq(bw *refWriter, seq []*Node, index map[uint64]int) {
	bw.uvarint(uint64(len(seq)))
	for _, n := range seq {
		refWriteNode(bw, n, index)
	}
}

func refWriteNode(bw *refWriter, n *Node, index map[uint64]int) {
	if n.IsLoop() {
		bw.byte(refTagLoop)
		bw.uvarint(n.Iters)
		refWriteHist(bw, n.ItersHist)
		refWriteSeq(bw, n.Body, index)
		return
	}
	bw.byte(refTagLeaf)
	bw.uvarint(uint64(n.Ev.Op))
	bw.uvarint(uint64(index[uint64(n.Ev.Stack)]))
	bw.varint(int64(n.Ev.Comm))
	bw.varint(int64(n.Ev.Tag))
	bw.varint(int64(n.Ev.Bytes))
	refWriteEndpoint(bw, n.Ev.Dest)
	refWriteEndpoint(bw, n.Ev.Src)
	refWriteRanks(bw, n.Ranks)
	refWriteHist(bw, n.Delta)
}

func refWriteEndpoint(bw *refWriter, e Endpoint) {
	bw.byte(byte(e.Kind))
	if e.Kind == EPRelative || e.Kind == EPAbsolute {
		bw.varint(int64(e.Off))
	}
}

func refWriteRanks(bw *refWriter, l ranklist.List) {
	rls := l.Descriptors()
	bw.uvarint(uint64(len(rls)))
	for _, r := range rls {
		bw.varint(int64(r.Start))
		bw.uvarint(uint64(len(r.Dims)))
		for _, d := range r.Dims {
			bw.varint(int64(d.Iters))
			bw.varint(int64(d.Stride))
		}
	}
}

func refWriteHist(bw *refWriter, h *stats.Histogram) {
	if h == nil || h.Count() == 0 {
		bw.uvarint(0)
		return
	}
	bw.uvarint(h.Count())
	bw.varint(h.Min)
	bw.varint(h.Max)
	bw.uvarint(math.Float64bits(float64(h.Mean())))
	nonzero := 0
	h.EachBucket(func(int, uint64) bool {
		nonzero++
		return true
	})
	bw.uvarint(uint64(nonzero))
	h.EachBucket(func(i int, c uint64) bool {
		bw.uvarint(uint64(i))
		bw.uvarint(c)
		return true
	})
}

// refDecodeSites is the deserialized file-local site table: leaf indices
// map through it to stack signatures. nil for version-1 files (leaves
// carry raw signatures).
type refDecodeSites struct {
	sigs []sig.Stack
}

// refReadBinary deserializes a binary trace file (either format version).
func refReadBinary(r io.Reader) (*File, error) {
	br := &refReader{r: bufio.NewReader(r)}
	var magic [8]byte
	if _, err := io.ReadFull(br.r, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: read magic: %w", err)
	}
	var version int
	switch magic {
	case refMagicV1:
		version = 1
	case refMagicV2:
		version = 2
	default:
		return nil, fmt.Errorf("trace: not a binary trace file")
	}
	f := &File{}
	f.P = int(br.uvarint())
	flags := br.byte()
	f.Clustered = flags&1 != 0
	f.Filter = flags&2 != 0
	f.Benchmark = br.str()
	f.Tracer = br.str()
	var sites *refDecodeSites
	if version >= 2 {
		sites = refReadSiteTable(br, f)
	}
	f.Nodes = refReadSeq(br, 0, sites)
	if flags&4 != 0 {
		f.Retired = refReadRetired(br, f.P)
	}
	if br.err != nil {
		return nil, fmt.Errorf("trace: decode binary: %w", br.err)
	}
	if f.P <= 0 {
		return nil, fmt.Errorf("trace: invalid rank count %d", f.P)
	}
	return f, nil
}

// refReadSiteTable decodes the v2 call-site table, recording the
// serializable form on the file.
func refReadSiteTable(br *refReader, f *File) *refDecodeSites {
	n := br.uvarint()
	if br.err != nil || n > 1<<20 {
		if br.err == nil {
			br.err = fmt.Errorf("trace: site table too large")
		}
		return nil
	}
	// Cap the preallocation: n is attacker-controlled in a corrupt
	// file, and each entry consumes at least three bytes of input, so a
	// bogus huge count hits EOF long before the slices grow this large.
	pre := n
	if pre > 4096 {
		pre = 4096
	}
	ds := &refDecodeSites{
		sigs: make([]sig.Stack, 0, pre),
	}
	for i := uint64(0); i < n && br.err == nil; i++ {
		info := sig.SiteInfo{
			ID:   uint32(i),
			Sig:  br.uvarint(),
			Func: br.str(),
			File: br.str(),
			Line: int(br.varint()),
		}
		ds.sigs = append(ds.sigs, sig.Stack(info.Sig))
		f.Sites = append(f.Sites, info)
	}
	return ds
}

const refMaxBinaryDepth = 64

func refReadSeq(br *refReader, depth int, sites *refDecodeSites) []*Node {
	if depth > refMaxBinaryDepth {
		br.err = fmt.Errorf("trace: nesting too deep")
		return nil
	}
	n := br.uvarint()
	if br.err != nil || n > 1<<24 {
		if br.err == nil {
			br.err = fmt.Errorf("trace: node count too large")
		}
		return nil
	}
	// Bound the preallocation: a corrupt count up to 1<<24 would
	// otherwise commit a 128MB slice before the first decode error.
	pre := n
	if pre > 4096 {
		pre = 4096
	}
	seq := make([]*Node, 0, pre)
	for i := uint64(0); i < n && br.err == nil; i++ {
		seq = append(seq, refReadNode(br, depth, sites))
	}
	return seq
}

func refReadNode(br *refReader, depth int, sites *refDecodeSites) *Node {
	switch br.byte() {
	case refTagLoop:
		node := &Node{Iters: br.uvarint()}
		node.ItersHist = refReadHist(br)
		node.Body = refReadSeq(br, depth+1, sites)
		if node.Body == nil {
			node.Body = []*Node{}
		}
		return node
	case refTagLeaf:
		node := &Node{}
		node.Ev.Op = mpi.OpCode(br.uvarint())
		if sites != nil {
			idx := br.uvarint()
			if idx >= uint64(len(sites.sigs)) {
				if br.err == nil {
					br.err = fmt.Errorf("trace: site index %d out of range", idx)
				}
				node.Delta = stats.NewHistogram()
				return node
			}
			node.Ev.Stack = sites.sigs[idx]
		} else {
			node.Ev.Stack = sig.Stack(br.uvarint())
		}
		node.Ev.Comm = mpi.CommID(br.varint())
		node.Ev.Tag = int(br.varint())
		node.Ev.Bytes = int(br.varint())
		node.Ev.Dest = refReadEndpoint(br)
		node.Ev.Src = refReadEndpoint(br)
		node.Ranks = refReadRanks(br)
		node.Delta = refReadHist(br)
		if node.Delta == nil {
			node.Delta = stats.NewHistogram()
		}
		return node
	default:
		if br.err == nil {
			br.err = fmt.Errorf("trace: unknown node tag")
		}
		return &Node{Delta: stats.NewHistogram()}
	}
}

// refReadRetired decodes the optional trailing retired-ranks section. The
// count is bounded by the file's rank count (a retired rank must be a
// world rank), so a corrupt count cannot force a huge allocation.
func refReadRetired(br *refReader, p int) []int {
	n := br.uvarint()
	if br.err != nil {
		return nil
	}
	if p < 0 || n > uint64(p) {
		br.err = fmt.Errorf("trace: retired count %d out of range", n)
		return nil
	}
	// Cap the preallocation: P is attacker-controlled in a corrupt file.
	pre := n
	if pre > 4096 {
		pre = 4096
	}
	out := make([]int, 0, pre)
	for i := uint64(0); i < n && br.err == nil; i++ {
		rk := br.varint()
		if rk < 0 || rk >= int64(p) {
			br.err = fmt.Errorf("trace: retired rank %d out of range", rk)
			return nil
		}
		out = append(out, int(rk))
	}
	return out
}

func refReadEndpoint(br *refReader) Endpoint {
	e := Endpoint{Kind: EPKind(br.byte())}
	if e.Kind == EPRelative || e.Kind == EPAbsolute {
		e.Off = int(br.varint())
	}
	return e
}

func refReadRanks(br *refReader) ranklist.List {
	n := br.uvarint()
	if br.err != nil || n > 1<<20 {
		if br.err == nil {
			br.err = fmt.Errorf("trace: rank list too large")
		}
		return ranklist.List{}
	}
	// maxRankExpansion bounds the total rank count one leaf may decode
	// to: RL.Ranks materializes the cross product of its dimensions, so
	// corrupt iteration counts must be rejected before expansion (a
	// negative Iters would panic the allocator; a huge one would OOM).
	const maxRankExpansion = 1 << 20
	var ranks []int
	total := uint64(0)
	for i := uint64(0); i < n && br.err == nil; i++ {
		start := int(br.varint())
		if start < 0 || start > 1<<30 {
			br.err = fmt.Errorf("trace: rank list start %d out of range", start)
			return ranklist.List{}
		}
		dims := br.uvarint()
		if dims > 8 {
			br.err = fmt.Errorf("trace: rank list dims too large")
			return ranklist.List{}
		}
		rl := ranklist.RL{Start: start}
		size := uint64(1)
		for d := uint64(0); d < dims; d++ {
			iters := br.varint()
			stride := br.varint()
			if iters < 1 || iters > maxRankExpansion ||
				stride < -(1<<30) || stride > 1<<30 {
				if br.err == nil {
					br.err = fmt.Errorf("trace: rank list dimension out of range")
				}
				return ranklist.List{}
			}
			size *= uint64(iters)
			if size > maxRankExpansion {
				br.err = fmt.Errorf("trace: rank list too large")
				return ranklist.List{}
			}
			rl.Dims = append(rl.Dims, ranklist.Dim{
				Iters:  int(iters),
				Stride: int(stride),
			})
		}
		total += size
		if total > maxRankExpansion {
			br.err = fmt.Errorf("trace: rank list too large")
			return ranklist.List{}
		}
		if br.err != nil {
			return ranklist.List{}
		}
		ranks = append(ranks, rl.Ranks()...)
	}
	// The one bound added since: the compacted list's starts meet the
	// start bound, as its re-encoding must.
	l := ranklist.FromRanks(ranks)
	for _, rl := range l.Descriptors() {
		if rl.Start < 0 || rl.Start > 1<<30 {
			br.err = fmt.Errorf("trace: rank list start %d out of range", rl.Start)
			return ranklist.List{}
		}
	}
	return l
}

func refReadHist(br *refReader) *stats.Histogram {
	count := br.uvarint()
	if count == 0 {
		return nil
	}
	h := stats.NewHistogram()
	min := br.varint()
	max := br.varint()
	mean := math.Float64frombits(br.uvarint())
	nonzero := br.uvarint()
	if nonzero > 64 {
		br.err = fmt.Errorf("trace: histogram buckets out of range")
		return h
	}
	for i := uint64(0); i < nonzero && br.err == nil; i++ {
		idx := br.uvarint()
		c := br.uvarint()
		if idx < 64 {
			h.SetBucket(int(idx), c)
		}
	}
	h.Restore(min, max, mean, count)
	return h
}

// refReadAny reads a trace from r in either format (binary v1/v2 or
// JSON), sniffing the magic.
func refReadAny(r io.Reader) (*File, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(8)
	if err == nil && ([8]byte(head) == refMagicV1 || [8]byte(head) == refMagicV2) {
		return refReadBinary(br)
	}
	return Read(br)
}
