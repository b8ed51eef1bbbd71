package trace

// ScanCanonical reads a CHAMTRC2 payload for what describing it takes
// and, in the same pass, decides whether the payload is canonical: the
// bytes AppendBinary writes for the file DecodeBinary reads from them.
// A canonical payload is its own re-encoding, so whoever holds one needs
// neither the decoded tree nor a second encoding of it.
//
// The scan is the walker of Walk, strict, under a visitor that keeps only
// what a Summary holds: each element is read into scratch, a rank list
// is checked to be in normal form without expanding it, a histogram is
// re-encoded and compared with the bytes it was read from, and what the
// encoder derives rather than reads (the site table's order and
// uniqueness, the retired ranks' order, the flags) is checked against
// what the decoded file would carry.

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
// the decoder, it interns nothing into sig.Sites.
func ScanCanonical(b []byte) (Summary, bool) {
	if len(b) < len(binaryMagicV2) || [8]byte(b) != binaryMagicV2 {
		return Summary{}, false
	}
	var s summarizer
	w := walker{v: &s, strict: true}
	if w.walk(b) != nil {
		return Summary{}, false
	}
	s.sum.Sigs = make([]uint64, len(w.sites))
	for i, site := range w.sites {
		s.sum.Sigs[i] = uint64(site)
	}
	return s.sum, true
}

// summarizer is the scan's visitor: the header, the node count, and the
// dynamic events with DynamicEvents' arithmetic (each leaf weighted by
// its enclosing loops' Iters, not their MeanIters).
type summarizer struct {
	sum   Summary
	iters []uint64 // [d]: the Iters product above depth d
}

func (s *summarizer) Header(h Header) {
	s.sum.P, s.sum.Benchmark, s.sum.Tracer, s.sum.Clustered = h.P, h.Benchmark, h.Tracer, h.Clustered
	s.iters = append(s.iters, 1)
}

func (s *summarizer) EnterLoop(n *Node, c Cursor) bool {
	s.sum.NodeCount++
	s.iters = append(s.iters[:c.Depth+1], s.iters[c.Depth]*n.Iters)
	return true
}

func (s *summarizer) LeaveLoop(*Node, Cursor) {}

func (s *summarizer) Leaf(_ *Node, c Cursor) {
	s.sum.NodeCount++
	s.sum.DynamicEvents += s.iters[c.Depth]
}
