// Package trace reproduces ScalaTrace V2's trace representation and its
// two-stage compression:
//
//   - intra-node compression folds each rank's MPI event stream into
//     RSDs/PRSDs — loop nodes over repeated event subsequences — online,
//     as events are recorded (Compressor);
//   - inter-node compression merges per-rank compressed traces into one
//     location-independent global trace by aligning structurally equal
//     nodes and unioning their rank lists (MergeSequences), normally run
//     over a radix tree.
//
// Events carry ScalaTrace's three key encodings: 64-bit stack signatures
// for calling-sequence identification, relative (±c) communication
// end-points, and rank lists for communication groups. Inter-event
// computation times are folded into histograms so repetitive signatures
// with noisy timing still compress.
package trace

import (
	"fmt"

	"chameleon/internal/mpi"
	"chameleon/internal/sig"
)

// EPKind classifies how a communication end-point is encoded.
type EPKind uint8

// End-point encodings.
const (
	// EPNone marks an absent end-point (collectives' peer fields).
	EPNone EPKind = iota
	// EPRelative encodes the peer as a ±c offset from the calling rank —
	// ScalaTrace's location-independent encoding.
	EPRelative
	// EPAbsolute pins the peer to a fixed rank; produced when merging
	// ranks whose offsets differ but whose absolute target agrees (e.g.
	// all workers sending to a master at rank 0).
	EPAbsolute
	// EPReplyToLast marks a send whose destination equals the source of
	// the immediately preceding wildcard receive — the master/worker
	// reply pattern, replayable without knowing the rank a priori.
	EPReplyToLast
	// EPAnySource marks a wildcard receive.
	EPAnySource
)

func (k EPKind) String() string {
	switch k {
	case EPNone:
		return "none"
	case EPRelative:
		return "rel"
	case EPAbsolute:
		return "abs"
	case EPReplyToLast:
		return "reply"
	case EPAnySource:
		return "any"
	}
	return "ep?"
}

// Endpoint is one encoded communication end-point.
type Endpoint struct {
	Kind EPKind
	Off  int // relative offset (EPRelative) or absolute rank (EPAbsolute)
}

// NoEndpoint is the absent end-point.
var NoEndpoint = Endpoint{Kind: EPNone}

// Relative returns a ±c relative end-point.
func Relative(off int) Endpoint { return Endpoint{Kind: EPRelative, Off: off} }

// Absolute returns a fixed-rank end-point.
func Absolute(rank int) Endpoint { return Endpoint{Kind: EPAbsolute, Off: rank} }

// ResolveMod maps the end-point to a concrete rank for the given
// replaying rank, wrapped into [0, p): relative offsets are recorded
// modulo the rank count (torus wrap), and replay and the analyses
// resolve them the same way. ReplyToLast and AnySource must be handled
// by the caller; ResolveMod returns ok=false for them.
func (e Endpoint) ResolveMod(self, p int) (rank int, ok bool) {
	switch e.Kind {
	case EPRelative:
		rank = self + e.Off
	case EPAbsolute:
		rank = e.Off
	default:
		return 0, false
	}
	return ((rank % p) + p) % p, true
}

func (e Endpoint) String() string {
	switch e.Kind {
	case EPRelative:
		return fmt.Sprintf("%+d", e.Off)
	case EPAbsolute:
		return fmt.Sprintf("@%d", e.Off)
	case EPReplyToLast:
		return "reply"
	case EPAnySource:
		return "*"
	}
	return "-"
}

// SigValue returns the value folded into SRC/DEST signatures for this
// end-point: the relative offset for relative encodings, the absolute
// rank biased by nothing for absolute ones, and fixed sentinels for the
// special kinds so they cluster together.
func (e Endpoint) SigValue() (int, bool) {
	switch e.Kind {
	case EPRelative, EPAbsolute:
		return e.Off, true
	case EPReplyToLast:
		return 1 << 20, true
	case EPAnySource:
		return -(1 << 20), true
	}
	return 0, false
}

// Event is the parameter tuple of one MPI event in the trace.
type Event struct {
	Op mpi.OpCode
	// hash is the enclosing Node's structural hash (see Node.rehash),
	// kept in the padding after Op so Node stays in its 144-byte size
	// class. Derived state like Site: Equal and the codecs ignore it.
	hash  uint32
	Stack sig.Stack
	// Site is the interned call-site ID behind Stack (sig.NoSite for
	// events that never passed through the intern table: hand-built test
	// events and decoded ones, whose labels are their File's Sites). It is
	// derived state — Stack == sig.Sites.Signature(Site) whenever set — so
	// it is excluded from equality and from the JSON encoding.
	Site  sig.SiteID `json:"-"`
	Comm  mpi.CommID
	Dest  Endpoint // destination (sends) or root (rooted collectives)
	Src   Endpoint // source (receives)
	Tag   int
	Bytes int
}

// Equal reports exact parameter equality (the intra-node fold criterion:
// "alternating send/receive calls with identical parameters"). Site is
// ignored: it is a cache of Stack's identity, and traces mixing interned
// and uninterned events (e.g. replayed v1 segments) must still fold.
func (e Event) Equal(o Event) bool {
	return e.Op == o.Op && e.Stack == o.Stack && e.Comm == o.Comm &&
		e.Dest == o.Dest && e.Src == o.Src && e.Tag == o.Tag && e.Bytes == o.Bytes
}

// String renders the event compactly.
func (e Event) String() string {
	s := fmt.Sprintf("%s#%016x", e.Op, uint64(e.Stack))
	if e.Dest.Kind != EPNone {
		s += " dst=" + e.Dest.String()
	}
	if e.Src.Kind != EPNone {
		s += " src=" + e.Src.String()
	}
	if e.Bytes != 0 {
		s += fmt.Sprintf(" %dB", e.Bytes)
	}
	return s
}

// MergeEndpoints attempts to combine two end-points of matching events
// recorded by (possibly different) rank sets, following ScalaTrace's
// location-independent encoding rules; absolute targets are normalized
// modulo the rank count p. It reports the merged encoding and whether
// the merge is possible.
func MergeEndpoints(a Endpoint, aMin int, aSingle bool, b Endpoint, bMin int, bSingle bool, p int) (Endpoint, bool) {
	if a == b {
		return a, true
	}
	mod := func(r int) int {
		if p <= 0 {
			return r
		}
		return ((r % p) + p) % p
	}
	if a.Kind == EPRelative && b.Kind == EPRelative {
		// Different offsets can still agree on an absolute target when
		// each side is a single rank.
		if aSingle && bSingle && mod(aMin+a.Off) == mod(bMin+b.Off) {
			return Absolute(mod(aMin + a.Off)), true
		}
		return a, false
	}
	if a.Kind == EPRelative && b.Kind == EPAbsolute {
		if aSingle && mod(aMin+a.Off) == mod(b.Off) {
			return Absolute(mod(b.Off)), true
		}
		return a, false
	}
	if a.Kind == EPAbsolute && b.Kind == EPRelative {
		if bSingle && mod(bMin+b.Off) == mod(a.Off) {
			return Absolute(mod(a.Off)), true
		}
		return a, false
	}
	if a.Kind == EPAbsolute && b.Kind == EPAbsolute && mod(a.Off) == mod(b.Off) {
		return Absolute(mod(a.Off)), true
	}
	return a, false
}
