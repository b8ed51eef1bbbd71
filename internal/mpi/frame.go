package mpi

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"chameleon/internal/vtime"
)

// TCP frame layout. Every frame on a fleet connection (link.go) is a
// uvarint length prefix followed by a body; the body's first byte
// selects the kind. Data frames carry one point-to-point message in
// binary varints (the hot path); control frames carry a small JSON
// document (rendezvous, bound sweeps, leaving, abort — the cold paths:
// about a dozen documents per member against ~10^5 data frames on the
// harness's fleet workload, so their encoding cost is noise).
//
//	frame    := uvarint(len(body)) body
//	body     := kindData  dest comm source tag bytes arrive origin seq sendVT payload
//	          | kindCtl   json
//
// All numeric header fields are unsigned varints: the runtime never
// sends negative ranks, tags, sizes, or virtual times (wildcards are
// receive-side patterns, not message attributes). sendVT/origin/seq are
// the piggybacked causal span context (PR-3) so cross-machine edges
// and wave detection keep working; a zero seq means causal capture was
// off at the sender.
const (
	kindData byte = 1
	kindCtl  byte = 2

	// maxFrameBody bounds a frame body so a corrupt or hostile length
	// prefix cannot drive an arbitrary allocation.
	maxFrameBody = 64 << 20
)

// appendDataFrame serializes (dest, msg) as a data-frame body onto dst
// (no length prefix — the link adds it); into a buffer with room it
// allocates nothing.
func appendDataFrame(dst []byte, dest int, msg message) ([]byte, error) {
	if dest < 0 || msg.source < 0 || msg.tag < 0 || msg.bytes < 0 ||
		msg.comm < 0 || msg.arrive < 0 || msg.origin < 0 || msg.sendVT < 0 {
		return nil, fmt.Errorf("mpi: unencodable message header (dest=%d src=%d tag=%d comm=%d)",
			dest, msg.source, msg.tag, msg.comm)
	}
	dst = append(dst, kindData)
	dst = binary.AppendUvarint(dst, uint64(dest))
	dst = binary.AppendUvarint(dst, uint64(msg.comm))
	dst = binary.AppendUvarint(dst, uint64(msg.source))
	dst = binary.AppendUvarint(dst, uint64(msg.tag))
	dst = binary.AppendUvarint(dst, uint64(msg.bytes))
	dst = binary.AppendUvarint(dst, uint64(msg.arrive))
	dst = binary.AppendUvarint(dst, uint64(msg.origin))
	dst = binary.AppendUvarint(dst, msg.seq)
	dst = binary.AppendUvarint(dst, uint64(msg.sendVT))
	return appendValue(dst, &msg)
}

// decodeDataFrame parses a data-frame body (including its kind byte)
// back into (dest, message). The message does not alias body, which
// the link's reader overwrites with the next frame. It never panics on
// malformed input: every varint and length is bounds-checked, and
// trailing garbage is an error (FuzzFrameDecode locks both in).
func decodeDataFrame(body []byte) (dest int, msg message, err error) {
	if len(body) == 0 || body[0] != kindData {
		return 0, message{}, fmt.Errorf("mpi: not a data frame")
	}
	b := body[1:]
	var fields [9]uint64
	for i := range fields {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, message{}, fmt.Errorf("mpi: truncated data frame header (field %d)", i)
		}
		fields[i] = v
		b = b[n:]
	}
	const maxRank = 1 << 24 // far above any plausible world size
	if fields[0] > maxRank || fields[2] > maxRank || fields[6] > maxRank {
		return 0, message{}, fmt.Errorf("mpi: data frame rank out of range")
	}
	if fields[1] > 1<<31 {
		return 0, message{}, fmt.Errorf("mpi: data frame comm out of range")
	}
	if fields[3] > 1<<62 || fields[4] > 1<<40 || fields[5] > 1<<62 || fields[8] > 1<<62 {
		return 0, message{}, fmt.Errorf("mpi: data frame field out of range")
	}
	msg = message{
		comm:   CommID(fields[1]),
		source: int(fields[2]),
		tag:    int(fields[3]),
		bytes:  int(fields[4]),
		arrive: vtime.Time(fields[5]),
		origin: int(fields[6]),
		seq:    fields[7],
		sendVT: vtime.Time(fields[8]),
	}
	rest, err := decodeValue(b, &msg)
	if err != nil {
		return 0, message{}, err
	}
	if len(rest) != 0 {
		return 0, message{}, fmt.Errorf("mpi: %d trailing bytes after data frame", len(rest))
	}
	return int(fields[0]), msg, nil
}

// memberSpec is one fleet member's slot in the roster.
type memberSpec struct {
	Lo   int    `json:"lo"`
	Hi   int    `json:"hi"`
	Addr string `json:"addr"`
}

// ctlMsg is the transport's one control document: every kindCtl frame,
// on mesh and rendezvous connections alike, carries it. One struct with
// optional fields keeps the control plane to a single encode and decode
// path, so the frame-size cap and the fuzzer cover the join port too.
// T selects the document type; docs/ARCHITECTURE.md (Layer 6) tabulates
// who sends and who answers each.
type ctlMsg struct {
	T string `json:"t"`
	// hello (mesh): the dialing member's index
	Member int `json:"member,omitempty"`
	// breq / bresp (mesh)
	Req      uint64   `json:"req,omitempty"`
	HasBound bool     `json:"hasBound,omitempty"`
	Bound    int64    `json:"bound,omitempty"`
	Gen      uint64   `json:"gen,omitempty"`
	Sent     []uint64 `json:"sent,omitempty"`
	Recvd    []uint64 `json:"recvd,omitempty"`
	// register
	Lo   int    `json:"lo,omitempty"`
	Hi   int    `json:"hi,omitempty"`
	P    int    `json:"p,omitempty"`
	Addr string `json:"addr,omitempty"`
	FP   string `json:"fp,omitempty"`
	// roster
	Session string       `json:"session,omitempty"`
	Members []memberSpec `json:"members,omitempty"`
	// alloc / allocr
	N    int   `json:"n,omitempty"`
	Base int64 `json:"base,omitempty"`
	// result / leaving / final
	Ranks    []int              `json:"ranks,omitempty"`
	Clocks   []int64            `json:"clocks,omitempty"`
	Ledgers  [][]vtime.Duration `json:"ledgers,omitempty"`
	Departed []int              `json:"departed,omitempty"`
	// final: indices of the members that announced "leaving"
	Left []int `json:"left,omitempty"`
	// err / abort
	Msg string `json:"msg,omitempty"`
}

// appendCtlFrame serializes a control body onto dst.
func appendCtlFrame(dst []byte, m *ctlMsg) ([]byte, error) {
	data, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	dst = append(dst, kindCtl)
	return append(dst, data...), nil
}

// decodeCtlFrame parses a control-frame body (including its kind byte).
func decodeCtlFrame(body []byte) (*ctlMsg, error) {
	if len(body) == 0 || body[0] != kindCtl {
		return nil, fmt.Errorf("mpi: not a control frame")
	}
	var m ctlMsg
	if err := json.Unmarshal(body[1:], &m); err != nil {
		return nil, fmt.Errorf("mpi: bad control frame: %w", err)
	}
	if m.T == "" {
		return nil, fmt.Errorf("mpi: control frame without type")
	}
	return &m, nil
}

// decodeFrame dispatches a frame body to the data or control decoder;
// it is the single entry point the reader loop (and the fuzzer) uses.
func decodeFrame(body []byte) (dest int, msg message, ctl *ctlMsg, err error) {
	if len(body) == 0 {
		return 0, message{}, nil, fmt.Errorf("mpi: empty frame")
	}
	switch body[0] {
	case kindData:
		dest, msg, err = decodeDataFrame(body)
		return dest, msg, nil, err
	case kindCtl:
		ctl, err = decodeCtlFrame(body)
		return 0, message{}, ctl, err
	}
	return 0, message{}, nil, fmt.Errorf("mpi: unknown frame kind %d", body[0])
}
