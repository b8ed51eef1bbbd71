package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync/atomic"
)

// Edge is one matched send/recv pair: the causal link between the moment
// a message left its origin rank and the moment the receiving rank's
// matching receive completed. The MPI runtime piggybacks (From, Seq,
// SendVT) on every message — point-to-point traffic and every hop of the
// tree collectives alike — and the receiver records the full edge at
// match time, so edges need no post-hoc join.
//
// All times are virtual nanoseconds. WaitVT is the receiver-side blocked
// time attributable to the sender: how long the receiver sat in the
// matching receive before the message arrived (zero when the message was
// already waiting in the mailbox). Ctx/CtxSeq name the collective
// instance the *receiver* was executing when the match completed ("vote",
// "merge:phase-change", "alltoall", ...), empty for plain point-to-point
// application traffic.
type Edge struct {
	From     int    `json:"from"`
	To       int    `json:"to"`
	Seq      uint64 `json:"seq"`
	SendVT   int64  `json:"send_ns"`
	ArriveVT int64  `json:"arrive_ns"`
	RecvVT   int64  `json:"recv_ns"`
	WaitVT   int64  `json:"wait_ns,omitempty"`
	Bytes    int    `json:"bytes,omitempty"`
	Comm     int32  `json:"comm,omitempty"`
	Tag      int    `json:"tag,omitempty"`
	Ctx      string `json:"ctx,omitempty"`
	CtxSeq   int    `json:"ctx_seq,omitempty"`
}

// defaultEdgeCap bounds per-rank edge memory (~120B each, so ~60MB/rank
// at the cap). Excess edges are counted, not stored, mirroring the
// Timeline span cap.
const defaultEdgeCap = 1 << 19

// Causal is the per-rank causal edge store. Each rank's row is written
// only from that rank's own goroutine — the receiver records the edge,
// and edges are always appended to the receiver's row — so appends are
// unsynchronized; the drop counter is the only cross-rank state. A nil
// *Causal discards edges.
type Causal struct {
	perRank [][]Edge
	capPer  int
	dropped atomic.Uint64
}

// NewCausal sizes a causal store for p ranks.
func NewCausal(p int) *Causal {
	if p <= 0 {
		return nil
	}
	return &Causal{perRank: make([][]Edge, p), capPer: defaultEdgeCap}
}

// Record appends one edge to the receiving rank's row. Must be called
// from rank e.To's goroutine (the receiver records its own matches).
func (c *Causal) Record(e Edge) {
	if c == nil || e.To < 0 || e.To >= len(c.perRank) {
		return
	}
	if len(c.perRank[e.To]) >= c.capPer {
		c.dropped.Add(1)
		return
	}
	c.perRank[e.To] = append(c.perRank[e.To], e)
}

// Dropped returns how many edges were discarded at the per-rank cap.
func (c *Causal) Dropped() uint64 {
	if c == nil {
		return 0
	}
	return c.dropped.Load()
}

// EdgeCount returns the total number of stored edges.
func (c *Causal) EdgeCount() int {
	if c == nil {
		return 0
	}
	n := 0
	for _, row := range c.perRank {
		n += len(row)
	}
	return n
}

// Edges concatenates every rank's row (receiver program order within a
// rank, rank order across rows) — a deterministic ordering for a
// deterministic virtual-time run.
func (c *Causal) Edges() []Edge {
	if c == nil {
		return nil
	}
	out := make([]Edge, 0, c.EdgeCount())
	for _, row := range c.perRank {
		out = append(out, row...)
	}
	return out
}

// WriteEdges streams the store as JSONL, one edge per line (the format
// chamrun -causal writes and chamtop -critical reads back).
func (c *Causal) WriteEdges(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	enc := json.NewEncoder(bw)
	if c != nil {
		for _, row := range c.perRank {
			for i := range row {
				if err := enc.Encode(&row[i]); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// ReadEdges parses a JSONL edge stream back into edges. Blank lines are
// skipped; a refusal names the line it stopped at.
func ReadEdges(r io.Reader) ([]Edge, error) { return readJSONL[Edge](r, "edges") }
