package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Event is one structured journal record. Kind is always set; the other
// fields are populated as relevant and omitted from the JSON otherwise.
// VT is the emitting rank's virtual clock in nanoseconds; Marker is the
// 1-based marker call index on the emitting rank (0 when outside marker
// processing).
type Event struct {
	Kind   string `json:"kind"`
	Rank   int    `json:"rank"`
	VT     int64  `json:"vt_ns"`
	Marker int    `json:"marker,omitempty"`
	// From/To are transition-graph states for kind "transition".
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	// Votes is the Algorithm 1 Reduce+Bcast mismatch sum (kind "vote").
	// It is a pointer so a unanimous "no mismatch" vote (0) still
	// serializes: omitempty would otherwise make Votes=0 events
	// indistinguishable from non-vote events in the journal. Use
	// VoteCount to read it.
	Votes *uint64 `json:"votes,omitempty"`
	// Leads and K describe a cluster formation (kind "cluster").
	Leads []int `json:"leads,omitempty"`
	K     int   `json:"k,omitempty"`
	// Round disambiguates flush/merge rounds.
	Round int `json:"round,omitempty"`
	// Count and Bytes carry kind-specific magnitudes (events in a
	// window, compares in a merge, bytes flushed, ...).
	Count uint64 `json:"count,omitempty"`
	Bytes int64  `json:"bytes,omitempty"`
	// Note qualifies the event (e.g. a flush's cause).
	Note string `json:"note,omitempty"`
}

// Vote wraps a mismatch sum for Event.Votes (so KindVote emitters can
// set the field inline).
func Vote(v uint64) *uint64 { return &v }

// VoteCount returns the vote mismatch sum and whether the event carried
// one (true exactly for well-formed KindVote events).
func (ev *Event) VoteCount() (uint64, bool) {
	if ev.Votes == nil {
		return 0, false
	}
	return *ev.Votes, true
}

// Journal event kinds emitted by the instrumented stack.
const (
	KindTransition = "transition"    // transition-graph step (rank 0)
	KindVote       = "vote"          // Algorithm 1 Reduce+Bcast result (rank 0)
	KindCluster    = "cluster"       // cluster formation: lead set + K (rank 0)
	KindLead       = "lead"          // this rank was elected lead (per rank)
	KindFlush      = "flush"         // lead partials folded into the online trace
	KindMerge      = "merge"         // one pairwise radix-tree merge step
	KindFinalize   = "finalize"      // per-rank end-of-run totals
	KindFault      = "fault"         // injected fault fired (crash-stop rank)
	KindFailover   = "lead_failover" // dead lead replaced / cluster retired (rank 0)
)

// Flush causes recorded in Event.Note.
const (
	FlushInitial     = "initial"      // first clustering (AT -> C)
	FlushPhaseChange = "phase-change" // Call-Path mismatch while leading
	FlushFinal       = "final"        // MPI_Finalize
	FlushFailover    = "failover"     // lead died; survivors flush promptly
)

// Journal is a concurrency-safe JSONL event sink, optionally keeping a
// bounded in-memory ring of the most recent events so a live telemetry
// shipper can stream the tail without re-reading the output file. A nil
// *Journal discards events.
type Journal struct {
	mu  sync.Mutex
	w   io.Writer
	enc *json.Encoder
	n   uint64
	err error
	// ring holds the most recent ringCap events; ringBase is the
	// absolute index of ring[0] (events are numbered from 0 in emit
	// order, so ringBase+len(ring) == total events ever ringed).
	ring     []Event
	ringCap  int
	ringBase uint64
}

// NewJournal wraps w (nil returns a disabled journal).
func NewJournal(w io.Writer) *Journal {
	if w == nil {
		return nil
	}
	return &Journal{w: w, enc: json.NewEncoder(w)}
}

// NewJournalRing builds a journal that keeps the most recent `recent`
// events in memory (see Tail) in addition to encoding them to w; w may
// be nil for a ring-only journal (live telemetry without -journal).
func NewJournalRing(w io.Writer, recent int) *Journal {
	if recent <= 0 {
		return NewJournal(w)
	}
	j := &Journal{w: w, ringCap: recent}
	if w != nil {
		j.enc = json.NewEncoder(w)
	}
	return j
}

// Emit appends one event line. Write errors are latched (see Err) so
// hot paths never branch on them.
func (j *Journal) Emit(ev Event) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	if j.enc != nil {
		if err := j.enc.Encode(ev); err != nil {
			j.err = err
			return
		}
	}
	if j.ringCap > 0 {
		if len(j.ring) == j.ringCap {
			// Shift-free eviction: drop the oldest half in one copy so
			// amortized append stays O(1) without a circular index.
			half := j.ringCap / 2
			if half == 0 {
				half = 1
			}
			j.ring = append(j.ring[:0], j.ring[half:]...)
			j.ringBase += uint64(half)
		}
		j.ring = append(j.ring, ev)
	}
	j.n++
}

// Tail returns the ringed events with absolute index >= after, the
// index to pass as the next call's after, and how many events in the
// requested range had already been evicted from the ring. The returned
// slice is freshly allocated.
func (j *Journal) Tail(after uint64) (events []Event, next uint64, dropped uint64) {
	if j == nil {
		return nil, after, 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	end := j.ringBase + uint64(len(j.ring))
	if after < j.ringBase {
		dropped = j.ringBase - after
		after = j.ringBase
	}
	if after >= end {
		return nil, end, dropped
	}
	events = append([]Event(nil), j.ring[after-j.ringBase:]...)
	return events, end, dropped
}

// Events returns how many events were successfully written.
func (j *Journal) Events() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.n
}

// Err returns the first write error, if any.
func (j *Journal) Err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// ReadJournal parses a JSONL journal stream back into events. Blank
// lines are skipped; a refusal names the line it stopped at.
func ReadJournal(r io.Reader) ([]Event, error) { return readJSONL[Event](r, "journal") }

// readJSONL decodes one T per line of a JSONL stream (lines up to
// 16 MB, blank lines skipped). A refusal names the line it stopped at,
// a scanner error (an over-long line, a failed read) included.
func readJSONL[T any](r io.Reader, what string) ([]T, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var out []T
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var v T
		if err := json.Unmarshal(b, &v); err != nil {
			return out, fmt.Errorf("obs: %s line %d: %w", what, line, err)
		}
		out = append(out, v)
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("obs: %s line %d: %w", what, line+1, err)
	}
	return out, nil
}
