package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"sync/atomic"

	"chameleon/internal/vtime"
)

// Span categories used by the instrumented stack. The category becomes
// the Chrome trace event's "cat" field, so Perfetto can filter tracks
// by activity class.
const (
	CatCompute    = "compute"    // application computation
	CatP2P        = "p2p"        // point-to-point communication (incl. blocked wait)
	CatColl       = "collective" // collective communication (incl. blocked wait)
	CatMarker     = "marker"     // marker barrier + Algorithm 1 vote
	CatClustering = "clustering" // Algorithm 2/3 clustering work
	CatTracer     = "tracer"     // tracing-layer work (compression, merging)
)

// Span is one half-open [Start, Start+Dur) interval of virtual time on
// one rank's track.
type Span struct {
	Rank  int
	Name  string
	Cat   string
	Start vtime.Time
	Dur   vtime.Duration
}

// defaultSpanCap bounds per-rank span memory (~48B each, so ~25MB/rank
// at the cap). Excess spans are counted, not stored.
const defaultSpanCap = 1 << 19

// Timeline captures per-rank spans for Chrome trace-event export. Each
// rank's track is written only from that rank's goroutine (the
// simulated runtime's threading model), so appends are unsynchronized;
// cross-rank state is atomic.
type Timeline struct {
	perRank [][]Span
	capPer  int
	dropped atomic.Uint64
}

// NewTimeline sizes a timeline for p ranks.
func NewTimeline(p int) *Timeline {
	if p <= 0 {
		return nil
	}
	return &Timeline{perRank: make([][]Span, p), capPer: defaultSpanCap}
}

// Add records one [start, end) span on rank's track. Zero- and
// negative-length spans are kept only if at least 1ns long after
// clamping (instant events add noise without information here).
func (t *Timeline) Add(rank int, name, cat string, start, end vtime.Time) {
	if t == nil || rank < 0 || rank >= len(t.perRank) || end <= start {
		return
	}
	if len(t.perRank[rank]) >= t.capPer {
		t.dropped.Add(1)
		return
	}
	t.perRank[rank] = append(t.perRank[rank], Span{
		Rank: rank, Name: name, Cat: cat,
		Start: start, Dur: vtime.Duration(end - start),
	})
}

// Dropped returns how many spans were discarded at the per-rank cap.
func (t *Timeline) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Spans returns rank r's recorded track (the live slice; callers must
// not mutate it). It returns nil for out-of-range ranks.
func (t *Timeline) Spans(r int) []Span {
	if t == nil || r < 0 || r >= len(t.perRank) {
		return nil
	}
	return t.perRank[r]
}

// SpanCount returns the total number of stored spans.
func (t *Timeline) SpanCount() int {
	if t == nil {
		return 0
	}
	n := 0
	for _, s := range t.perRank {
		n += len(s)
	}
	return n
}

// WriteChromeTraceFlows renders the timeline in the Chrome trace-event
// JSON format (the object form, with a traceEvents array of "X"
// complete events), which chrome://tracing and Perfetto load directly.
// Virtual nanoseconds map to trace microseconds with sub-microsecond
// precision preserved as decimals. Each rank becomes one thread track
// of pid 0. With a causal store, every edge whose receiver actually
// waited (WaitVT > 0) also becomes an "s"/"f" flow pair, so Perfetto
// renders an arrow from the delaying send span on the origin rank's
// track to the receive span it delayed; c may be nil. The
// trace always carries a "chameleon_spans_dropped" metadata event (and
// "chameleon_edges_dropped" when a causal store is given), so capped
// capture is visible in the artifact itself, never silently truncated.
func (t *Timeline) WriteChromeTraceFlows(w io.Writer, c *Causal) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	first := true
	emit := func(s string) {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		bw.WriteString(s)
	}
	if t != nil {
		for r := range t.perRank {
			emit(fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":0,"tid":%d,"args":{"name":"rank %d"}}`, r, r))
		}
		for r := range t.perRank {
			for _, s := range t.perRank[r] {
				emit(fmt.Sprintf(`{"name":%s,"cat":%s,"ph":"X","ts":%s,"dur":%s,"pid":0,"tid":%d}`,
					strconv.Quote(s.Name), strconv.Quote(s.Cat),
					usec(int64(s.Start)), usec(int64(s.Dur)), r))
			}
		}
	}
	emit(fmt.Sprintf(`{"name":"chameleon_spans_dropped","ph":"M","pid":0,"tid":0,"args":{"dropped":%d}}`, t.Dropped()))
	if c != nil {
		emit(fmt.Sprintf(`{"name":"chameleon_edges_dropped","ph":"M","pid":0,"tid":0,"args":{"dropped":%d}}`, c.Dropped()))
		for _, row := range c.perRank {
			for i := range row {
				e := &row[i]
				if e.WaitVT <= 0 {
					continue
				}
				name := e.Ctx
				if name == "" {
					name = "p2p"
				}
				id := uint64(e.From)<<32 | e.Seq&0xffffffff
				emit(fmt.Sprintf(`{"name":%s,"cat":"flow","ph":"s","id":%d,"ts":%s,"pid":0,"tid":%d}`,
					strconv.Quote(name), id, usec(e.SendVT), e.From))
				emit(fmt.Sprintf(`{"name":%s,"cat":"flow","ph":"f","bp":"e","id":%d,"ts":%s,"pid":0,"tid":%d}`,
					strconv.Quote(name), id, usec(e.ArriveVT), e.To))
			}
		}
	}
	if _, err := bw.WriteString("]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// usec formats nanoseconds as decimal microseconds without float
// rounding artifacts.
func usec(ns int64) string {
	q, r := ns/1000, ns%1000
	if r == 0 {
		return strconv.FormatInt(q, 10)
	}
	return fmt.Sprintf("%d.%03d", q, r)
}
