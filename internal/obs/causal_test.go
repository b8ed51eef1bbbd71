package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestCausalConcurrentPerRank exercises the store's threading model:
// each rank appends only to its own row (the receiver records its
// matches), concurrently across ranks. Run under -race this is the
// memory-safety proof.
func TestCausalConcurrentPerRank(t *testing.T) {
	const (
		ranks = 16
		edges = 2000
	)
	c := NewCausal(ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < edges; i++ {
				c.Record(Edge{
					From: (r + 1) % ranks, To: r, Seq: uint64(i + 1),
					SendVT: int64(i), ArriveVT: int64(i + 5), RecvVT: int64(i + 6),
					WaitVT: int64(i % 3),
				})
			}
		}(r)
	}
	wg.Wait()
	if got := c.EdgeCount(); got != ranks*edges {
		t.Fatalf("EdgeCount = %d, want %d", got, ranks*edges)
	}
	if c.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", c.Dropped())
	}
	for r := 0; r < ranks; r++ {
		row := c.perRank[r]
		if len(row) != edges {
			t.Fatalf("rank %d: %d edges, want %d", r, len(row), edges)
		}
		// Receiver program order is preserved within a row.
		for i, e := range row {
			if e.Seq != uint64(i+1) || e.To != r {
				t.Fatalf("rank %d edge %d: seq=%d to=%d", r, i, e.Seq, e.To)
			}
		}
	}
}

// TestCausalCap verifies edges past the per-rank cap are counted, not
// stored, and that out-of-range ranks are ignored.
func TestCausalCap(t *testing.T) {
	c := NewCausal(1)
	c.capPer = 4
	for i := 0; i < 10; i++ {
		c.Record(Edge{From: 0, To: 0, Seq: uint64(i + 1)})
	}
	c.Record(Edge{From: 0, To: 5, Seq: 99})  // out of range
	c.Record(Edge{From: 0, To: -1, Seq: 99}) // out of range
	if got := len(c.perRank[0]); got != 4 {
		t.Fatalf("stored = %d, want 4", got)
	}
	if got := c.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
}

// TestCausalNil proves the disabled state: every method on a nil store
// is a safe no-op.
func TestCausalNil(t *testing.T) {
	var c *Causal
	c.Record(Edge{From: 0, To: 0, Seq: 1})
	if c.EdgeCount() != 0 || c.Dropped() != 0 || c.Edges() != nil {
		t.Fatal("nil Causal must be inert")
	}
	var buf bytes.Buffer
	if err := c.WriteEdges(&buf); err != nil {
		t.Fatalf("WriteEdges(nil): %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil store wrote %q", buf.String())
	}
	if NewCausal(0) != nil {
		t.Fatal("NewCausal(0) must be nil")
	}
}

// TestCausalRoundTrip checks WriteEdges/ReadEdges are inverse.
func TestCausalRoundTrip(t *testing.T) {
	c := NewCausal(3)
	want := []Edge{
		{From: 1, To: 0, Seq: 7, SendVT: 10, ArriveVT: 20, RecvVT: 25, WaitVT: 5, Bytes: 64, Comm: 2, Tag: 3, Ctx: "vote", CtxSeq: 4},
		{From: 0, To: 1, Seq: 1, SendVT: 1, ArriveVT: 2, RecvVT: 3},
		{From: 2, To: 2, Seq: 2, SendVT: 4, ArriveVT: 5, RecvVT: 6, Ctx: "merge:final"},
	}
	for _, e := range want {
		c.Record(e)
	}
	var buf bytes.Buffer
	if err := c.WriteEdges(&buf); err != nil {
		t.Fatalf("WriteEdges: %v", err)
	}
	got, err := ReadEdges(&buf)
	if err != nil {
		t.Fatalf("ReadEdges: %v", err)
	}
	// Edges() orders rows by receiving rank.
	if len(got) != len(want) {
		t.Fatalf("%d edges, want %d", len(got), len(want))
	}
	for i, e := range c.Edges() {
		if got[i] != e {
			t.Fatalf("edge %d: %+v != %+v", i, got[i], e)
		}
	}
}

// TestVoteZeroSerializes guards the Votes pointer-field fix: a unanimous
// "no mismatch" vote (0) must still emit the votes key, so KindVote
// events stay distinguishable in the journal.
func TestVoteZeroSerializes(t *testing.T) {
	b, err := json.Marshal(Event{Kind: KindVote, Rank: 0, Votes: Vote(0)})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"votes":0`) {
		t.Fatalf("vote 0 dropped from JSON: %s", b)
	}
	var ev Event
	if err := json.Unmarshal(b, &ev); err != nil {
		t.Fatal(err)
	}
	if v, ok := ev.VoteCount(); !ok || v != 0 {
		t.Fatalf("VoteCount = %d, %v; want 0, true", v, ok)
	}
	// A non-vote event still omits the key entirely.
	b, err = json.Marshal(Event{Kind: KindTransition, Rank: 0})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "votes") {
		t.Fatalf("non-vote event leaked a votes key: %s", b)
	}
	if _, ok := (&Event{}).VoteCount(); ok {
		t.Fatal("VoteCount on a non-vote event must report absence")
	}
}

// TestChromeTraceFlows checks the flow-event export: metadata dropped
// counters always present, s/f pairs only for edges that blocked the
// receiver.
func TestChromeTraceFlows(t *testing.T) {
	tl := NewTimeline(2)
	tl.Add(0, "compute", CatCompute, 0, 100)
	tl.Add(1, "recv", CatP2P, 0, 220)
	c := NewCausal(2)
	c.Record(Edge{From: 0, To: 1, Seq: 1, SendVT: 100, ArriveVT: 200, RecvVT: 220, WaitVT: 150, Ctx: "vote", CtxSeq: 3})
	c.Record(Edge{From: 1, To: 0, Seq: 1, SendVT: 50, ArriveVT: 60, RecvVT: 70, WaitVT: 0})

	var buf bytes.Buffer
	if err := tl.WriteChromeTraceFlows(&buf, c); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	var s, f int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "s":
			s++
		case "f":
			f++
		}
	}
	if s != 1 || f != 1 {
		t.Fatalf("flow events s=%d f=%d, want 1/1 (only the waiting edge links)", s, f)
	}
	for _, want := range []string{
		`"name":"chameleon_spans_dropped"`,
		`"name":"chameleon_edges_dropped"`,
		`"cat":"flow"`,
		`"bp":"e"`,
		`"name":"vote"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %s:\n%s", want, out)
		}
	}
}

// FuzzReadEdges: ReadEdges parses the edge sidecar of every
// PUT /runs/{id}/edges, at the edge and again on each peer. On any
// bytes it must not panic; a stream it accepts re-encodes, one JSON
// line per edge as WriteEdges writes it, and reads back equal; and a
// refusal names the first line that is neither blank nor an edge,
// counting lines as bufio.ScanLines does (a "\r" before the "\n"
// dropped).
func FuzzReadEdges(f *testing.F) {
	c := NewCausal(3)
	for _, e := range []Edge{
		{From: 1, To: 0, Seq: 7, SendVT: 10, ArriveVT: 20, RecvVT: 25, WaitVT: 5, Bytes: 64, Comm: 2, Tag: 3, Ctx: "vote", CtxSeq: 4},
		{From: 0, To: 1, Seq: 1, SendVT: 1, ArriveVT: 2, RecvVT: 3},
		{From: 2, To: 2, Seq: 2, SendVT: 4, ArriveVT: 5, RecvVT: 6, Ctx: "merge:final"},
	} {
		c.Record(e)
	}
	var stream bytes.Buffer
	if err := c.WriteEdges(&stream); err != nil {
		f.Fatal(err)
	}
	f.Add(stream.Bytes())
	f.Add([]byte{})
	f.Add([]byte("\n\n{\"from\":1,\"to\":2}\r\n\r\n"))
	f.Add([]byte("{\"from\":1,\"to\":2}\n{\"from\":\"x\"}\n{\"to\":3}\n"))
	f.Add([]byte("{\"from\":1} trailing\n"))
	f.Add([]byte("null\n{\"FROM\":4,\"ctx\":\"\xff\xfe\"}"))
	f.Add([]byte("{\"seq\":18446744073709551616}\n"))
	f.Add([]byte("{\"send_ns\":1e3}"))

	f.Fuzz(func(t *testing.T, data []byte) {
		edges, err := ReadEdges(bytes.NewReader(data))

		bad := 0 // the line a refusal must name; 0: none
		lines := bytes.Split(data, []byte("\n"))
		if len(lines[len(lines)-1]) == 0 {
			lines = lines[:len(lines)-1] // data ended its last line
		}
		for i, line := range lines {
			line = bytes.TrimSuffix(line, []byte("\r"))
			var e Edge
			if len(line) > 0 && json.Unmarshal(line, &e) != nil {
				bad = i + 1
				break
			}
		}
		if err != nil {
			if want := fmt.Sprintf("edges line %d: ", bad); bad == 0 || !strings.Contains(err.Error(), want) {
				t.Fatalf("refusal %q; the first bad line is %d", err, bad)
			}
			return
		}
		if bad != 0 {
			t.Fatalf("accepted %d edges; line %d is not an edge", len(edges), bad)
		}
		var again bytes.Buffer
		enc := json.NewEncoder(&again)
		for i := range edges {
			if err := enc.Encode(&edges[i]); err != nil {
				t.Fatal(err)
			}
		}
		back, err := ReadEdges(&again)
		if err != nil || !reflect.DeepEqual(back, edges) {
			t.Fatalf("re-encoded %d edges read back as %d: %v", len(edges), len(back), err)
		}
	})
}
