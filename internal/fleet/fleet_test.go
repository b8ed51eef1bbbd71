package fleet

import (
	"bytes"
	"testing"

	"chameleon/internal/cluster"
	"chameleon/internal/mpi"
	"chameleon/internal/ranklist"
	"chameleon/internal/sig"
	"chameleon/internal/trace"
)

func TestParseRanks(t *testing.T) {
	cases := []struct {
		in     string
		lo, hi int
		err    bool
	}{
		{in: "0..3", lo: 0, hi: 3},
		{in: "4..7", lo: 4, hi: 7},
		{in: " 2 .. 5 ", lo: 2, hi: 5},
		{in: "6", lo: 6, hi: 6},
		{in: "0..0", lo: 0, hi: 0},
		{in: "", err: true},
		{in: "3..1", err: true},
		{in: "-1..2", err: true},
		{in: "a..b", err: true},
		{in: "1-4", err: true},
		{in: "1..", err: true},
	}
	for _, tc := range cases {
		lo, hi, err := ParseRanks(tc.in)
		if tc.err {
			if err == nil {
				t.Errorf("ParseRanks(%q) = %d..%d, want error", tc.in, lo, hi)
			}
			continue
		}
		if err != nil || lo != tc.lo || hi != tc.hi {
			t.Errorf("ParseRanks(%q) = %d..%d, %v; want %d..%d", tc.in, lo, hi, err, tc.lo, tc.hi)
		}
	}
}

// TestTraceNodesCodec: the merge-traffic payload codec must round-trip
// a compressed sequence through the binary wire format — Event equality
// (the merge predicate) has to survive the hop to another process, and
// so do the call-site labels: the nodes the receiver merges name their
// sites when it encodes them, as the sender's would.
func TestTraceNodesCodec(t *testing.T) {
	ev := trace.Event{
		Op:    mpi.OpSend,
		Stack: sig.FromPCs([]uintptr{0x1000, 0x2000}),
		Dest:  trace.Relative(1),
		Tag:   7,
		Bytes: 4096,
	}
	labelled := sig.SiteInfo{Sig: sig.Mix(0xf1ee7_0001), Func: "fleet.labelled", File: "fleet/labelled.go", Line: 42}
	named := trace.Event{Op: mpi.OpBarrier, Stack: sig.Stack(labelled.Sig), Site: sig.Sites.InternSigMeta(labelled)}
	nodes := []*trace.Node{trace.NewLeaf(ev, ranklist.SingleRank(0), 1500), trace.NewLeaf(named, ranklist.SingleRank(1), 10)}

	codec, ok := mpi.LookupPayloadCodec("trace.nodes")
	if !ok {
		t.Fatal("trace.nodes codec not registered")
	}
	data, err := codec.Encode(nodes)
	if err != nil {
		t.Fatal(err)
	}
	back, err := codec.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := back.([]*trace.Node)
	if !ok {
		t.Fatalf("decoded %T, want []*trace.Node", back)
	}
	if len(got) != 2 {
		t.Fatalf("decoded %d nodes, want 2", len(got))
	}
	if !got[0].Ev.Equal(nodes[0].Ev) {
		t.Errorf("event identity lost in transit: %+v vs %+v", got[0].Ev, nodes[0].Ev)
	}
	if got[0].Ranks.String() != nodes[0].Ranks.String() {
		t.Errorf("ranks = %s, want %s", got[0].Ranks, nodes[0].Ranks)
	}
	if got[0].Delta == nil || got[0].Delta.Count() != 1 {
		t.Errorf("delta histogram lost in transit: %+v", got[0].Delta)
	}
	sent, err := trace.DecodeBinary((&trace.File{P: 2, Nodes: got}).AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(sent.Sites) != 2 || sent.Sites[1] != (sig.SiteInfo{ID: 1, Sig: labelled.Sig, Func: labelled.Func, File: labelled.File, Line: labelled.Line}) {
		t.Errorf("the received nodes encode their sites as %+v, want the second labelled %+v", sent.Sites, labelled)
	}
}

func TestClusterItemsCodec(t *testing.T) {
	codec, ok := mpi.LookupPayloadCodec("cluster.items")
	if !ok {
		t.Fatal("cluster.items codec not registered")
	}
	items := []cluster.Item{{
		Lead:  3,
		Ranks: ranklist.SingleRank(3),
		Sig:   sig.Triple{CallPath: 1, Src: 2, Dest: 3},
	}}
	data, err := codec.Encode(items)
	if err != nil {
		t.Fatal(err)
	}
	back, err := codec.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	got := back.([]cluster.Item)
	if len(got) != 1 || got[0].Lead != 3 || got[0].Sig != items[0].Sig ||
		got[0].Ranks.String() != items[0].Ranks.String() {
		t.Errorf("round-trip = %+v, want %+v", got, items)
	}

	// nil round-trips to an empty (non-nil) slice so receivers can
	// range over it without a nil check.
	data, err = codec.Encode([]cluster.Item(nil))
	if err != nil {
		t.Fatal(err)
	}
	back, err = codec.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.([]cluster.Item); got == nil || len(got) != 0 {
		t.Errorf("nil round-trip = %#v, want empty non-nil slice", got)
	}
}

// TestCodecsDoNotAliasTheirInput: PayloadCodec.Decode is handed the
// transport's read buffer, which the next frame overwrites while the
// decoded value sits in a mailbox — so the value must share no memory
// with it.
func TestCodecsDoNotAliasTheirInput(t *testing.T) {
	ev := trace.Event{Op: mpi.OpSend, Stack: sig.FromPCs([]uintptr{0x1000, 0x2000}), Dest: trace.Relative(1), Tag: 7, Bytes: 4096}
	for name, v := range map[string]any{
		"trace.nodes":   []*trace.Node{trace.NewLeaf(ev, ranklist.SingleRank(0), 1500)},
		"cluster.items": []cluster.Item{{Lead: 3, Ranks: ranklist.SingleRank(3), Sig: sig.Triple{CallPath: 1, Src: 2, Dest: 3}}},
	} {
		codec, ok := mpi.LookupPayloadCodec(name)
		if !ok {
			t.Fatalf("%s codec not registered", name)
		}
		data, err := codec.Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		buf := bytes.Clone(data)
		got, err := codec.Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] ^= 0xff
		}
		if again, err := codec.Encode(got); err != nil || !bytes.Equal(again, data) {
			t.Errorf("%s: decoded value changed with the buffer it was decoded from (%v)", name, err)
		}
	}
}
