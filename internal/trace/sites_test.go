package trace

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"chameleon/internal/mpi"
	"chameleon/internal/ranklist"
	"chameleon/internal/sig"
)

// sitePayload assembles by hand, so that it does not depend on the
// encoder, the canonical payload of one leaf on call site s labelled fn
// in file at line (no labels when all are zero).
func sitePayload(s uint64, fn, file string, line int64) []byte {
	var c corrupter
	c.magic('2')
	c.uvarint(1) // P
	c.bytes(0)   // flags
	c.str("SITES")
	c.str("test")
	c.uvarint(1) // one site
	c.uvarint(s)
	c.str(fn)
	c.str(file)
	c.varint(line)
	c.uvarint(1) // one node
	c.bytes(tagLeaf)
	c.uvarint(uint64(mpi.OpBarrier))
	c.uvarint(0) // site index
	c.varint(0)  // comm
	c.varint(0)  // tag
	c.varint(0)  // bytes
	c.bytes(byte(EPNone), byte(EPNone))
	c.bytes(appendRanks(nil, ranklist.SingleRank(0))...)
	c.uvarint(0) // no histogram
	return c.buf.Bytes()
}

// Payloads that label one signature differently — one tenant's
// alpha.secret, another's bravo.public, and none — are each canonical
// and each decode to a file that encodes to the payload again, whatever
// the process read before: in either order. Each order has a signature
// nothing else uses, so that nothing one order reads can bear on the
// other.
func TestSiteLabelsComeFromTheBytes(t *testing.T) {
	payloads := func(s uint64) [][]byte {
		return [][]byte{
			sitePayload(s, "alpha.secret", "alpha/secret.go", 7),
			sitePayload(s, "", "", 0),
			sitePayload(s, "bravo.public", "bravo/public.go", 11),
		}
	}
	for name, order := range map[string]struct {
		s     uint64
		first int
		step  int
	}{
		"alpha first": {sig.Mix(0x1abe_1001), 0, 1},
		"bravo first": {sig.Mix(0x1abe_1002), 2, -1},
	} {
		t.Run(name, func(t *testing.T) {
			all := payloads(order.s)
			for i := order.first; i >= 0 && i < len(all); i += order.step {
				data := all[i]
				if _, ok := ScanCanonical(data); !ok {
					t.Fatalf("payload %d did not scan as canonical", i)
				}
				f, err := DecodeBinary(data)
				if err != nil {
					t.Fatal(err)
				}
				if got := f.AppendBinary(nil); !bytes.Equal(got, data) {
					t.Fatalf("payload %d re-encodes to other bytes: sites %+v", i, f.SiteTable())
				}
				CheckScanMatchesDecode(t, data)
			}
		})
	}
}

// A payload of 1 000 call sites the process has never seen goes through
// every reader — the scan, the decoder, Walk and the JSON reader —
// without growing sig.Sites, and each reader keeps the file's labels.
func TestReadersInternNoSites(t *testing.T) {
	f := &File{P: 4, Benchmark: "SITES", Tracer: "test"}
	for i := 0; i < 1000; i++ {
		s := sig.Mix(0x51e5_0000 + uint64(i))
		f.Nodes = append(f.Nodes, NewLeaf(Event{Op: mpi.OpBarrier, Stack: sig.Stack(s)}, ranklist.SingleRank(i%4), 1))
		f.Sites = append(f.Sites, sig.SiteInfo{ID: uint32(i), Sig: s, Func: fmt.Sprintf("main.f%d", i), File: "sites.go", Line: i + 1})
	}
	payload, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var js bytes.Buffer
	if err := f.Write(&js); err != nil {
		t.Fatal(err)
	}
	before := sig.Sites.Len()
	if _, ok := ScanCanonical(payload); !ok {
		t.Fatal("the payload did not scan as canonical")
	}
	g, err := DecodeBinary(payload)
	if err != nil {
		t.Fatal(err)
	}
	leaves := 0
	if err := Walk(payload, leafVisitor(func(*Node, Cursor) { leaves++ })); err != nil || leaves != len(f.Nodes) {
		t.Fatalf("Walk: %d leaves, %v", leaves, err)
	}
	h, err := Read(&js)
	if err != nil {
		t.Fatal(err)
	}
	if n := sig.Sites.Len(); n != before {
		t.Fatalf("reading the payload interned %d sites", n-before)
	}
	for name, got := range map[string]*File{"DecodeBinary": g, "JSON Read": h} {
		if !reflect.DeepEqual(got.Sites, f.Sites) {
			t.Fatalf("%s: the site table differs from the file's", name)
		}
	}
}

// The encoder labels each site with the file's own entry for its
// signature, the first where there are several, in whatever order the
// table lists them; only a signature the table lacks takes the labels
// of its leaf's live site. A table in first-use order costs no
// allocation beyond what no table costs.
func TestEncoderWritesTheSitesItWasGiven(t *testing.T) {
	a, b, c := sig.Mix(0x1abe_2001), sig.Mix(0x1abe_2002), sig.Mix(0x1abe_2003)
	live := sig.Sites.InternSigMeta(sig.SiteInfo{Sig: c, Func: "c.live", File: "c.go", Line: 3})
	leaf := func(s uint64, site sig.SiteID) *Node {
		return NewLeaf(Event{Op: mpi.OpBarrier, Stack: sig.Stack(s), Site: site}, ranklist.SingleRank(0), 1)
	}
	for name, tc := range map[string]struct {
		nodes []*Node
		given []sig.SiteInfo
		want  []sig.SiteInfo
	}{
		"out of order, a duplicate, one missing": {
			nodes: []*Node{leaf(a, 0), NewLoop(2, []*Node{leaf(b, 0), leaf(c, live)}), leaf(a, 0)},
			given: []sig.SiteInfo{{Sig: b, Func: "b.first"}, {Sig: a, Func: "a.first", Line: 1}, {Sig: b, Func: "b.second"}},
			want:  []sig.SiteInfo{{ID: 0, Sig: a, Func: "a.first", Line: 1}, {ID: 1, Sig: b, Func: "b.first"}, {ID: 2, Sig: c, Func: "c.live", File: "c.go", Line: 3}},
		},
		"a duplicate where the next site's entry would be": {
			nodes: []*Node{leaf(b, 0), leaf(a, 0)},
			given: []sig.SiteInfo{{Sig: a, Func: "a.first"}, {Sig: a, Func: "a.second"}},
			want:  []sig.SiteInfo{{ID: 0, Sig: b}, {ID: 1, Sig: a, Func: "a.first"}},
		},
		"the live site's own entry wins": {
			nodes: []*Node{leaf(c, live)},
			given: []sig.SiteInfo{{Sig: c, Func: "c.given"}},
			want:  []sig.SiteInfo{{ID: 0, Sig: c, Func: "c.given"}},
		},
	} {
		t.Run(name, func(t *testing.T) {
			f := &File{P: 1, Nodes: tc.nodes, Sites: tc.given}
			if got := f.SiteTable(); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("SiteTable %+v, want %+v", got, tc.want)
			}
			CheckEncodeMatchesReference(t, f)
			g, err := DecodeBinary(f.AppendBinary(nil))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(g.Sites, tc.want) {
				t.Fatalf("decoded sites %+v, want %+v", g.Sites, tc.want)
			}
		})
	}
	if raceEnabled {
		return // allocation counts
	}
	f := sampleFile()
	buf := make([]byte, 0, 1<<16)
	encode := func() { buf = f.AppendBinary(buf[:0]) }
	bare := testing.AllocsPerRun(20, encode)
	f.Sites = f.SiteTable()
	if given := testing.AllocsPerRun(20, encode); given != bare {
		t.Fatalf("a site table in first-use order: %.0f allocations, none: %.0f", given, bare)
	}
}
