package mpi

import (
	"bytes"
	"encoding/binary"
	"testing"

	"chameleon/internal/vtime"
)

// poisonFrames is the hand-built corpus of hostile frame bodies: every
// class of malformation the decoder must reject without panicking or
// over-allocating.
func poisonFrames() [][]byte {
	okData, _ := appendDataFrame(nil, 3, message{
		comm: CommWorld, source: 1, tag: 7, bytes: 64,
		payload: "x", arrive: 100, origin: 1, seq: 2, sendVT: 90,
	})
	uv := func(vals ...uint64) []byte {
		var b []byte
		for _, v := range vals {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	frames := [][]byte{
		{},                            // empty body
		{0x00},                        // unknown kind
		{0xff},                        // unknown kind, high bit
		{kindData},                    // data frame with no header
		{kindCtl},                     // control frame with no JSON
		{kindCtl, '{'},                // truncated JSON
		{kindCtl, 'n', 'u', 'l', 'l'}, // JSON, wrong shape
		append([]byte{kindCtl}, `{"t":"register","p":"sixty-four"}`...), // register, P of the wrong JSON type
		append([]byte{kindCtl}, `{"t":"final","clocks":[1,"x"]}`...),    // final, a clock that is no number
		append([]byte{kindCtl}, `{"lo":0,"hi":3}`...),                   // document without a type
		append([]byte{kindData}, 0x80),                                  // truncated varint (continuation bit, no byte)
		okData[:len(okData)-1],                                          // truncated payload
		append(append([]byte{}, okData...), 0x01),                       // trailing garbage
		okData[:1+1], // header cut after first field
		append([]byte{kindData}, uv(1<<25, 0, 0, 0, 0, 0, 0, 0, 0, 0)...),                                              // dest over rank cap
		append([]byte{kindData}, uv(0, 1<<32, 0, 0, 0, 0, 0, 0, 0, 0)...),                                              // comm over cap
		append([]byte{kindData}, uv(0, 0, 1<<25, 0, 0, 0, 0, 0, 0, 0)...),                                              // source over rank cap
		append([]byte{kindData}, uv(0, 0, 0, 1<<63, 0, 0, 0, 0, 0, 0)...),                                              // tag over cap
		append([]byte{kindData}, uv(0, 0, 0, 0, 1<<41, 0, 0, 0, 0, 0)...),                                              // bytes over cap
		append([]byte{kindData}, append(uv(0, 0, 0, 0, 0, 0, 0, 0, 0), 9)...),                                          // unknown payload kind
		append([]byte{kindData}, append(uv(0, 0, 0, 0, 0, 0, 0, 0, 0), payloadU64)...),                                 // u64 payload, no value
		append([]byte{kindData}, append(uv(0, 0, 0, 0, 0, 0, 0, 0, 0), payloadPairs, 0xff, 0xff, 0xff, 0xff, 0x7f)...), // absurd pair count
		append([]byte{kindData}, append(uv(0, 0, 0, 0, 0, 0, 0, 0, 0), payloadList, 0xff, 0xff, 0xff, 0xff, 0x7f)...),  // absurd list count
		append([]byte{kindData}, append(uv(0, 0, 0, 0, 0, 0, 0, 0, 0), payloadCodec, 0)...),                            // empty codec name
		append([]byte{kindData}, append(append(uv(0, 0, 0, 0, 0, 0, 0, 0, 0), payloadCodec, 4), []byte("nope")...)...), // codec name, no data length
	}
	// Deeply nested pairs: exceeds maxPairsDepth.
	deep := uv(0, 0, 0, 0, 0, 0, 0, 0, 0)
	for i := 0; i < maxPairsDepth+2; i++ {
		deep = append(deep, payloadPairs, 1, 0) // one pair, rank 0, nested...
	}
	frames = append(frames, append([]byte{kindData}, deep...))
	// Unknown codec name with plausible structure.
	unk := append(uv(0, 0, 0, 0, 0, 0, 0, 0, 0), payloadCodec, 7)
	unk = append(unk, []byte("badname")...)
	unk = append(unk, 2, 'h', 'i')
	frames = append(frames, append([]byte{kindData}, unk...))
	return frames
}

// validFrames are well-formed bodies. They belong in the fuzz corpus
// too — the fuzzer mutates from them into near-valid shapes — and since
// the control decoder faces the join port, they include every
// rendezvous document type with the hostile values a stranger can put
// in one: the decoder accepts them as documents, and it is the
// handlers' job (rendezvous_test.go) to refuse what they say.
func validFrames() [][]byte {
	data, _ := appendDataFrame(nil, 3, message{
		comm: CommWorld, source: 1, tag: 7, bytes: 64,
		payload: "x", arrive: 100, origin: 1, seq: 2, sendVT: 90,
	})
	frames := [][]byte{data}
	for _, m := range []*ctlMsg{
		{T: "breq", Req: 5},
		{T: "register", Lo: -7, Hi: 1 << 40, P: 1 << 50, Addr: "[::]:0", FP: "x"},
		{T: "register", Lo: 3, Hi: 1, P: -1},
		{T: "roster", Session: "s", Members: []memberSpec{{Lo: 0, Hi: 5, Addr: "a:1"}, {Lo: 3, Hi: 9, Addr: "b:2"}}},
		{T: "roster", Members: []memberSpec{{Lo: 2, Hi: 1 << 40}}},
		{T: "alloc", N: -1 << 31},
		{T: "result", Ranks: []int{-1, 1 << 40}, Clocks: []int64{1}},
		{T: "final", Clocks: []int64{1, 2}, Ledgers: [][]vtime.Duration{{1}}, Departed: []int{-3}},
		{T: "hello", Member: -9},
		{T: "no-such-type", Msg: "?"},
	} {
		body, _ := appendCtlFrame(nil, m)
		frames = append(frames, body)
	}
	return frames
}

// FuzzFrameDecode asserts the frame decoder never panics, never
// round-trip-corrupts — any body it accepts must re-encode to an
// equivalent decode — and, decoding from a buffer that is reused as the
// link's reader reuses its own, hands out nothing that aliases it.
func FuzzFrameDecode(f *testing.F) {
	for _, body := range append(poisonFrames(), validFrames()...) {
		f.Add(body)
	}
	var buf []byte
	f.Fuzz(func(t *testing.T, body []byte) {
		buf = append(buf[:0], body...)
		dest, msg, ctl, err := decodeFrame(buf)
		if err != nil {
			return
		}
		if ctl != nil {
			return // control frames are plain JSON; nothing further to check
		}
		// Accepted data frame: re-encoding must succeed and decode back
		// to the same message.
		re, err := appendDataFrame(nil, dest, msg)
		if err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		for i := range buf {
			buf[i] ^= 0xff
		}
		if again, err := appendDataFrame(nil, dest, msg); err != nil || !bytes.Equal(again, re) {
			t.Fatalf("decoded message changed with the buffer it was decoded from (%v)", err)
		}
		dest2, msg2, err := decodeDataFrame(re)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if dest2 != dest || msg2.comm != msg.comm || msg2.source != msg.source ||
			msg2.tag != msg.tag || msg2.bytes != msg.bytes || msg2.arrive != msg.arrive ||
			msg2.origin != msg.origin || msg2.seq != msg.seq || msg2.sendVT != msg.sendVT ||
			msg2.scalar != msg.scalar || msg2.u64 != msg.u64 {
			t.Fatalf("re-encode drift: %+v vs %+v", msg2, msg)
		}
	})
}

// TestScalarFrameMatchesBoxed: the scalar slot changes no byte on the
// wire. A message carrying v in the slot encodes exactly as one carrying
// v boxed in payload (and as the layout spells out by hand), and either
// decodes with v in the slot, unboxed. A uint64 nested in a list stays
// boxed in payload.
func TestScalarFrameMatchesBoxed(t *testing.T) {
	hdr := message{comm: CommInternal, source: 5, tag: 9, bytes: 8, arrive: 100, origin: 5, seq: 3, sendVT: 90}
	for _, v := range []uint64{0, 1, 255, 256, 1 << 20, 1<<64 - 1} {
		boxed, scalar := hdr, hdr
		boxed.payload = v
		scalar.u64, scalar.scalar = v, true
		want := []byte{kindData}
		for _, f := range []uint64{2, uint64(CommInternal), 5, 9, 8, 100, 5, 3, 90} {
			want = binary.AppendUvarint(want, f)
		}
		want = binary.AppendUvarint(append(want, payloadU64), v)
		for _, m := range []message{boxed, scalar} {
			got, err := appendDataFrame(nil, 2, m)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("v=%d, scalar=%v: frame %x (%v), want %x", v, m.scalar, got, err, want)
			}
		}
		if dest, got, err := decodeDataFrame(want); err != nil || dest != 2 || got != scalar {
			t.Fatalf("v=%d: decoded %d %+v (%v), want %+v", v, dest, got, err, scalar)
		}
	}
	nested := hdr
	nested.payload = []any{uint64(300)}
	body, err := appendDataFrame(nil, 2, nested)
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := decodeDataFrame(body)
	if list, ok := got.payload.([]any); err != nil || got.scalar || !ok || len(list) != 1 || list[0] != uint64(300) {
		t.Fatalf("nested uint64 decoded as %+v (%v)", got, err)
	}
}

// TestPoisonFramesRejected runs the corpus through the decoder directly:
// the fuzz seeds double as a deterministic regression test. (The
// length-prefixed reader's own rejections are in link_test.go.)
func TestPoisonFramesRejected(t *testing.T) {
	for i, body := range poisonFrames() {
		if _, _, _, err := decodeFrame(body); err == nil {
			t.Errorf("poison frame %d decoded cleanly: %q", i, body)
		}
	}
	for i, body := range validFrames() {
		if _, _, _, err := decodeFrame(body); err != nil {
			t.Errorf("valid seed %d rejected: %v", i, err)
		}
	}
}
