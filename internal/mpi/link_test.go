package mpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// pipeLinks returns the two ends of an in-memory framed connection.
func pipeLinks(t *testing.T) (a, b *link) {
	t.Helper()
	ca, cb := net.Pipe()
	a, b = newLink(ca), newLink(cb)
	t.Cleanup(func() { a.close(); b.close() })
	return a, b
}

// sendRaw sends body as one frame, written before it returns.
func (l *link) sendRaw(body []byte) error {
	if _, _, err := l.queue(func(dst []byte) ([]byte, error) { return append(dst, body...), nil }); err != nil {
		return err
	}
	return l.flush()
}

func TestLinkRoundTrip(t *testing.T) {
	a, b := pipeLinks(t)
	data, err := appendDataFrame(nil, 1, message{comm: CommWorld, source: 0, tag: 1, arrive: 5, sendVT: 4})
	if err != nil {
		t.Fatal(err)
	}
	big := append([]byte{kindData}, bytes.Repeat([]byte{0xab}, 1<<17)...) // spans many bufio buffers, and is over highWater
	ctl := &ctlMsg{T: "roster", Session: "s", Members: []memberSpec{{Lo: 0, Hi: 1, Addr: "h:1"}}}

	// Concurrent senders on one link: frames must arrive whole.
	var wg sync.WaitGroup
	for _, body := range [][]byte{data, big} {
		wg.Add(1)
		go func(body []byte) {
			defer wg.Done()
			if err := a.sendRaw(body); err != nil {
				t.Errorf("send: %v", err)
			}
		}(body)
	}
	got := map[int]bool{}
	for i := 0; i < 2; i++ {
		body, err := b.recv()
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		switch {
		case bytes.Equal(body, data), bytes.Equal(body, big):
			got[len(body)] = true
		default:
			t.Fatalf("frame of %d bytes matches neither sent body", len(body))
		}
	}
	wg.Wait()
	if len(got) != 2 {
		t.Fatalf("received %d distinct frames, want 2", len(got))
	}
	// Buffers the big frame grew are not kept for the run.
	a.wmu.Lock()
	a.mu.Lock()
	if cap(a.pend) > highWater || cap(a.spare) > highWater || cap(a.scratch) > highWater || cap(b.body) > highWater {
		t.Errorf("link keeps buffers of %d/%d/%d/%d bytes after one large frame, over highWater",
			cap(a.pend), cap(a.spare), cap(a.scratch), cap(b.body))
	}
	a.mu.Unlock()
	a.wmu.Unlock()

	// Control documents, the other way.
	go b.sendCtl(ctl)
	back, err := a.recvCtl()
	if err != nil || !reflect.DeepEqual(back, ctl) {
		t.Fatalf("control round trip: %+v, %v", back, err)
	}
	// A data frame where a control document is required is an error.
	go b.sendRaw(data)
	if _, err := a.recvCtl(); err == nil {
		t.Fatal("recvCtl accepted a data frame")
	}
}

// TestLinkRejectsBadFraming feeds the reader raw bytes: every way a
// length prefix or a body can be wrong must be an error, before any
// allocation the prefix asks for.
func TestLinkRejectsBadFraming(t *testing.T) {
	cases := []struct {
		name string
		wire []byte
		want error // nil: any error
	}{
		{"oversize prefix", binary.AppendUvarint(nil, maxFrameBody+1), nil},
		{"absurd prefix", binary.AppendUvarint(nil, 1<<62), nil},
		{"zero-length prefix", binary.AppendUvarint(nil, 0), nil},
		{"prefix cut short", []byte{0x80}, io.ErrUnexpectedEOF},
		{"short read mid-body", append(binary.AppendUvarint(nil, 10), 1, 2, 3, 4), io.ErrUnexpectedEOF},
		{"closed before any frame", nil, io.EOF},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := net.Pipe()
			go func() {
				a.Write(tc.wire)
				a.Close()
			}()
			l := newLink(b)
			defer l.close()
			body, err := l.recv()
			if err == nil {
				t.Fatalf("accepted a %d-byte body", len(body))
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// chaosConn is an adversarial net.Conn: writes go out in 1..7-byte
// pieces with a short pause before each, reads return at most a few
// bytes, and every so often the reader stalls. All of it is driven by a
// seeded generator, so a failing seed replays.
type chaosConn struct {
	net.Conn
	mu  sync.Mutex
	rng *rand.Rand
}

func (c *chaosConn) roll(n int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.Intn(n)
}

func (c *chaosConn) Write(p []byte) (int, error) {
	written := 0
	for written < len(p) {
		n := 1 + c.roll(7)
		if n > len(p)-written {
			n = len(p) - written
		}
		time.Sleep(time.Duration(c.roll(40)) * time.Microsecond)
		m, err := c.Conn.Write(p[written : written+n])
		written += m
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

func (c *chaosConn) Read(p []byte) (int, error) {
	if c.roll(256) == 0 {
		time.Sleep(2 * time.Millisecond) // stalled reader
	}
	if n := 1 + c.roll(16); n < len(p) {
		p = p[:n]
	}
	return c.Conn.Read(p)
}

// chaosRuns makes every run of a chaos test (go test -count=N) use a
// different seed.
var chaosRuns atomic.Int64

// setWire builds every link on wrap(conn) until the test ends.
func setWire(t *testing.T, wrap func(net.Conn) net.Conn) {
	prev := wrapConn
	wrapConn = wrap
	t.Cleanup(func() { wrapConn = prev })
}

// chaosWire puts every link built until the test ends on a chaosConn.
func chaosWire(t *testing.T) {
	seed := 1000 * chaosRuns.Add(1)
	t.Logf("chaos seed base %d", seed)
	var conns atomic.Int64
	setWire(t, func(c net.Conn) net.Conn {
		return &chaosConn{Conn: c, rng: rand.New(rand.NewSource(seed + conns.Add(1)))}
	})
}

// wires runs body once on plain loopback sockets and once with every
// fleet connection on a chaosConn.
func wires(t *testing.T, body func(t *testing.T)) {
	t.Run("loopback", body)
	t.Run("chaos", func(t *testing.T) {
		chaosWire(t)
		body(t)
	})
}

// gateConn holds its first Write until the gate opens, and counts
// Writes: a connection that is busy while senders keep sending.
type gateConn struct {
	net.Conn
	entered, gate chan struct{}
	once          sync.Once
	writes        atomic.Int64
}

func (c *gateConn) open() { c.once.Do(func() { close(c.gate) }) }

func newGateConn(c net.Conn) *gateConn {
	return &gateConn{Conn: c, entered: make(chan struct{}), gate: make(chan struct{})}
}

func (c *gateConn) Write(p []byte) (int, error) {
	if c.writes.Add(1) == 1 {
		close(c.entered)
		<-c.gate
	}
	return c.Conn.Write(p)
}

// wantFrames reads n data frames off l and requires tags 0..n-1, in
// order, each carrying payload.
func wantFrames(t *testing.T, l *link, n int, payload any) {
	t.Helper()
	for tag := 0; tag < n; tag++ {
		body, err := l.recv()
		if err != nil {
			t.Fatalf("recv %d: %v", tag, err)
		}
		if _, msg, err := decodeDataFrame(body); err != nil || msg.tag != tag || msg.value() != payload {
			t.Fatalf("frame %d: tag %d, %v", tag, msg.tag, err)
		}
	}
}

// TestLinkCoalescesQueuedFrames: whatever is queued while one write is
// under way leaves in the next, and a queued frame needs no further
// send to leave (nothing follows the 100 frames here).
func TestLinkCoalescesQueuedFrames(t *testing.T) {
	ca, cb := net.Pipe()
	gc := newGateConn(ca)
	a, b := newLink(gc), newLink(cb)
	defer b.close()
	defer a.close()
	defer gc.open()
	send := func(tag int) {
		if _, err := a.sendData(1, message{tag: tag}); err != nil {
			t.Fatalf("send %d: %v", tag, err)
		}
	}
	send(0)
	<-gc.entered // the writer is inside the first Write, with frame 0
	for tag := 1; tag <= 100; tag++ {
		send(tag)
	}
	gc.open()
	wantFrames(t, b, 101, nil)
	if n, counted := gc.writes.Load(), a.writes.Load(); n != 2 || counted != 2 {
		t.Fatalf("101 frames left in %d writes (link counted %d), want 2", n, counted)
	}
}

// TestLinkHighWaterHoldsSenders: a sender that leaves more than
// highWater pending writes it out itself, so a connection that does not
// drain holds its senders back instead of buffering without bound.
func TestLinkHighWaterHoldsSenders(t *testing.T) {
	ca, cb := net.Pipe()
	gc := newGateConn(ca)
	a, b := newLink(gc), newLink(cb)
	defer b.close()
	defer a.close()
	defer gc.open()
	const frames = 4 * highWater >> 10
	payload := string(bytes.Repeat([]byte{'x'}, 1<<10))
	var sent atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for tag := 0; tag < frames; tag++ {
			if _, err := a.sendData(1, message{tag: tag, payload: payload}); err != nil {
				t.Errorf("send %d: %v", tag, err)
				return
			}
			sent.Add(1)
		}
	}()
	<-gc.entered
	select {
	case <-done:
		t.Fatalf("queued %d KiB onto a stalled connection", frames)
	case <-time.After(50 * time.Millisecond):
	}
	// At most: one buffer in the stalled write, one left just over the mark.
	if n := sent.Load(); n > 2*(highWater>>10+1) {
		t.Fatalf("a stalled connection took %d KiB before holding its sender, highWater is %d KiB", n, highWater>>10)
	}
	gc.open()
	wantFrames(t, b, frames, payload)
	<-done
}

// TestLinkChaosKeepsOrder: concurrent senders interleaving data frames
// and control documents on a hostile wire. Frames arrive whole, each
// sender's in the order sent, and no control document overtakes a data
// frame queued before it.
func TestLinkChaosKeepsOrder(t *testing.T) {
	chaosWire(t)
	a, b := pipeLinks(t)
	const senders, frames, every = 4, 96, 16
	var wg sync.WaitGroup
	for k := 0; k < senders; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := 0; i < frames; i++ {
				if _, err := a.sendData(k, message{source: k, tag: i, payload: uint64(i)}); err != nil {
					t.Errorf("sender %d frame %d: %v", k, i, err)
					return
				}
				if i%every == every-1 {
					if err := a.sendCtl(&ctlMsg{T: "breq", Member: k, Req: uint64(i)}); err != nil {
						t.Errorf("sender %d document after frame %d: %v", k, i, err)
						return
					}
				}
			}
		}(k)
	}
	next := make([]int, senders) // the tag each sender's next frame must carry
	for n := 0; n < senders*(frames+frames/every); n++ {
		body, err := b.recv()
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		dest, msg, ctl, err := decodeFrame(body)
		switch {
		case err != nil:
			t.Fatalf("frame %d: %v", n, err)
		case ctl != nil:
			if k := ctl.Member; next[k] != int(ctl.Req)+1 {
				t.Fatalf("sender %d's document after frame %d arrived with %d of its frames in", k, ctl.Req, next[k])
			}
		case dest != msg.source || msg.tag != next[dest] || msg.value() != uint64(msg.tag):
			t.Fatalf("sender %d: got frame %+v, want tag %d", dest, msg, next[dest])
		default:
			next[dest]++
		}
	}
	wg.Wait()
}

// loopConn accepts every Write and serves one wire image over and over.
type loopConn struct {
	net.Conn
	wire []byte
	off  int
}

func (c *loopConn) Write(p []byte) (int, error) { return len(p), nil }
func (c *loopConn) Read(p []byte) (int, error) {
	n := copy(p, c.wire[c.off:])
	c.off = (c.off + n) % len(c.wire)
	return n, nil
}
func (c *loopConn) SetWriteDeadline(time.Time) error { return nil }
func (c *loopConn) Close() error                     { return nil }

// TestLinkHotPathAllocatesNothing: a data frame without a payload — the
// fleet's common case — costs no heap object to queue, and none to
// read and decode.
func TestLinkHotPathAllocatesNothing(t *testing.T) {
	msg := message{comm: CommWorld, source: 3, tag: 7, bytes: 64, arrive: 100, origin: 3, seq: 2, sendVT: 90}
	body, err := appendDataFrame(nil, 1, msg)
	if err != nil {
		t.Fatal(err)
	}
	l := newLink(&loopConn{wire: append(binary.AppendUvarint(nil, uint64(len(body))), body...)})
	defer l.close()
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := l.sendData(1, msg); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("queueing a data frame allocates %v objects, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		body, err := l.recv()
		if err != nil {
			t.Fatal(err)
		}
		if _, got, err := decodeDataFrame(body); err != nil || got != msg {
			t.Fatalf("decoded %+v, %v", got, err)
		}
	}); n != 0 {
		t.Errorf("reading and decoding a data frame allocates %v objects, want 0", n)
	}
}

// TestLinkDecodedPayloadsOutliveTheReadBuffer: the reader reuses one
// buffer, so a decoded message must share no memory with it — the next
// frame is read over the bytes it was decoded from.
func TestLinkDecodedPayloadsOutliveTheReadBuffer(t *testing.T) {
	a, b := pipeLinks(t)
	for _, want := range wirePayloads() {
		for _, payload := range []any{want, "the frame that follows"} {
			if _, err := a.sendData(1, message{payload: payload}); err != nil {
				t.Fatalf("send %T: %v", payload, err)
			}
		}
		body, err := b.recv()
		if err != nil {
			t.Fatalf("recv %T: %v", want, err)
		}
		_, msg, err := decodeDataFrame(body)
		if err != nil {
			t.Fatalf("decode %T: %v", want, err)
		}
		if _, err := b.recv(); err != nil { // lands on the same buffer
			t.Fatal(err)
		}
		for i := range body {
			body[i] = 0xff
		}
		if !reflect.DeepEqual(msg.value(), want) {
			t.Errorf("%T payload changed with the read buffer: %#v, want %#v", want, msg.value(), want)
		}
	}
}

// failConn writes until its budget of bytes is spent; the Write that
// would exceed it, and every later one, fails.
type failConn struct {
	net.Conn
	mu     sync.Mutex
	budget int
}

var errInjected = errors.New("injected write failure")

func (c *failConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	n := min(len(p), c.budget)
	c.budget -= n
	c.mu.Unlock()
	if n > 0 {
		if w, err := c.Conn.Write(p[:n]); err != nil {
			return w, err
		}
	}
	if n < len(p) {
		return n, errInjected
	}
	return n, nil
}

// TestLinkWriteFailureIsSticky: a write the writer goroutine fails is
// reported through onWriteErr, and every later send on the link meets
// the same error at once, queueing nothing.
func TestLinkWriteFailureIsSticky(t *testing.T) {
	ca, cb := net.Pipe()
	defer cb.Close()
	go io.Copy(io.Discard, cb)
	a := newLink(&failConn{Conn: ca, budget: 40})
	defer a.close()
	failed := make(chan error, 1)
	a.onWriteErr = func(err error) {
		select {
		case failed <- err:
		default:
		}
	}
	for tag := 0; tag < 3; tag++ { // ~12 bytes a frame: the third does not fit
		a.sendData(1, message{tag: tag, arrive: 1 << 40})
	}
	if err := <-failed; !errors.Is(err, errInjected) {
		t.Fatalf("writer reported %v, want the injected failure", err)
	}
	if _, err := a.sendData(1, message{}); !errors.Is(err, errInjected) {
		t.Errorf("data frame after the failure: %v, want the injected failure", err)
	}
	if err := a.sendCtl(&ctlMsg{T: "breq"}); !errors.Is(err, errInjected) {
		t.Errorf("control document after the failure: %v, want the injected failure", err)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.pend) != 0 {
		t.Errorf("%d bytes queued on a failed link", len(a.pend))
	}
}

// TestLinkCloseWritesWhatIsQueued: frames queued before close reach the
// peer ahead of the EOF, and close refuses what comes after it.
func TestLinkCloseWritesWhatIsQueued(t *testing.T) {
	ca, cb := net.Pipe()
	gc := newGateConn(ca)
	a, b := newLink(gc), newLink(cb)
	defer b.close()
	const frames = 50
	for tag := 0; tag <= frames; tag++ {
		if _, err := a.sendData(1, message{tag: tag}); err != nil {
			t.Fatal(err)
		}
		if tag == 0 {
			<-gc.entered // everything after frame 0 stays queued
		}
	}
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		gc.open()
		a.close()
	}()
	wantFrames(t, b, frames+1, nil)
	if _, err := b.recv(); !errors.Is(err, io.EOF) {
		t.Fatalf("after the last queued frame: %v, want EOF", err)
	}
	<-closed
	if _, err := a.sendData(1, message{}); !errors.Is(err, net.ErrClosed) {
		t.Errorf("send on a closed link: %v, want net.ErrClosed", err)
	}
}
