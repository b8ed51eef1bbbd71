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

func TestLinkRoundTrip(t *testing.T) {
	a, b := pipeLinks(t)
	data, err := appendDataFrame(nil, 1, message{comm: CommWorld, source: 0, tag: 1, arrive: 5, sendVT: 4})
	if err != nil {
		t.Fatal(err)
	}
	big := append([]byte{kindData}, bytes.Repeat([]byte{0xab}, 1<<17)...) // spans many bufio buffers
	ctl := &ctlMsg{T: "roster", Session: "s", Members: []memberSpec{{Lo: 0, Hi: 1, Addr: "h:1"}}}

	// Concurrent senders on one link: frames must arrive whole.
	var wg sync.WaitGroup
	for _, body := range [][]byte{data, big} {
		wg.Add(1)
		go func(body []byte) {
			defer wg.Done()
			if err := a.send(body); err != nil {
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

	// Control documents, the other way.
	go b.sendCtl(ctl)
	back, err := a.recvCtl()
	if err != nil || !reflect.DeepEqual(back, ctl) {
		t.Fatalf("control round trip: %+v, %v", back, err)
	}
	// A data frame where a control document is required is an error.
	go b.send(data)
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

// chaosWire puts every link built until the test ends on a chaosConn.
func chaosWire(t *testing.T) {
	seed := 1000 * chaosRuns.Add(1)
	t.Logf("chaos seed base %d", seed)
	var conns atomic.Int64
	prev := wrapConn
	wrapConn = func(c net.Conn) net.Conn {
		return &chaosConn{Conn: c, rng: rand.New(rand.NewSource(seed + conns.Add(1)))}
	}
	t.Cleanup(func() { wrapConn = prev })
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
