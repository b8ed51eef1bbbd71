package mpi

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"chameleon/internal/clock"
)

// link is one framed fleet connection: a mesh connection to a peer, or
// either end of the rendezvous connection. It owns the transport's only
// frame writer and only frame reader, so the body-size cap, the write
// rule and any fault injection are stated once for every byte the fleet
// exchanges.
//
// The write rule: frames coalesce. A frame is encoded onto the link's
// pending buffer, and whoever writes next — the link's writer
// goroutine, a control document, a sender that finds the buffer over
// highWater, close — swaps that buffer against a spare and hands
// everything queued to one conn.Write, in queue order. A data frame
// costs its sender no system call (the fleet's frames are ~17 bytes;
// one write(2) each was most of a fleet job). Two invariants:
//
//   - Liveness is unconditional. A frame queued onto an empty buffer
//     wakes the writer, so every queued frame reaches the connection
//     with no further send and no change of rank state: a frame the
//     consistent cut counted as sent is merely in flight until then.
//   - Control goes behind data, synchronously. sendCtl queues its
//     document after whatever is pending and returns once all of it is
//     written, so no document overtakes a data frame queued before it
//     and a control document handed to sendCtl is on its way when
//     sendCtl returns.
//
// sendData and sendCtl may be called from any goroutine; recv belongs
// to the one goroutine draining the connection (the buffered reader
// lives as long as the link, so nothing read ahead of one frame is lost
// to the next).
type link struct {
	conn net.Conn
	br   *bufio.Reader
	body []byte // recv's frame body, reused from frame to frame

	// onWriteErr, set before the first data frame if at all, hears of a
	// write failure met by the writer goroutine, which has no caller to
	// return it to.
	onWriteErr func(error)

	mu      sync.Mutex    // guards the queue; never held across a write
	pend    []byte        // frames queued, not yet handed to a write
	scratch []byte        // the frame body being encoded
	err     error         // the first write failure: sticky
	closed  bool          // close has begun: nothing more is queued
	wake    chan struct{} // one slot: a frame went onto an empty pend
	done    chan struct{} // closed once the writer goroutine has exited

	// wmu is held from taking pend to the end of its write, so writes
	// leave in queue order; it also guards spare.
	wmu    sync.Mutex
	spare  []byte        // the buffer pend is swapped against
	writes atomic.Uint64 // conn.Write calls issued
}

// highWater bounds what a link buffers. A sender that leaves more than
// this pending writes it out itself, so a slow peer holds its senders
// back as a write per frame did; and a buffer that one large payload (a
// trace merge) grew past it is released after use, not kept for the run.
const highWater = 64 << 10

// closeFlushTimeout bounds close's last write to a peer that has
// stopped reading.
const closeFlushTimeout = 5 * time.Second

// errUnencodable marks a sendData failure that is the message's fault,
// not the connection's: nothing was queued and the link is unharmed.
var errUnencodable = errors.New("mpi: unencodable message")

// wrapConn is applied to every connection a link is built on. Identity
// outside tests, which swap in an adversarial net.Conn (short writes,
// delays, a stalled reader) to put the whole fleet on a hostile wire.
var wrapConn = func(c net.Conn) net.Conn { return c }

// newLink frames conn and starts the link's writer; close stops it.
func newLink(conn net.Conn) *link {
	conn = wrapConn(conn)
	l := &link{
		conn: conn, br: bufio.NewReader(conn),
		wake: make(chan struct{}, 1), done: make(chan struct{}),
	}
	go l.writer()
	return l
}

// formTimeout bounds each dial while the fleet forms, and then the
// handshake (NewTCPTransport).
const formTimeout = 20 * time.Second

// dialLink dials addr until it answers or formTimeout expires (the
// coordinator, or a peer's data listener, may not have bound yet).
func dialLink(clk clock.Clock, addr string) (*link, error) {
	var deadline time.Time // set at the first failure
	for {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			return newLink(conn), nil
		}
		if deadline.IsZero() {
			deadline = clk.Now().Add(formTimeout)
		} else if clk.Now().After(deadline) {
			return nil, err
		}
		retry, _ := clk.After(50 * time.Millisecond) // always fires: nothing to release
		<-retry
	}
}

// queue appends one frame — length prefix, then the body encode appends
// to the buffer it is given — behind whatever is pending, and returns
// the body's size and the bytes now pending. A failed or closing link
// queues nothing.
func (l *link) queue(encode func(dst []byte) ([]byte, error)) (size, pending int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock() // deferred: encode runs payload codecs, which are not ours
	switch {
	case l.err != nil:
		return 0, 0, l.err
	case l.closed:
		return 0, 0, net.ErrClosed
	}
	if l.scratch, err = encode(l.scratch[:0]); err != nil {
		return 0, 0, err
	}
	if len(l.pend) == 0 {
		select {
		case l.wake <- struct{}{}:
		default: // a wake-up is already on its way
		}
	}
	l.pend = binary.AppendUvarint(l.pend, uint64(len(l.scratch)))
	l.pend = append(l.pend, l.scratch...)
	size = len(l.scratch)
	if cap(l.scratch) > highWater {
		l.scratch = nil
	}
	return size, len(l.pend), nil
}

// flush hands everything pending to one conn.Write and returns the
// link's write error, if any.
func (l *link) flush() error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.mu.Lock()
	buf, err := l.pend, l.err
	l.pend = l.spare[:0]
	l.mu.Unlock()
	if err == nil && len(buf) > 0 {
		l.writes.Add(1)
		if _, err = l.conn.Write(buf); err != nil {
			l.mu.Lock()
			l.err = err
			l.mu.Unlock()
		}
	}
	if cap(buf) > highWater {
		buf = nil
	}
	l.spare = buf[:0]
	return err
}

// writer is the link's writer goroutine: woken by a frame queued onto
// an empty buffer, it writes whatever has been queued by the time it
// runs.
func (l *link) writer() {
	defer close(l.done)
	for range l.wake {
		// The sender that woke us is rarely alone: the other runnable
		// ranks are about to queue frames of their own. Go to the back
		// of the run queue first, or each of them costs a write (on the
		// harness's fleet workload: 2.3 frames a write without this
		// line, 22 with it).
		runtime.Gosched()
		if err := l.flush(); err != nil && l.onWriteErr != nil {
			l.onWriteErr(err)
		}
	}
}

// sendData queues one data frame and returns its body size; the frame
// is in flight — the writer has been woken if need be — when sendData
// returns. A message that cannot be encoded is reported as
// errUnencodable; any other error is the link's write failure, which
// every later send meets at once.
func (l *link) sendData(dest int, msg message) (int, error) {
	size, pending, err := l.queue(func(dst []byte) ([]byte, error) {
		dst, err := appendDataFrame(dst, dest, msg)
		if err != nil {
			err = fmt.Errorf("%w: %w", errUnencodable, err)
		}
		return dst, err
	})
	if err == nil && pending > highWater {
		err = l.flush()
	}
	return size, err
}

// sendCtl sends one control document: behind the data frames already
// queued, and written, with them, before it returns.
func (l *link) sendCtl(m *ctlMsg) error {
	if _, _, err := l.queue(func(dst []byte) ([]byte, error) { return appendCtlFrame(dst, m) }); err != nil {
		return err
	}
	return l.flush()
}

// recv reads one frame body, enforcing the body-size cap before
// allocating so a corrupt or hostile length prefix cannot drive an
// arbitrary allocation. The body is only valid until the next recv.
func (l *link) recv() ([]byte, error) {
	size, err := binary.ReadUvarint(l.br)
	if err != nil {
		return nil, err
	}
	if size == 0 || size > maxFrameBody {
		return nil, fmt.Errorf("mpi: frame body of %d bytes out of range", size)
	}
	if uint64(cap(l.body)) < size {
		l.body = make([]byte, size)
	}
	body := l.body[:size]
	if size > highWater {
		l.body = nil
	}
	if _, err := io.ReadFull(l.br, body); err != nil {
		return nil, err
	}
	return body, nil
}

// recvCtl reads one frame that must be a control document (the only
// kind legal while forming, and ever on the coordinator's side).
func (l *link) recvCtl() (*ctlMsg, error) {
	body, err := l.recv()
	if err != nil {
		return nil, err
	}
	return decodeCtlFrame(body)
}

// close stops the writer, writes what is still queued and closes the
// connection: every frame queued before close reaches the kernel ahead
// of the FIN.
func (l *link) close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	close(l.wake)
	l.mu.Unlock()
	l.conn.SetWriteDeadline(time.Now().Add(closeFlushTimeout))
	<-l.done
	l.flush()
	l.conn.Close()
}
