package mpi

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// link is one framed fleet connection: a mesh connection to a peer, or
// either end of the rendezvous connection. It owns the transport's only
// frame writer and only frame reader, so the body-size cap, the
// flush-per-frame rule, and any future batching or fault injection are
// stated once for every byte the fleet exchanges.
//
// send may be called from any goroutine; recv belongs to the one
// goroutine draining the connection (the buffered reader lives as long
// as the link, so nothing read ahead of one frame is lost to the next).
type link struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	wmu  sync.Mutex // serializes frames from concurrent senders
}

// wrapConn is applied to every connection a link is built on. Identity
// outside tests, which swap in an adversarial net.Conn (short writes,
// delays, a stalled reader) to put the whole fleet on a hostile wire.
var wrapConn = func(c net.Conn) net.Conn { return c }

func newLink(conn net.Conn) *link {
	conn = wrapConn(conn)
	return &link{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
}

// dialTimeout bounds each dial while the fleet forms.
const dialTimeout = 20 * time.Second

// dialLink dials addr until it answers or dialTimeout expires (the
// coordinator, or a peer's data listener, may not have bound yet).
func dialLink(addr string) (*link, error) {
	deadline := time.Now().Add(dialTimeout)
	for {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			return newLink(conn), nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// send writes one length-prefixed frame body and flushes it: a frame
// handed to send is on its way when send returns, which is what lets
// the consistent cut count a frame as sent the moment deposit returns.
func (l *link) send(body []byte) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	prefix := binary.AppendUvarint(l.bw.AvailableBuffer(), uint64(len(body)))
	if _, err := l.bw.Write(prefix); err != nil {
		return err
	}
	if _, err := l.bw.Write(body); err != nil {
		return err
	}
	return l.bw.Flush()
}

// recv reads one frame body, enforcing the body-size cap before
// allocating so a corrupt or hostile length prefix cannot drive an
// arbitrary allocation.
func (l *link) recv() ([]byte, error) {
	size, err := binary.ReadUvarint(l.br)
	if err != nil {
		return nil, err
	}
	if size == 0 || size > maxFrameBody {
		return nil, fmt.Errorf("mpi: frame body of %d bytes out of range", size)
	}
	body := make([]byte, size)
	if _, err := io.ReadFull(l.br, body); err != nil {
		return nil, err
	}
	return body, nil
}

// sendCtl sends one control document.
func (l *link) sendCtl(m *ctlMsg) error {
	body, err := appendCtlFrame(nil, m)
	if err != nil {
		return err
	}
	return l.send(body)
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

func (l *link) close() { l.conn.Close() }
