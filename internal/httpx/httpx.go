// Package httpx is the HTTP transport every request this program sends
// rides: the archive client's (store), the mesh peers' (mesh.Node) and
// the live shipper's (obs). One transport means one pool of keep-alive
// connections, one policy on compression, and one way a body leaves the
// process:
//
//   - Transparent gzip is off. A caller that wants a compressed answer
//     asks for it (Accept-Encoding) and gets the bytes as sent, so
//     transfer sizes are observable and a proxied read forwards the
//     client's own negotiation.
//   - A body held in memory (NewRequest) is written onto the socket
//     straight from its bytes. net/http hands a request body to the
//     connection's ReadFrom as an *io.LimitedReader of its declared
//     length; a TCP connection copies any reader that is not a file or
//     a socket through a fresh buffer of up to 32 KB per request. The
//     connections this transport dials write a reader that holds its
//     bytes (WriteTo and Len) in one call instead, and copy any other
//     reader as before.
//   - A body's bytes may be leased: NewRequest takes one reference for
//     every reader of them it hands the transport and gives it back when
//     the transport closes that reader, so their owner can reuse the
//     bytes once the last reader is done.
package httpx

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"sync"
	"time"
)

// Transport is the one transport: http.DefaultTransport's settings,
// transparent gzip off, and connections that write a body in memory
// without a copy buffer.
var Transport http.RoundTripper = newTransport()

func newTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.DisableCompression = true
	dial := t.DialContext
	t.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := dial(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return conn{c}, nil
	}
	return t
}

// Client returns a client on Transport whose requests time out after
// timeout.
func Client(timeout time.Duration) *http.Client {
	return &http.Client{Timeout: timeout, Transport: Transport}
}

// conn is a dialled connection that writes a body held in memory
// without a copy buffer.
type conn struct{ net.Conn }

// inMemory is a reader that holds its unread bytes: it writes them in
// one call and knows how many there are.
type inMemory interface {
	io.WriterTo
	Len() int
}

// ReadFrom writes r to the connection. A reader in memory under a
// limit no shorter than it writes itself; any other reader is copied as
// the connection underneath copies it.
func (c conn) ReadFrom(r io.Reader) (int64, error) {
	if lr, ok := r.(*io.LimitedReader); ok {
		if m, ok := lr.R.(inMemory); ok && int64(m.Len()) <= lr.N {
			n, err := m.WriteTo(c.Conn)
			lr.N -= n
			return n, err
		}
	}
	return io.Copy(c.Conn, r)
}

// Lease is a reference-counted claim on bytes a request body is read
// from. Retain takes a reference, Release gives one back; the owner may
// reuse the bytes once every reference is back.
type Lease interface {
	Retain()
	Release()
}

// body is a request body read from memory. Close gives its reference on
// the lease back, once however often the transport calls it.
type body struct {
	bytes.Reader
	lease Lease
	once  sync.Once
}

func (b *body) Close() error {
	if b.lease != nil {
		b.once.Do(b.lease.Release)
	}
	return nil
}

// NewRequest is http.NewRequest over a body held in memory, b (empty:
// no body). It sets ContentLength and GetBody itself, so a request the
// transport sends again on a fresh connection (its keep-alive
// connection went stale) is sent whole. When lease is non-nil, every
// reader of b handed to the transport, the first and each one GetBody
// makes, holds a reference on it until the transport closes that
// reader. The caller holds its own reference while it calls NewRequest
// and sends the request.
func NewRequest(method, url string, b []byte, lease Lease) (*http.Request, error) {
	req, err := http.NewRequest(method, url, nil)
	if err != nil || len(b) == 0 {
		return req, err
	}
	open := func() (io.ReadCloser, error) {
		if lease != nil {
			lease.Retain()
		}
		rd := &body{lease: lease}
		rd.Reset(b)
		return rd, nil
	}
	req.ContentLength = int64(len(b))
	req.GetBody = open
	req.Body, _ = open()
	return req, nil
}
