package httpx

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// countingLease counts its references.
type countingLease struct{ refs atomic.Int32 }

func (l *countingLease) Retain()  { l.refs.Add(1) }
func (l *countingLease) Release() { l.refs.Add(-1) }

// Every reader of a leased body holds one reference until it is closed,
// however often: the first and each one GetBody makes, which reads the
// body whole.
func TestNewRequestLeasesEachReader(t *testing.T) {
	lease := &countingLease{}
	req, err := NewRequest(http.MethodPut, "http://peer/runs", []byte("payload"), lease)
	if err != nil {
		t.Fatal(err)
	}
	if req.ContentLength != 7 || req.GetBody == nil || lease.refs.Load() != 1 {
		t.Fatalf("ContentLength %d, GetBody set %v, %d references", req.ContentLength, req.GetBody != nil, lease.refs.Load())
	}
	again, err := req.GetBody()
	if err != nil || lease.refs.Load() != 2 {
		t.Fatalf("after GetBody: %d references, %v", lease.refs.Load(), err)
	}
	req.Body.Close()
	req.Body.Close()
	if n := lease.refs.Load(); n != 1 {
		t.Fatalf("a reader closed twice gave back %d references", 1-n+1)
	}
	if got, _ := io.ReadAll(again); string(got) != "payload" {
		t.Fatalf("GetBody's reader read %q", got)
	}
	again.Close()
	if n := lease.refs.Load(); n != 0 {
		t.Fatalf("every reader closed: %d references", n)
	}

	req, err = NewRequest(http.MethodPut, "http://peer/runs", nil, lease)
	if err != nil || req.Body != nil || req.ContentLength != 0 || lease.refs.Load() != 0 {
		t.Fatalf("an empty body: Body %v, ContentLength %d, %d references, %v", req.Body, req.ContentLength, lease.refs.Load(), err)
	}
}

// writeCounter is a connection that records the writes made to it.
type writeCounter struct {
	net.Conn
	writes int
	got    bytes.Buffer
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.got.Write(p)
}

// A body in memory under the transport's limit is written in one call,
// straight from its bytes, allocating nothing; any other reader is
// copied whole as before.
func TestInMemoryBodyWrittenWithoutCopyBuffer(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789abcdef"), 8<<10) // 128 KB, four copy buffers' worth
	req, err := NewRequest(http.MethodPut, "http://peer/runs", payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := &writeCounter{}
	c := conn{w}
	lr := &io.LimitedReader{R: req.Body, N: req.ContentLength}
	if n, err := c.ReadFrom(lr); err != nil || n != int64(len(payload)) || lr.N != 0 {
		t.Fatalf("ReadFrom: %d bytes, %d left under the limit, %v", n, lr.N, err)
	}
	if w.writes != 1 || !bytes.Equal(w.got.Bytes(), payload) {
		t.Fatalf("%d writes of %d bytes, want 1 of the payload", w.writes, w.got.Len())
	}
	rd := req.Body.(*body)
	allocs := testing.AllocsPerRun(100, func() {
		rd.Reset(payload)
		lr.R, lr.N = rd, int64(len(payload))
		w.got.Reset()
		c.ReadFrom(lr)
	})
	if allocs != 0 {
		t.Fatalf("writing a body in memory allocated %.1f times", allocs)
	}

	w = &writeCounter{}
	c = conn{w}
	other := struct{ io.Reader }{bytes.NewReader(payload)} // no WriteTo, no Len
	if n, err := c.ReadFrom(&io.LimitedReader{R: other, N: int64(len(payload))}); err != nil || n != int64(len(payload)) {
		t.Fatalf("ReadFrom of another reader: %d bytes, %v", n, err)
	}
	if !bytes.Equal(w.got.Bytes(), payload) || w.writes < 2 {
		t.Fatalf("another reader: %d writes of %d bytes, want it copied through a buffer", w.writes, w.got.Len())
	}
}

// A request on Transport carries its body whole, and the answer comes
// back as sent: no transparent gzip.
func TestTransportSendsBodyAndLeavesGzipAlone(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		w.Header().Set("X-Accept-Encoding", r.Header.Get("Accept-Encoding"))
		w.Write(body)
	}))
	defer srv.Close()
	payload := strings.Repeat("chameleon ", 10<<10)
	lease := &countingLease{}
	lease.Retain() // the caller's own
	req, err := NewRequest(http.MethodPut, srv.URL, []byte(payload), lease)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := Client(0).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(got) != payload || resp.Header.Get("X-Accept-Encoding") != "" {
		t.Fatalf("echoed %d of %d bytes; the transport asked for %q", len(got), len(payload), resp.Header.Get("X-Accept-Encoding"))
	}
	// The transport may close the body just after it hands back the
	// answer.
	for deadline := time.Now().Add(5 * time.Second); lease.refs.Load() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("after the round trip: %d references, want the caller's alone", lease.refs.Load())
		}
	}
}
