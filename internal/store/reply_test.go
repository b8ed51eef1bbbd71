package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chameleon/internal/tracegen"
)

// A handler still running at RequestTimeout is answered 503 by the
// pipeline itself; here the listing waits on the archive's lock, which
// the test holds past the deadline.
func TestStuckHandlerAnsweredAtDeadline(t *testing.T) {
	a := openTemp(t, Options{})
	srv := httptest.NewServer(NewServer(a, ServerOptions{RequestTimeout: 50 * time.Millisecond}))
	defer srv.Close()

	a.mu.Lock()
	start := time.Now()
	code, body, hdr := tenantDo(t, http.MethodGet, srv.URL+"/runs", "", nil, nil)
	took := time.Since(start)
	a.mu.Unlock()
	if code != http.StatusServiceUnavailable || string(body) != "chamd: request timed out\n" {
		t.Fatalf("stuck handler: %d %q, want 503 %q", code, body, "chamd: request timed out\n")
	}
	if ct := hdr.Get("Content-Type"); ct != "text/plain; charset=utf-8" {
		t.Fatalf("503 Content-Type %q", ct)
	}
	if took > 5*time.Second {
		t.Fatalf("503 after %v, deadline 50ms", took)
	}
	// The handler that was left behind finishes; the next one is answered.
	if code, body, _ := tenantDo(t, http.MethodGet, srv.URL+"/runs", "", nil, nil); code != http.StatusOK {
		t.Fatalf("after the lock is released: %d %s", code, body)
	}
}

// slowReader hands out its bytes only after a pause.
type slowReader struct {
	pause time.Duration
	r     io.Reader
}

func (s *slowReader) Read(p []byte) (int, error) {
	if s.pause > 0 {
		time.Sleep(s.pause)
		s.pause = 0
	}
	return s.r.Read(p)
}

// The deadline counts from the request's start: a body that finishes
// arriving only after it is answered 503, and the handler never runs.
func TestSlowBodyAnsweredAtDeadline(t *testing.T) {
	a := openTemp(t, Options{})
	srv := httptest.NewServer(NewServer(a, ServerOptions{RequestTimeout: 50 * time.Millisecond}))
	defer srv.Close()
	payload, _, err := Encode(tracegen.SendRecvTrace(4, "slow", 40, 1))
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, srv.URL+"/runs", &slowReader{pause: 200 * time.Millisecond, r: bytes.NewReader(payload)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || string(body) != "chamd: request timed out\n" {
		t.Fatalf("slow body: %d %q", resp.StatusCode, body)
	}
	time.Sleep(300 * time.Millisecond) // well after the whole body arrived
	if n := a.Len(); n != 0 {
		t.Fatalf("the handler ran past the deadline: %d runs stored", n)
	}
}

// bodyCounter is an intra-mesh client transport that counts the
// response bodies it hands out and how many of them were closed.
type bodyCounter struct{ opened, closed atomic.Int64 }

func (c *bodyCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil {
		c.opened.Add(1)
		resp.Body = &countedBody{ReadCloser: resp.Body, c: c}
	}
	return resp, err
}

type countedBody struct {
	io.ReadCloser
	c    *bodyCounter
	once sync.Once
}

func (b *countedBody) Close() error {
	b.once.Do(func() { b.c.closed.Add(1) })
	return b.ReadCloser.Close()
}

// A proxied read whose peer answers after the deadline is answered 503,
// and the peer's answer, which nobody will relay, is closed rather than
// left holding its connection.
func TestDroppedRelayClosesPeerBody(t *testing.T) {
	release := make(chan struct{})
	counter := &bodyCounter{}
	peers := startMesh(t, 2, meshConfig{
		server: func(int) ServerOptions { return ServerOptions{RequestTimeout: 50 * time.Millisecond} },
		client: func(int) *http.Client { return &http.Client{Transport: counter} },
		stub: func(i int) http.Handler {
			if i != 1 {
				return nil
			}
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				<-release
				w.Write([]byte("payload the edge will not relay"))
			})
		},
	})
	code, body, _ := tenantDo(t, http.MethodGet, peers[0].url+"/runs/"+strings.Repeat("ab", 32), "", nil, nil)
	close(release)
	if code != http.StatusServiceUnavailable || string(body) != "chamd: request timed out\n" {
		t.Fatalf("proxied read past the deadline: %d %q", code, body)
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		opened, closed := counter.opened.Load(), counter.closed.Load()
		if opened == 1 && closed == 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("peer bodies: %d opened, %d closed; want 1, 1", opened, closed)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A body over MaxBodyBytes is answered 413, and the connection it came
// on is closed rather than read on for a next request.
func TestOverCapBodyClosesConnection(t *testing.T) {
	a := openTemp(t, Options{})
	srv := httptest.NewServer(NewServer(a, ServerOptions{MaxBodyBytes: 1 << 10}))
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const size = 256 << 10
	go func() { // the server stops reading, so this write may fail
		fmt.Fprintf(conn, "PUT /runs HTTP/1.1\r\nHost: chamd\r\nContent-Length: %d\r\n\r\n", size)
		conn.Write(make([]byte, size))
	}()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !resp.Close {
		t.Fatalf("over-cap PUT: %d, Connection: close %v: %s", resp.StatusCode, resp.Close, body)
	}
	if n, err := br.Read(make([]byte, 1)); n != 0 || err == nil {
		t.Fatalf("connection still open after a 413: read %d, %v", n, err)
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("connection still open after a 413: read timed out")
	}
}

// A reply's Content-Length is its peer's claim: it sizes the read buffer
// only up to maxBodyPresize, and a body that does not match it is an
// error. A body with no length grows as it arrives; a true length past
// the pre-size is read whole.
func TestReadReplyLength(t *testing.T) {
	b, err := readReply(strings.NewReader("{}"), 64<<20, nil)
	if err == nil {
		t.Fatal("a 2-byte body claiming 64 MiB read without error")
	}
	if cap(b) > 2*maxBodyPresize {
		t.Fatalf("a claimed 64 MiB reserved %d bytes", cap(b))
	}
	if _, err := readReply(strings.NewReader(`{"total":3}`), 100, nil); err == nil {
		t.Fatal("a body shorter than its length read without error")
	}
	big := bytes.Repeat([]byte("x"), 3*maxBodyPresize)
	for _, length := range []int64{-1, int64(len(big))} {
		b, err := readReply(bytes.NewReader(big), length, nil)
		if err != nil || !bytes.Equal(b, big) {
			t.Fatalf("length %d: %d bytes read, %v", length, len(b), err)
		}
	}
	// A body that keeps its word is read into the buffer sized for it,
	// never grown.
	small := []byte(`{"total":3}`)
	sized := cap(slices.Grow([]byte(nil), len(small)))
	if b, err := readReply(eofWithLast{bytes.NewReader(small)}, int64(len(small)), nil); err != nil || cap(b) != sized {
		t.Fatalf("true length: cap %d for %d bytes (sized %d), %v", cap(b), len(small), sized, err)
	}
}

// eofWithLast returns io.EOF with the last bytes of its reader, as the
// client transport does for a body of stated length.
type eofWithLast struct{ r *bytes.Reader }

func (e eofWithLast) Read(p []byte) (int, error) {
	n, err := e.r.Read(p)
	if err == nil && e.r.Len() == 0 {
		err = io.EOF
	}
	return n, err
}

// Over HTTP: a chunked reply (no Content-Length) decodes; a reply cut
// short of its Content-Length is an error, even when what did arrive is
// a whole JSON value.
func TestCallReadsChunkedAndRefusesShortReplies(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/chunked":
			w.Header().Set("Content-Type", "application/json")
			for _, part := range []string{`{"total":`, `3,"runs":[`, `]}`} {
				io.WriteString(w, part)
				w.(http.Flusher).Flush()
			}
		case "/short":
			conn, brw, err := w.(http.Hijacker).Hijack()
			if err != nil {
				return
			}
			defer conn.Close()
			brw.WriteString("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n" + `{"total":3}`)
			brw.Flush()
		}
	}))
	defer srv.Close()

	var lr ListResponse
	resp, err := call(http.MethodGet, srv.URL+"/chunked", nil, "", false, &lr)
	if err != nil || lr.Total != 3 || resp.ContentLength != -1 {
		t.Fatalf("chunked reply: total %d, Content-Length %d, %v", lr.Total, resp.ContentLength, err)
	}
	lr = ListResponse{}
	if err := getJSON(srv.URL+"/short", &lr); err == nil {
		t.Fatalf("a reply 89 bytes short of its length decoded: %+v", lr)
	}
	var raw []byte
	if _, err := call(http.MethodGet, srv.URL+"/short", nil, "", false, &raw); err == nil {
		t.Fatalf("a reply 89 bytes short of its length read: %q", raw)
	}
}

// A buffer that grew past maxBodyPresize for one large reply, read or
// written, is not kept in its pool.
func TestLargeReplyBuffersLeaveThePool(t *testing.T) {
	large := strings.Repeat("x", 2*maxBodyPresize)
	body, err := json.Marshal(large)
	if err != nil {
		t.Fatal(err)
	}
	var got string
	if err := readJSON(bytes.NewReader(body), int64(len(body)), &got); err != nil || got != large {
		t.Fatalf("large reply: %d bytes, %v", len(got), err)
	}
	for i := 0; i < 4; i++ {
		if bp := replyBufs.Get().(*[]byte); cap(*bp) > maxBodyPresize {
			t.Fatalf("a %d-byte read buffer went back to the pool", cap(*bp))
		}
	}

	s := newServer(openTemp(t, Options{}), ServerOptions{})
	rec := httptest.NewRecorder()
	s.write(rec, reply{body: large})
	if rec.Body.Len() != len(body)+1 {
		t.Fatalf("large JSON reply: %d bytes, want %d", rec.Body.Len(), len(body)+1)
	}
	for i := 0; i < 4; i++ {
		if buf := jsonBufs.Get().(*bytes.Buffer); buf.Cap() > maxBodyPresize {
			t.Fatalf("a %d-byte reply buffer went back to the pool", buf.Cap())
		}
	}
}

// A value JSON cannot encode is a 500 with nothing else written, not a
// 200 whose body stops short.
func TestUnencodableReplyIs500(t *testing.T) {
	s := newServer(openTemp(t, Options{}), ServerOptions{})
	rec := httptest.NewRecorder()
	s.write(rec, reply{etag: `"x"`, body: map[string]any{"bad": func() {}}})
	if rec.Code != http.StatusInternalServerError || rec.Header().Get("ETag") != "" {
		t.Fatalf("unencodable reply: %d, ETag %q: %s", rec.Code, rec.Header().Get("ETag"), rec.Body)
	}
	if !strings.HasPrefix(rec.Body.String(), "chamd: encode reply: ") {
		t.Fatalf("unencodable reply body %q", rec.Body)
	}
}

// GET /runs?limit=100 through a 3-peer R=2 mesh of 200 runs — the edge's
// own page, both peers' answers read and merged, the client's decode of
// the page — is bounded in bytes. Each reply is read into one buffer of
// its length and unmarshalled, on the edge and in the client, and the
// JSON of each is written once, from a pooled buffer: ~0.43 MB. With
// json.Decoder reading the peers' answers it is ~0.68 MB; with
// json.Decoder on both readers and every reply copied by
// http.TimeoutHandler, ~1.0 MB.
func TestListingAllocationBound(t *testing.T) {
	skipUnderRace(t)
	const bound = 500 << 10
	peers := startMesh(t, 3, meshConfig{replicas: 2})
	at := map[string]*fedPeer{}
	for _, p := range peers {
		at[p.url] = p
	}
	for i := 0; i < 200; i++ {
		payload, id, err := Encode(tracegen.SendRecvTrace(4, fmt.Sprintf("list-%d", i), 40, uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		for _, owner := range peers[0].node.Owners(id) {
			if _, _, err := at[owner].a.IngestBytes(payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	list := func() {
		lr, err := FetchRuns(peers[0].url, "", 100, 0)
		if err != nil || len(lr.Runs) != 100 || lr.Total != 200 || lr.Partial != nil {
			t.Fatalf("listing: %d runs of %d, partial %v, %v", len(lr.Runs), lr.Total, lr.Partial, err)
		}
	}
	list() // warm the connections
	got := bytesAllocated(20, list)
	t.Logf("GET /runs?limit=100 over 200 runs on 3 peers: %d B allocated, bound %d", got, bound)
	if got > bound {
		t.Fatalf("a listing allocated %d B, bound %d", got, bound)
	}
}
