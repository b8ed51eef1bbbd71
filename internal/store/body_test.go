package store

// Request bodies: a PUT body is read into a pooled buffer (readBody) that
// its holders share by reference count — serve until the reply is
// written, bounded's handler goroutine until it returns, and each reader
// a mesh call hands the transport until the transport closes it. These
// tests run with poisonReleased on (TestMain, for the whole package), so
// a holder that reads the bytes after its reference is gone reads 0xA5s,
// not a plausible body.

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"testing"
	"time"

	"chameleon/internal/mesh"
	"chameleon/internal/mpi"
	"chameleon/internal/obs"
	"chameleon/internal/sig"
	"chameleon/internal/trace"
	"chameleon/internal/tracegen"
)

func TestMain(m *testing.M) {
	poisonReleased.Store(true)
	os.Exit(m.Run())
}

// nonOwned returns n canonical payloads (and their IDs) of at least
// size bytes whose owners do not include edge. They are one trace,
// tracegen.SendRecvTrace grown by broadcasts from 16 call sites until it
// is large enough, under a benchmark name of its own each.
func nonOwned(t *testing.T, edge *fedPeer, n, size int, benchmark string) ([][]byte, []string) {
	t.Helper()
	f := tracegen.SendRecvTrace(4, benchmark, 40, 0)
	ranks := f.Nodes[1].Ranks
	for i := 0; ; i++ {
		if i%64 == 0 {
			payload, _, err := Encode(f)
			if err != nil {
				t.Fatal(err)
			}
			if len(payload) >= size {
				break
			}
		}
		ev := trace.Event{Op: mpi.OpBcast, Stack: sig.Stack(sig.Mix(uint64(1000 + i%16))), Bytes: 8 * i}
		f.Nodes = append(f.Nodes, trace.NewLeaf(ev, ranks, int64(100*i)))
	}
	var payloads [][]byte
	var ids []string
	for k := 0; len(payloads) < n; k++ {
		f.Benchmark = fmt.Sprintf("%s-%d", benchmark, k)
		payload, id, err := Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		if !edge.node.IsOwner(id) {
			payloads, ids = append(payloads, payload), append(ids, id)
		}
	}
	return payloads, ids
}

// waitStored waits until p holds id and returns the bytes it serves for
// it, verified against the content address (Payload).
func waitStored(t *testing.T, p *fedPeer, id string) []byte {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; {
		b, _, err := p.a.Tenant("").Payload(id)
		if err == nil {
			return b
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never stored %s: %v", p.url, id[:12], err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A PUT whose handler is still running when its 503 goes out keeps its
// bytes: the handler goroutine holds its own reference on the body, so
// when it goes on to scan and replicate the run, every owner stores bytes
// that hash to the run's address. Several PUTs dropped at once each store
// their own bytes, whatever the pool handed out meanwhile.
func TestPutDroppedAtDeadlineKeepsItsBytes(t *testing.T) {
	peers := startMesh(t, 3, meshConfig{replicas: 2,
		server: func(i int) ServerOptions {
			if i == 0 {
				return ServerOptions{RequestTimeout: 50 * time.Millisecond}
			}
			return ServerOptions{}
		}})
	edge := peers[0]
	payloads, ids := nonOwned(t, edge, 5, 16<<10, "dropped")
	fresh := payloads[4]
	payloads, ids = payloads[:4], ids[:4]

	edge.a.mu.Lock() // every handler blocks on the edge's index
	var wg sync.WaitGroup
	codes := make([]int, len(payloads))
	for i, payload := range payloads {
		wg.Add(1)
		go func(i int, payload []byte) {
			defer wg.Done()
			codes[i], _, _ = tenantDo(t, http.MethodPut, edge.url+"/runs", "", payload, nil)
		}(i, payload)
	}
	wg.Wait()
	edge.a.mu.Unlock()
	for i, code := range codes {
		if code != http.StatusServiceUnavailable {
			t.Fatalf("PUT %d with the edge's index held: %d, want 503", i, code)
		}
	}
	// A PUT elsewhere borrows whatever buffer the pool holds meanwhile.
	if code, body, _ := tenantDo(t, http.MethodPut, peers[1].url+"/runs", "", fresh, nil); code != http.StatusCreated {
		t.Fatalf("PUT after the dropped ones: %d %s", code, body)
	}

	at := map[string]*fedPeer{}
	for _, p := range peers {
		at[p.url] = p
	}
	for i, id := range ids {
		for _, owner := range edge.node.Owners(id) {
			if got := waitStored(t, at[owner], id); !bytes.Equal(got, payloads[i]) {
				t.Fatalf("%s holds %s as %d other bytes", owner, id[:12], len(got))
			}
		}
	}
}

// A peer may answer a forwarded PUT before it has read the body, and
// the caller may let go of the body as soon as Do returns: the reader
// the transport is still writing from holds its own reference until the
// transport closes it, so what the peer reads after that is the bytes
// the caller sent, all of them.
func TestForwardAnsweredBeforeBodyReadKeepsItsBytes(t *testing.T) {
	type got struct {
		n, diverged int // bytes read; offset of the first that differs from sent, or -1
		err         error
	}
	answered, read := make(chan struct{}), make(chan got, 1)
	var sent []byte
	peers := startMesh(t, 2, meshConfig{
		stub: func(i int) http.Handler {
			if i != 1 {
				return nil
			}
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if err := http.NewResponseController(w).EnableFullDuplex(); err != nil {
					read <- got{err: err}
					return
				}
				w.Header().Set("Content-Length", "2")
				io.WriteString(w, "{}")
				http.NewResponseController(w).Flush()
				<-answered
				g := got{diverged: -1}
				buf := make([]byte, 64<<10)
				for {
					n, err := r.Body.Read(buf)
					if g.diverged < 0 && !bytes.Equal(buf[:n], sent[g.n:min(g.n+n, len(sent))]) {
						g.diverged = g.n
					}
					g.n += n
					if err != nil {
						if err != io.EOF {
							g.err = err
						}
						break
					}
				}
				read <- g
			})
		},
	})
	// Larger than loopback's socket buffers, so the transport is still
	// writing it when the peer answers.
	b := bodyBufs.Get().(*bodyBuf)
	b.refs.Store(1)
	for i := 0; b.buf.Len() < 8<<20; i++ {
		fmt.Fprintf(&b.buf, `{"from":%d,"to":%d,"seq":%d}`+"\n", i%64, (i+1)%64, i)
	}
	sent = bytes.Clone(b.buf.Bytes())
	resp, err := peers[0].node.Do(mesh.Call{Method: http.MethodPut, Peer: peers[1].url, Path: "/runs",
		Body: b.buf.Bytes(), Lease: b})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b.Release() // the caller is done with the body
	close(answered)
	select {
	case g := <-read:
		if g.err != nil || g.n != len(sent) || g.diverged >= 0 {
			t.Fatalf("the peer read %d of %d bytes (diverging at %d): %v", g.n, len(sent), g.diverged, g.err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("the peer never finished reading the body")
	}
	io.Copy(io.Discard, resp.Body)
}

// A cold PUT of a 64 KB payload through a non-owner edge of a 3-peer,
// R=2 mesh, every goroutine of the process counted (client, edge, both
// owners), allocates less than one payload more than a fixed term.
// Measured: ~49 KB. Before bodies were leased from a pool and written
// from their own bytes it took ~370 KB, about six payload-sized
// buffers: the client's copy buffer, the edge's body, a copy buffer for
// each of the two forwards, and each owner's body.
func TestReplicatedPutAllocationBound(t *testing.T) {
	skipUnderRace(t)
	const size = 64 << 10
	peers := startMesh(t, 3, meshConfig{replicas: 2})
	edge := peers[0]
	const perRound = 5
	payloads, ids := nonOwned(t, edge, 3*perRound+1, size, "bound")
	next := 0
	put := func() {
		run, created, err := PushBytes(edge.url, payloads[next], false)
		if err != nil || !created || run.ID != ids[next] {
			t.Fatalf("cold PUT: created=%v id=%s (want %s) err=%v", created, run.ID, ids[next], err)
		}
		next++
	}
	put() // warm the connections and the pools
	got := bytesAllocated(perRound, put)
	bound := uint64(len(payloads[0]) + 64<<10)
	t.Logf("cold PUT of %d bytes through a non-owner edge: %d B allocated, bound %d", len(payloads[0]), got, bound)
	if got > bound {
		t.Fatalf("a replicated PUT allocated %d B, bound %d", got, bound)
	}
}

// One replicated PUT through a non-owner edge moves the edge's per-peer
// counters of exactly its two owners: one request each, the canonical
// payload's length each, no errors; the third peer's stay at zero.
func TestMeshPeerCountersOnReplicatedPut(t *testing.T) {
	regs := []*obs.Registry{obs.NewRegistry(), obs.NewRegistry(), obs.NewRegistry()}
	peers := startMesh(t, 3, meshConfig{replicas: 2,
		server: func(i int) ServerOptions { return ServerOptions{Reg: regs[i]} }})
	edge := peers[0]
	payloads, ids := nonOwned(t, edge, 1, 0, "counted")
	if code, body, _ := tenantDo(t, http.MethodPut, edge.url+"/runs", "", payloads[0], nil); code != http.StatusCreated {
		t.Fatalf("PUT: %d %s", code, body)
	}
	owners := edge.node.Owners(ids[0])
	snap := regs[0].Snapshot()
	for _, p := range edge.node.Others() {
		label := `{peer="` + p + `"}`
		wantReqs, wantBytes := uint64(0), uint64(0)
		if p == owners[0] || p == owners[1] {
			wantReqs, wantBytes = 1, uint64(len(payloads[0]))
		}
		reqs, bytesOut, errs := snap.Counters["mesh_peer_requests"+label],
			snap.Counters["mesh_peer_bytes_out"+label], snap.Counters["mesh_peer_errors"+label]
		if reqs != wantReqs || bytesOut != wantBytes || errs != 0 {
			t.Errorf("%s: %d requests, %d bytes, %d errors; want %d, %d, 0", p, reqs, bytesOut, errs, wantReqs, wantBytes)
		}
		if _, ok := snap.Counters["mesh_peer_requests"+label]; !ok {
			t.Errorf("%s: no mesh_peer_requests counter registered", p)
		}
	}
}

// On a mesh that stores gzip segments, a read proxied from a peer that
// lacks the run answers a client that does not accept gzip with the raw
// payload, which hashes to the run's address, and a client that does
// with the stored gzip frame as it lies on the owner's disk.
func TestProxiedReadNegotiatesGzip(t *testing.T) {
	peers := startMesh(t, 3, meshConfig{replicas: 2,
		archive: func(int) Options { return Options{Gzip: true} }})
	payloads, ids := nonOwned(t, peers[0], 1, 0, "gzipped")
	payload, id := payloads[0], ids[0]
	if code, body, _ := tenantDo(t, http.MethodPut, peers[0].url+"/runs", "", payload, nil); code != http.StatusCreated {
		t.Fatalf("PUT: %d %s", code, body)
	}
	var owner *fedPeer
	for _, p := range peers {
		if p.url == peers[0].node.Owners(id)[0] {
			owner = p
		}
	}
	frame, _, err := owner.a.Tenant("").StoredPayload(id)
	if err != nil {
		t.Fatal(err)
	}
	get := func(acceptGzip bool) ([]byte, http.Header) {
		req, err := http.NewRequest(http.MethodGet, peers[0].url+"/runs/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		if acceptGzip {
			req.Header.Set("Accept-Encoding", "gzip")
		}
		resp, err := httpClient.Do(req) // no transparent gzip: the bytes as sent
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("proxied GET (gzip %v): %d, %v", acceptGzip, resp.StatusCode, err)
		}
		return body, resp.Header
	}

	raw, hdr := get(false)
	if enc := hdr.Get("Content-Encoding"); enc != "" || contentAddress(raw) != id || !bytes.Equal(raw, payload) {
		t.Fatalf("without gzip: Content-Encoding %q, %d bytes hashing to the address: %v",
			enc, len(raw), contentAddress(raw) == id)
	}
	zipped, hdr := get(true)
	if enc := hdr.Get("Content-Encoding"); enc != "gzip" || !bytes.Equal(zipped, frame) {
		t.Fatalf("with gzip: Content-Encoding %q, %d bytes, the stored frame is %d", enc, len(zipped), len(frame))
	}
	zr, err := gzip.NewReader(bytes.NewReader(zipped))
	if err != nil {
		t.Fatal(err)
	}
	if unzipped, err := io.ReadAll(zr); err != nil || !bytes.Equal(unzipped, payload) {
		t.Fatalf("the gzip frame holds %d other bytes: %v", len(unzipped), err)
	}
}
