package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"testing"

	"chameleon/internal/trace"
	"chameleon/internal/tracegen"
)

// A PUT is hashed before it is decoded, and the hash is answered from
// the index only for the tenant that holds it: the same bytes are a cold
// ingest for any other tenant, stored in its own tree and charged to its
// own quota.
func TestHashFirstDedupIsPerTenant(t *testing.T) {
	payload, id, err := Encode(tracegen.SendRecvTrace(8, "PHASE", 40, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Room for exactly one run of this size per tenant.
	a, srv := newTestServer(t, Options{QuotaBytes: int64(len(payload))}, ServerOptions{})
	for _, step := range []struct {
		tenant string
		want   int
	}{
		{"acme", http.StatusCreated},
		{"acme", http.StatusOK}, // dedup, answered from acme's index
		{"globex", http.StatusCreated},
		{"globex", http.StatusOK},
	} {
		if code, body, _ := tenantDo(t, http.MethodPut, srv.URL+"/runs", step.tenant, payload, nil); code != step.want {
			t.Fatalf("PUT as %s: %d (%s), want %d", step.tenant, code, body, step.want)
		}
	}
	if u := a.Usage(); u["acme"] != int64(len(payload)) || u["globex"] != int64(len(payload)) {
		t.Fatalf("usage %v, want %d charged to each tenant", u, len(payload))
	}
	// globex's quota is spent on its own copy: another run is refused.
	other, _, err := Encode(tracegen.SendRecvTrace(8, "PHASE", 40, 2))
	if err != nil {
		t.Fatal(err)
	}
	if code, body, _ := tenantDo(t, http.MethodPut, srv.URL+"/runs", "globex", other, nil); code != http.StatusTooManyRequests {
		t.Fatalf("second run as globex: %d (%s), want 429", code, body)
	}
	// And its copy is its own: acme deleting and compacting leaves it.
	if err := a.Tenant("acme").Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Compact(); err != nil {
		t.Fatal(err)
	}
	if raw, _, err := a.Tenant("globex").Payload(id); err != nil || !bytes.Equal(raw, payload) {
		t.Fatalf("globex's copy after acme's delete: %v", err)
	}
}

// A PUT of bytes the tenant deleted is a new ingest, not a dedup.
func TestPutAfterDeleteReingests(t *testing.T) {
	a, srv := newTestServer(t, Options{}, ServerOptions{})
	payload, id, err := Encode(tracegen.SendRecvTrace(8, "PHASE", 40, 1))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{http.StatusCreated, http.StatusOK} {
		if resp, _ := putTrace(t, srv.URL, payload, false); resp.StatusCode != want {
			t.Fatalf("PUT %d: %s, want %d", i, resp.Status, want)
		}
	}
	if err := a.Delete(id); err != nil {
		t.Fatal(err)
	}
	resp, run := putTrace(t, srv.URL, payload, false)
	if resp.StatusCode != http.StatusCreated || run.ID != id || run.Events == 0 {
		t.Fatalf("PUT after delete: %s %+v, want 201 and a described run", resp.Status, run)
	}
	if raw, _, err := a.Payload(id); err != nil || !bytes.Equal(raw, payload) {
		t.Fatalf("re-ingested payload: %v", err)
	}
}

// The window a hash-first dedup leaves open, taken deterministically:
// the bytes parse as held (so nothing is read), the run is deleted, and
// only then does the ingest run. It must find the run gone, read the
// bytes and store them again — not describe a run with no summary.
func TestIngestOfHeldBytesDeletedBeforeIngest(t *testing.T) {
	a := openTemp(t, Options{})
	f := tracegen.SendRecvTrace(8, "PHASE", 40, 1)
	payload, id, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Ingest(f); err != nil {
		t.Fatal(err)
	}
	p, err := a.parse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if p.sum != nil || p.id != id || !bytes.Equal(p.canon, payload) {
		t.Fatalf("held bytes parsed as %+v: want no summary, the held ID and the bytes themselves", p)
	}
	if err := a.Delete(id); err != nil {
		t.Fatal(err)
	}
	run, created, err := a.ingest(&p)
	if err != nil || !created {
		t.Fatalf("ingest after delete: created=%v err=%v", created, err)
	}
	if p.sum == nil || run.ID != id || run.Events != trace.DynamicEvents(f.Nodes) || run.Nodes != trace.NodeCount(f.Nodes) {
		t.Fatalf("ingest after delete described %+v (bytes read: %v)", run, p.sum != nil)
	}
	if raw, _, err := a.Payload(id); err != nil || !bytes.Equal(raw, payload) {
		t.Fatalf("payload after re-ingest: %v", err)
	}
}

// The same window under load: dedup PUTs from two HTTP clients and
// IngestBytes (the anti-entropy pull's way in) from two more, while the
// run is deleted over and over. Every ingest answers dedup or new with a
// fully described run; run it under -race. With "held" checked in parse
// and trusted by ingest, this panics in describe within a few hundred
// iterations.
func TestDeleteRacingDedupPut(t *testing.T) {
	a, srv := newTestServer(t, Options{}, ServerOptions{})
	f := tracegen.SendRecvTrace(8, "PHASE", 40, 1)
	payload, id, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	want := trace.DynamicEvents(f.Nodes)
	put := func() (int, error) {
		req, err := http.NewRequest(http.MethodPut, srv.URL+"/runs", bytes.NewReader(payload))
		if err != nil {
			return 0, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		var run Run
		if err := json.NewDecoder(resp.Body).Decode(&run); err != nil {
			return resp.StatusCode, err
		}
		if run.ID != id || run.Events != want {
			return resp.StatusCode, fmt.Errorf("answered %+v", run)
		}
		return resp.StatusCode, nil
	}
	if code, err := put(); err != nil || code != http.StatusCreated {
		t.Fatalf("first PUT: %d %v", code, err)
	}

	pull := func() (int, error) {
		run, created, err := a.IngestBytes(payload)
		switch {
		case err != nil:
			return 0, err
		case run.ID != id || run.Events != want:
			return 0, fmt.Errorf("ingested %+v", run)
		case created:
			return http.StatusCreated, nil
		}
		return http.StatusOK, nil
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	codes := map[int]int{}
	for _, w := range []struct {
		ingest func() (int, error)
		n      int
	}{{put, 50}, {put, 50}, {pull, 500}, {pull, 500}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < w.n; i++ {
				code, err := w.ingest()
				if err != nil || (code != http.StatusOK && code != http.StatusCreated) {
					t.Errorf("ingest: %d %v", code, err)
					return
				}
				mu.Lock()
				codes[code]++
				mu.Unlock()
			}
		}()
	}
	stop, deleted := make(chan struct{}), make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				deleted <- n
				return
			default:
			}
			if err := a.Delete(id); err == nil {
				n++
			} else if !errors.Is(err, ErrNotFound) {
				t.Error(err)
			}
			runtime.Gosched()
		}
	}()
	wg.Wait()
	close(stop)
	deletes := <-deleted
	t.Logf("answers %v, %d deletes", codes, deletes)
	if codes[http.StatusCreated] == 0 {
		t.Fatal("nothing was ever re-ingested: the deletes never interleaved")
	}
}
