package store

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"chameleon/internal/obs"
	"chameleon/internal/tracegen"
)

// TestConcurrentArchive64 hammers one archive from 64 goroutines with a
// mix of ingest, dedup re-ingest, list, get, delete, and compaction —
// the workload `make test-race` runs under the race detector. The
// archive must stay consistent: every surviving run resolves, every
// payload passes its content-address integrity check, and no segment
// referenced by the manifest is ever reclaimed.
func TestConcurrentArchive64(t *testing.T) {
	reg := obs.NewRegistry()
	a, err := Open(t.TempDir(), Options{Gzip: true, Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	const workers = 64
	const opsPerWorker = 12

	// A shared pool of traces: workers collide on seeds on purpose so
	// the dedup path and the create path race against each other.
	seeds := make([]uint64, 16)
	for i := range seeds {
		seeds[i] = uint64(i)
	}

	var mu sync.Mutex
	ingested := map[string]bool{} // PHASE content addresses actually stored

	var wg sync.WaitGroup
	errs := make(chan error, workers*opsPerWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for op := 0; op < opsPerWorker; op++ {
				seed := seeds[(w*opsPerWorker+op)%len(seeds)]
				switch (w + op) % 4 {
				case 0: // ingest (often a dedup of a colliding worker's run)
					run, _, err := a.Ingest(tracegen.SendRecvTrace(8, "PHASE", 40, seed))
					if err != nil {
						errs <- fmt.Errorf("worker %d ingest: %w", w, err)
						return
					}
					mu.Lock()
					ingested[run.ID] = true
					mu.Unlock()
				case 1: // query: list + fetch (PHASE runs are never deleted,
					// so everything listed must resolve and verify)
					runs, _ := a.List(Query{Benchmark: "PHASE", Limit: 4})
					for _, r := range runs {
						if _, _, err := a.Payload(r.ID); err != nil {
							errs <- fmt.Errorf("worker %d get %s: %w", w, r.ID[:12], err)
							return
						}
					}
				case 2: // churn: ingest a worker-unique run, then delete it
					run, _, err := a.Ingest(tracegen.SendRecvTrace(4, "CHURN", 40, uint64(1000+w*opsPerWorker+op)))
					if err != nil {
						errs <- fmt.Errorf("worker %d churn ingest: %w", w, err)
						return
					}
					if err := a.Delete(run.ID); err != nil {
						errs <- fmt.Errorf("worker %d delete: %w", w, err)
						return
					}
				case 3: // compaction races against everything above
					if _, err := a.Compact(); err != nil {
						errs <- fmt.Errorf("worker %d compact: %w", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Post-conditions: every PHASE run ever ingested survives (none
	// were deleted) and every payload verifies.
	runs, total := a.List(Query{Benchmark: "PHASE"})
	if total != len(ingested) {
		t.Fatalf("PHASE runs after the storm = %d, want %d", total, len(ingested))
	}
	for _, r := range runs {
		if _, _, err := a.Payload(r.ID); err != nil {
			t.Fatalf("surviving run %s: %v", r.ID[:12], err)
		}
	}
	// And a final compact reclaims all churn orphans without touching
	// live segments.
	if _, err := a.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := countSegments(t, a); got != len(ingested) {
		t.Fatalf("segments after final compact = %d, want %d", got, len(ingested))
	}
	snap := reg.Snapshot()
	if snap.Counters["store_ingests"] == 0 || snap.Counters["store_ingest_dedups"] == 0 {
		t.Fatalf("metrics did not observe the storm: %v", snap.Counters)
	}
}

// TestConcurrentHTTP drives the same mixed workload through the HTTP
// layer: 64 clients pushing, listing, fetching, and diffing at once.
func TestConcurrentHTTP(t *testing.T) {
	a, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	srv := httptest.NewServer(NewServer(a, ServerOptions{}))
	defer srv.Close()

	seedRun, _, err := a.Ingest(tracegen.SendRecvTrace(8, "PHASE", 40, 0))
	if err != nil {
		t.Fatal(err)
	}

	payloads := make([][]byte, 8)
	for i := range payloads {
		if payloads[i], _, err = Encode(tracegen.SendRecvTrace(8, "PHASE", 40, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 64
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			switch w % 3 {
			case 0:
				if _, _, err := PushBytes(srv.URL, payloads[w%len(payloads)], w%2 == 0); err != nil {
					errs <- fmt.Errorf("worker %d push: %w", w, err)
				}
			case 1:
				resp, err := http.Get(srv.URL + "/runs?limit=3")
				if err != nil {
					errs <- fmt.Errorf("worker %d list: %w", w, err)
					return
				}
				resp.Body.Close()
				if _, err := LoadTrace(srv.URL + "/runs/" + seedRun.ID); err != nil {
					errs <- fmt.Errorf("worker %d fetch: %w", w, err)
				}
			case 2:
				resp, err := http.Get(srv.URL + "/runs/" + seedRun.ID + "/diff/" + seedRun.ID)
				if err != nil {
					errs <- fmt.Errorf("worker %d diff: %w", w, err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("worker %d diff: %s", w, resp.Status)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if a.Len() != len(payloads) {
		t.Fatalf("archive holds %d runs, want %d (dedup under concurrency)", a.Len(), len(payloads))
	}
}
