package store

// The storm test: stormPushers concurrent writers blast unique traces
// at a 3-peer mesh through all three edges at once. The mesh must not
// lose a single run (every ID resolvable afterwards, exactly R copies
// placed) and tail latency must stay bounded — the replication fan-out
// serializes on per-archive locks, so this is the test that catches a
// lock held across a peer RPC.

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"testing"
	"time"

	"chameleon/internal/tracegen"
)

func TestFedStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("storm test skipped in -short mode")
	}
	peers := startMesh(t, 3, meshConfig{replicas: 2})

	type result struct {
		id      string
		latency time.Duration
		err     error
	}
	results := make([]result, stormPushers)
	var wg sync.WaitGroup
	wg.Add(stormPushers)
	start := make(chan struct{})
	for i := 0; i < stormPushers; i++ {
		go func(i int) {
			defer wg.Done()
			f := tracegen.SendRecvTrace(4, fmt.Sprintf("storm-%d", i%16), 40, uint64(1000+i))
			canon, id, err := Encode(f)
			if err != nil {
				results[i] = result{err: err}
				return
			}
			<-start
			t0 := time.Now()
			code, body, _ := tenantDo(t, http.MethodPut, peers[i%3].url+"/runs", "", canon, nil)
			lat := time.Since(t0)
			if code != http.StatusOK && code != http.StatusCreated {
				results[i] = result{err: fmt.Errorf("PUT: %d: %s", code, body)}
				return
			}
			results[i] = result{id: id, latency: lat}
		}(i)
	}
	close(start)
	wg.Wait()

	want := map[string]bool{}
	latencies := make([]time.Duration, 0, stormPushers)
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("pusher %d: %v", i, r.err)
		}
		want[r.id] = true
		latencies = append(latencies, r.latency)
	}

	// No lost runs: the scatter-gather listing accounts for every ID.
	got := map[string]bool{}
	offset := 0
	for {
		lr, err := FetchRuns(peers[0].url, "", maxListLimit, offset)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range lr.Runs {
			got[r.ID] = true
		}
		if lr.Next == 0 {
			break
		}
		offset = lr.Next
	}
	if len(got) != len(want) {
		t.Fatalf("scatter list sees %d runs, pushed %d", len(got), len(want))
	}
	for id := range want {
		if !got[id] {
			t.Fatalf("run %s lost", id[:12])
		}
	}

	// Exact placement: with every peer alive the fleet holds R copies
	// of each run, no more (no spurious fallbacks), no fewer.
	totalCopies := 0
	for _, p := range peers {
		st, err := FetchMeshStatus(p.url)
		if err != nil {
			t.Fatal(err)
		}
		totalCopies += st.Runs
	}
	if wantCopies := 2 * len(want); totalCopies != wantCopies {
		t.Fatalf("fleet holds %d copies of %d runs, want %d", totalCopies, len(want), wantCopies)
	}

	// Bounded tail latency. The bound is deliberately loose — it exists
	// to catch collapse (a lock held across a peer RPC turns the storm
	// serial and blows straight past it), not to benchmark.
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	p50 := latencies[len(latencies)/2]
	p99 := latencies[len(latencies)*99/100]
	t.Logf("storm: %d pushers, p50=%v p99=%v max=%v", stormPushers, p50, p99, latencies[len(latencies)-1])
	if p99 > 30*time.Second {
		t.Fatalf("p99 PUT latency %v exceeds 30s bound", p99)
	}
}
