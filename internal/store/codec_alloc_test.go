package store

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	chameleon "chameleon"
	"chameleon/internal/trace"
)

// luTrace is the P=64 LU Chameleon trace of the archive_mixed corpus,
// traced once per test binary.
var luTrace = sync.OnceValues(func() (*trace.File, error) {
	out, err := chameleon.RunBenchmark("LU", "A", 64, chameleon.TracerChameleon, nil)
	if err != nil {
		return nil, err
	}
	return out.Trace, nil
})

func luPayload(t *testing.T) ([]byte, string) {
	t.Helper()
	f, err := luTrace()
	if err != nil {
		t.Fatal(err)
	}
	payload, id, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	return payload, id
}

// TestEncodeAllocBudget holds Encode of the LU trace (33 KB), as the
// archive holds it — decoded — to a budget. It takes 30 allocations:
// the payload grown by append from empty (most of them), the site index
// and table, and the two of the hex content address. The budget leaves
// 2 over that: the payload's length moves with the checkout's path (the
// site table holds file names), which can cross one more growth step.
// The pre-change encoder (bufio over a bytes.Buffer) took 19; a per-leaf
// copy of the rank descriptors takes it to 1 192. (Encoding the trace
// straight from the tracer also symbolizes each call site it captured,
// once per site, in sig.Sites.Resolve: 10 more here, the site table's
// cost, not the codec's.)
func TestEncodeAllocBudget(t *testing.T) {
	const budget = 32
	payload, _ := luPayload(t)
	f, err := trace.DecodeAny(payload)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, _, err := Encode(f); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Encode of LU P=64: %.0f allocations", allocs)
	if allocs > budget {
		t.Fatalf("Encode took %.0f allocations, budget %d", allocs, budget)
	}
}

// bytesAllocated returns the heap bytes fn allocates per call: the
// least of three averages over n calls, every goroutine of the process
// counted, servers included. The least filters out work other
// goroutines (the runtime, a lingering connection) happen to do during
// one round.
func bytesAllocated(n int, fn func()) uint64 {
	least := uint64(math.MaxUint64)
	for round := 0; round < 3; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			fn()
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/uint64(n))
	}
	return least
}

// skipUnderRace skips a byte-count guard in a -race build, whose
// instrumentation allocates on its own account.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector changes allocation")
	}
}

// decodeBytes is what one DecodeAny of payload allocates.
func decodeBytes(t *testing.T, payload []byte) uint64 {
	t.Helper()
	return bytesAllocated(20, func() {
		if _, err := trace.DecodeAny(payload); err != nil {
			t.Fatal(err)
		}
	})
}

// A dedup PUT through an edge that holds the run is answered from
// indexes: the edge hashes the body and finds it held, and so does the
// other owner it forwards to. Client, edge and owner together allocate
// less than one decode of the payload: 0.18 MB against 0.30 MB. Before
// the hash-first check it was decoded on both, 3.4 MB against the 1.35 MB
// decode of the time.
func TestDedupPutAllocatesLessThanADecode(t *testing.T) {
	skipUnderRace(t)
	payload, id := luPayload(t)
	peers := startMesh(t, 3, meshConfig{replicas: 2})
	if run, created, err := PushBytes(peers[0].url, payload, false); err != nil || !created || run.ID != id {
		t.Fatalf("cold PUT: created=%v id=%s err=%v", created, run.ID, err)
	}
	edge := peers[0].node.Owners(id)[0] // holds the run
	dedup := func() {
		if _, created, err := PushBytes(edge, payload, false); err != nil || created {
			t.Fatalf("dedup PUT: created=%v err=%v", created, err)
		}
	}
	dedup() // warm the connections
	put := bytesAllocated(20, dedup)
	decode := decodeBytes(t, payload)
	t.Logf("dedup PUT of %d bytes: %d B allocated; one decode: %d B", len(payload), put, decode)
	if put >= decode {
		t.Fatalf("a dedup PUT allocated %d B, one decode of its payload %d B", put, decode)
	}
}

// A cold PUT of a canonical payload through an edge that owns it is
// scanned, not decoded, on the edge and on the other owner it forwards
// to, and stored as the bytes it arrived as. Client, edge and owner
// together allocate less than one decode of the payload. Each PUT is
// the LU trace under a benchmark name of its own, so each is a new
// content address.
func TestColdPutAllocatesLessThanADecode(t *testing.T) {
	skipUnderRace(t)
	f, err := luTrace()
	if err != nil {
		t.Fatal(err)
	}
	const perRound = 10
	payloads := make([][]byte, 3*perRound+1)
	ids := make([]string, len(payloads))
	for i := range payloads {
		g := *f
		g.Benchmark = fmt.Sprintf("LU-%d", i)
		if payloads[i], ids[i], err = Encode(&g); err != nil {
			t.Fatal(err)
		}
	}
	peers := startMesh(t, 3, meshConfig{replicas: 2})
	next := 0
	cold := func() {
		payload, id := payloads[next], ids[next]
		next++
		edge := peers[0].node.Owners(id)[0]
		if run, created, err := PushBytes(edge, payload, false); err != nil || !created || run.ID != id {
			t.Fatalf("cold PUT: created=%v id=%s (want %s) err=%v", created, run.ID, id, err)
		}
	}
	cold() // warm the connections
	put := bytesAllocated(perRound, cold)
	decode := decodeBytes(t, payloads[0])
	t.Logf("cold PUT of %d bytes: %d B allocated; one decode: %d B", len(payloads[0]), put, decode)
	if put >= decode {
		t.Fatalf("a cold PUT allocated %d B, one decode of its payload %d B", put, decode)
	}
}

// A stats query is one walk over the stored bytes (zan.AnalyzeBytes),
// with no tree built: the archive's side of it — the handler, its reply
// written into a recorder — allocates less than one decode of the
// payload: 0.23 MB against 0.30 MB, half of it zan's channel table. It
// used to decode the payload and then walk the tree, 0.56 MB. (The
// client's JSON decode of the reply is another 0.1 MB, the reply's cost
// rather than the query's.)
func TestStatsQueryAllocatesLessThanADecode(t *testing.T) {
	skipUnderRace(t)
	payload, id := luPayload(t)
	a := openTemp(t, Options{})
	if _, _, err := a.IngestBytes(payload); err != nil {
		t.Fatal(err)
	}
	h := NewServer(a, ServerOptions{})
	stats := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/runs/"+id+"/stats", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("stats: %d %s", rec.Code, rec.Body)
		}
	}
	query := bytesAllocated(20, stats)
	decode := decodeBytes(t, payload)
	t.Logf("stats query of %d bytes: %d B allocated; one decode: %d B", len(payload), query, decode)
	if query >= decode {
		t.Fatalf("a stats query allocated %d B, one decode of its payload %d B", query, decode)
	}
}
