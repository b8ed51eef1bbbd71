package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	chameleon "chameleon"
	"chameleon/internal/cq"
	"chameleon/internal/mpi"
	"chameleon/internal/ranklist"
	"chameleon/internal/sig"
	"chameleon/internal/trace"
	"chameleon/internal/tracegen"
	"chameleon/internal/zan"
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

// TestEncodeRefusesListBelowRankZero: a leaf whose list starts below
// rank 0 encodes to bytes the archive's reader refuses, so Encode (and
// WriteBinary) refuse the file in the reader's words, while
// AppendBinary still writes it, and the same file on rank 0 encodes and
// reads back.
func TestEncodeRefusesListBelowRankZero(t *testing.T) {
	file := func(ranks ranklist.List) *trace.File {
		return &trace.File{P: 4, Benchmark: "NEG", Tracer: "chameleon", Nodes: []*trace.Node{
			trace.NewLeaf(trace.Event{Op: mpi.OpBarrier, Comm: mpi.CommWorld}, ranklist.SingleRank(0), 10),
			trace.NewLeaf(trace.Event{Op: mpi.OpBarrier, Comm: mpi.CommWorld}, ranks, 10),
		}}
	}
	const words = "rank list start -2 out of range"
	for _, ranks := range []ranklist.List{ranklist.SingleRank(-2), ranklist.FromRanks([]int{-2, -1, 0, 1})} {
		f := file(ranks)
		if _, _, err := Encode(f); err == nil || !strings.Contains(err.Error(), words) {
			t.Errorf("Encode of a leaf on %v: error %v, want %q", ranks, err, words)
		}
		if err := f.WriteBinary(&bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), words) {
			t.Errorf("WriteBinary of a leaf on %v: error %v, want %q", ranks, err, words)
		}
		if _, err := trace.DecodeBinary(f.AppendBinary(nil)); err == nil || !strings.Contains(err.Error(), words) {
			t.Errorf("the reader took a leaf on %v: error %v, want %q", ranks, err, words)
		}
	}
	payload, _, err := Encode(file(ranklist.FromRanks([]int{0, 1, 2, 3})))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.DecodeBinary(payload); err != nil {
		t.Fatal(err)
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
// payload: 0.17 MB against 0.30 MB. It used to decode the payload and
// then walk the tree, 0.56 MB, and with per-rank channels and rows it
// took 0.23 MB. (The client's JSON decode of the reply is the reply's
// cost rather than the query's.)
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

// wideListsPayload is a canonical payload of 64 barriers in a world of
// 2^20 ranks, barrier i over the rank list list(i).
func wideListsPayload(t *testing.T, list func(i int) ranklist.List) []byte {
	t.Helper()
	const p = 1 << 20
	f := &trace.File{P: p, Benchmark: "WIDE"}
	ev := trace.Event{Op: mpi.OpBarrier, Stack: sig.Stack(sig.Mix(0x71de))}
	for i := 0; i < 64; i++ {
		f.Nodes = append(f.Nodes, trace.NewLeaf(ev, list(i), 0))
	}
	payload, _, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// statsReply serves GET /runs/{id}/stats through h and returns the
// reply body.
func statsReply(t *testing.T, h http.Handler, id string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/runs/"+id+"/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d %s", rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// A stats query pays once per distinct rank list, never once per rank
// or per row: over 64 barriers on distinct lists of ~2^20 ranks each,
// in a world of P=2^20, the query takes under 50 ms and 1 MB, and its
// reply is under 64 KB. The lists are one run each from rank i, up to
// 63 ranks past P, or two ranks in every three, {2,1}x{2^19,3} from
// rank i: 2^19 rows a list, which the cut takes as one piece. With a
// row per rank the query took 0.38 s and 113 MB over the runs and
// 0.69 s and 289 MB over the rows, and each reply was 92 MB. The report
// counts each list's ranks inside [0, P) only, in the windows as in
// the classes.
func TestStatsQueryOfWideListsCostsItsLists(t *testing.T) {
	skipUnderRace(t)
	for _, c := range []struct {
		name string
		list func(i int) ranklist.List
	}{
		{"runs", func(i int) ranklist.List { return normalList(ranklist.Range(i, 1<<20, 1)) }},
		{"grid rows", func(i int) ranklist.List {
			return normalList(ranklist.New(i, ranklist.Dim{Iters: 2, Stride: 1}, ranklist.Dim{Iters: 1 << 19, Stride: 3}))
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			payload := wideListsPayload(t, c.list)
			a := openTemp(t, Options{})
			run, _, err := a.IngestBytes(payload)
			if err != nil {
				t.Fatal(err)
			}
			h := NewServer(a, ServerOptions{})
			var body []byte
			start := time.Now()
			query := bytesAllocated(1, func() { body = statsReply(t, h, run.ID) })
			took := time.Since(start) / 3 // bytesAllocated takes the least of three rounds
			t.Logf("stats query of %d bytes: %v, %d B allocated, %d B reply", len(payload), took, query, len(body))
			if took > 50*time.Millisecond || query > 1<<20 || len(body) > 64<<10 {
				t.Fatalf("stats query of the wide lists took %v, allocated %d B, replied %d B; want < 50 ms, 1 MB, 64 KB",
					took, query, len(body))
			}
			var out StatsResponse
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatal(err)
			}
			rep := out.Report
			var events, last uint64
			for i := 0; i < 64; i++ {
				l := c.list(i)
				events += uint64(l.SizeIn(rep.P))
				if l.Contains(rep.P - 1) {
					last++
				}
			}
			size := 0
			for _, cl := range rep.RankClasses {
				size += cl.Size
			}
			if size != rep.P || rep.Events != events || rep.Rank(rep.P-1).Events != last || rep.Rank(0).Events != 1 {
				t.Fatalf("report: %d classes of %d ranks, %d events, rank P-1 %d events; want %d ranks, %d events, %d",
					len(rep.RankClasses), size, rep.Events, rep.Rank(rep.P-1).Events, rep.P, events, last)
			}
		})
	}
}

// A diff pays once per distinct rank list, as a stats query does, on
// both paths that run analysis.CompareWith: GET /runs/{a}/diff/{b}, and
// a PUT a CQ spec gates against a golden run. Run a holds the 64 runs
// of TestStatsQueryOfWideListsCostsItsLists (barrier i on ranks i..,
// 2^20 of them, at P=2^20) and run b the same runs one rank on, so
// exactly ranks 0..63 differ, by one event each. Each path takes under
// 50 ms and 1 MB. Expanding every list rank by rank, the diff took
// 1.35 s and 16.9 MB.
func TestDiffOfWideListsCostsItsLists(t *testing.T) {
	skipUnderRace(t)
	list := func(from int) func(i int) ranklist.List {
		return func(i int) ranklist.List { return normalList(ranklist.Range(from+i, 1<<20, 1)) }
	}
	payloadA, payloadB := wideListsPayload(t, list(0)), wideListsPayload(t, list(1))
	budget := func(t *testing.T, what string, took time.Duration, alloc uint64) {
		t.Helper()
		t.Logf("%s: %v, %d B allocated", what, took, alloc)
		if took > 50*time.Millisecond || alloc > 1<<20 {
			t.Fatalf("%s took %v and allocated %d B; want < 50 ms, 1 MB", what, took, alloc)
		}
	}

	t.Run("GET diff", func(t *testing.T) {
		a := openTemp(t, Options{})
		runA, _, err := a.IngestBytes(payloadA)
		if err != nil {
			t.Fatal(err)
		}
		runB, _, err := a.IngestBytes(payloadB)
		if err != nil {
			t.Fatal(err)
		}
		h := NewServer(a, ServerOptions{})
		var body []byte
		start := time.Now()
		alloc := bytesAllocated(1, func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/runs/"+runA.ID+"/diff/"+runB.ID, nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("diff: %d %s", rec.Code, rec.Body)
			}
			body = rec.Body.Bytes()
		})
		budget(t, "diff of the wide lists", time.Since(start)/3, alloc)
		var d DiffResponse
		if err := json.Unmarshal(body, &d); err != nil {
			t.Fatal(err)
		}
		// Only the ranks at either end of [0, P) can differ, and the
		// lists' sizes in [0, P) say the deltas there are all there are.
		const p = 1 << 20
		want, wantSum := map[string]int64{}, int64(0)
		for i := 0; i < 64; i++ {
			wantSum += int64(list(0)(i).SizeIn(p)) - int64(list(1)(i).SizeIn(p))
		}
		in := func(l ranklist.List, r int) int64 {
			if l.Contains(r) {
				return 1
			}
			return 0
		}
		for _, r := range append(tracegen.Span(0, 128).Ranks(), tracegen.Span(p-128, 128).Ranks()...) {
			var delta int64
			for i := 0; i < 64; i++ {
				delta += in(list(0)(i), r) - in(list(1)(i), r)
			}
			if delta != 0 {
				want[strconv.Itoa(r)] = delta
				wantSum -= delta
			}
		}
		if len(want) != 64 || wantSum != 0 || !reflect.DeepEqual(d.EventDeltas, want) {
			t.Fatalf("event deltas %v, want %v (%+d events unaccounted for)", d.EventDeltas, want, wantSum)
		}
		if d.Equivalent || len(d.SiteCountDelta) != 1 {
			t.Fatalf("diff %+v, want one site 64 events apart", d)
		}
		for _, delta := range d.SiteCountDelta {
			if delta != 64 {
				t.Fatalf("site delta %+d, want +64", delta)
			}
		}
	})

	t.Run("PUT gated by a CQ", func(t *testing.T) {
		// A gate fires once per new run, so each round PUTs into a fresh
		// archive.
		least, took := uint64(math.MaxUint64), time.Duration(math.MaxInt64)
		var feed cq.FeedView
		for round := 0; round < 3; round++ {
			a := openTemp(t, Options{})
			golden, _, err := a.IngestBytes(payloadB)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := cq.New(cq.Options{Lookup: FedLookup(a, nil)})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Register(cq.Spec{Tenant: DefaultTenant, Name: "gate", Golden: golden.ID}); err != nil {
				t.Fatal(err)
			}
			h := NewServer(a, ServerOptions{CQ: eng})
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/runs", bytes.NewReader(payloadA)))
			took = min(took, time.Since(start))
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
			if rec.Code != http.StatusCreated {
				t.Fatalf("PUT: %d %s", rec.Code, rec.Body)
			}
			feed = eng.Feed(DefaultTenant)
		}
		budget(t, "gated PUT of the wide lists", took, least)
		if len(feed.Events) != 1 || feed.Events[0].Verdict != cq.VerdictRegression ||
			!strings.HasPrefix(feed.Events[0].Reason, "64 ranks differ in dynamic event count (first: rank 0, +1 events)") {
			t.Fatalf("gate events: %+v", feed.Events)
		}
	})
}

// STENCIL's stats cost does not grow with P: from P=64 to P=1024 the
// archive's AnalyzeBytes allocation and the /stats reply each stay
// within 1.5x. With a row per rank and a channel per rank they grew
// 10.5x and 7.5x.
func TestStatsCostFlatInP(t *testing.T) {
	skipUnderRace(t)
	measure := func(p int) (alloc uint64, reply int) {
		out, err := chameleon.RunBenchmark("STENCIL", "A", p, chameleon.TracerChameleon, nil)
		if err != nil {
			t.Fatal(err)
		}
		payload, id, err := Encode(out.Trace)
		if err != nil {
			t.Fatal(err)
		}
		alloc = bytesAllocated(5, func() {
			if _, err := zan.AnalyzeBytes(payload, zan.Options{}); err != nil {
				t.Fatal(err)
			}
		})
		a := openTemp(t, Options{})
		if _, _, err := a.IngestBytes(payload); err != nil {
			t.Fatal(err)
		}
		reply = len(statsReply(t, NewServer(a, ServerOptions{}), id))
		t.Logf("STENCIL P=%d: payload %d B, AnalyzeBytes allocates %d B, reply %d B", p, len(payload), alloc, reply)
		return alloc, reply
	}
	a64, r64 := measure(64)
	a1k, r1k := measure(1024)
	if float64(a1k) > 1.5*float64(a64) || float64(r1k) > 1.5*float64(r64) {
		t.Fatalf("from P=64 to P=1024, AnalyzeBytes allocation went %d -> %d B and the reply %d -> %d B; want each within 1.5x",
			a64, a1k, r64, r1k)
	}
}

// normalList wraps descriptors in normal form as ranklist.Normalize
// keeps them, without expanding them; it panics on any others.
func normalList(rls ...ranklist.RL) ranklist.List {
	l, ok := ranklist.Normalize(rls, nil)
	if !ok {
		panic(fmt.Sprintf("%v is not in normal form", rls))
	}
	return l
}
