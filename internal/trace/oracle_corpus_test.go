package trace_test

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	chameleon "chameleon"
	"chameleon/internal/trace"
)

// archiveCorpus is the archive_mixed corpus (bench/archive.go
// corpusSpecs): four clustered Chameleon traces of different shapes and
// one unclustered ScalaTrace trace, all P=64, traced in-process once per
// test binary.
var archiveCorpus = sync.OnceValues(func() ([]corpusTrace, error) {
	specs := []struct {
		bench  string
		tracer chameleon.Tracer
	}{
		{"BT", chameleon.TracerChameleon},
		{"LU", chameleon.TracerChameleon},
		{"SP", chameleon.TracerChameleon},
		{"CG", chameleon.TracerChameleon},
		{"LU", chameleon.TracerScalaTrace},
	}
	var out []corpusTrace
	for _, s := range specs {
		o, err := chameleon.RunBenchmark(s.bench, "A", 64, s.tracer, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, corpusTrace{name: s.bench + "/" + string(s.tracer), f: o.Trace, payload: o.Trace.AppendBinary(nil)})
	}
	return out, nil
})

type corpusTrace struct {
	name    string
	f       *trace.File // as traced: leaves carry live SiteIDs
	payload []byte
}

func corpus(t *testing.T) []corpusTrace {
	t.Helper()
	c, err := archiveCorpus()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDecodeMatchesReference: on the archive_mixed corpus as traced, the
// encoder writes what the pre-change encoder wrote, and on those bytes
// the decoder agrees with the pre-change decoder (binary_ref_test.go).
// The fixtures and fuzz seeds run in TestDecodeMatchesReferenceSeeds.
func TestDecodeMatchesReference(t *testing.T) {
	for _, c := range corpus(t) {
		t.Run(c.name, func(t *testing.T) {
			trace.CheckEncodeMatchesReference(t, c.f)
			trace.CheckDecodeMatchesReference(t, c.payload)
		})
	}
}

// TestDecodeAllocBudget holds decoding the P=64 LU Chameleon trace of
// the corpus (33 KB, 1 189 nodes of which 1 162 leaves, 28 sequences, 10
// call sites, 10 distinct rank lists) to a budget. It decodes in 204
// allocations: 3 per sequence, 2 per site, 7 or so per distinct rank
// list. The pre-change decoder took 12 691. With the rank-list memo
// removed it takes 10 364; with a new per node instead of the slab,
// 1 392 — both far past the budget.
func TestDecodeAllocBudget(t *testing.T) {
	const budget = 250
	lu := corpus(t)[1]
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := trace.DecodeBinary(lu.payload); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("decoding %s (%d bytes): %.0f allocations", lu.name, len(lu.payload), allocs)
	if allocs > budget {
		t.Fatalf("decoding %s took %.0f allocations, budget %d", lu.name, allocs, budget)
	}
}

// TestDecodeAllocBytesBudget holds the bytes decoding the same LU trace
// allocates to a budget. It takes 305 712 B: every histogram of the
// corpus holds one or two buckets, so each costs its 72-byte slab slot
// and nothing more. The budget leaves 18% headroom; with the 560-byte
// [64]uint64 histogram the same decode takes 889 728 B, 2.5 times it.
func TestDecodeAllocBytesBudget(t *testing.T) {
	const budget = 352 << 10
	lu := corpus(t)[1]
	var before, after runtime.MemStats
	const runs = 10
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := trace.DecodeBinary(lu.payload); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("decoding %s (%d bytes): %d B allocated", lu.name, len(lu.payload), got)
	if got > budget {
		t.Fatalf("decoding %s allocated %d B, budget %d", lu.name, got, budget)
	}
}

// TestScanCanonicalOnCorpus: the archive_mixed corpus as the encoder
// writes it takes the PUT path's fast path — it scans as canonical, with
// the summary of the file as traced — and the scan agrees with decoding
// and re-encoding it.
func TestScanCanonicalOnCorpus(t *testing.T) {
	for _, c := range corpus(t) {
		t.Run(c.name, func(t *testing.T) {
			sum, ok := trace.ScanCanonical(c.payload)
			if !ok {
				t.Fatalf("the encoder's %d bytes did not scan as canonical", len(c.payload))
			}
			if want := trace.Summarize(c.f); !reflect.DeepEqual(sum, want) {
				t.Fatalf("scan summary %+v, traced file's %+v", sum, want)
			}
			trace.CheckScanMatchesDecode(t, c.payload)
		})
	}
}
