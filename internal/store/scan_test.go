package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"chameleon/internal/analysis"
	"chameleon/internal/cq"
	"chameleon/internal/mpi"
	"chameleon/internal/ranklist"
	"chameleon/internal/sig"
	"chameleon/internal/trace"
	"chameleon/internal/tracegen"
	"chameleon/internal/zan"
)

// The SigSet of a run is the SHA-256 of its sorted signatures as
// little-endian words; these values were computed with binary.Write
// over the []uint64, which describe used to hash, so archived SigSets
// stay valid.
func TestDescribeSigSetPinned(t *testing.T) {
	for _, c := range []struct {
		sigs []uint64
		want string
	}{
		{[]uint64{0x9e3779b97f4a7c15, 1, 0xfedcba9876543210}, "d6bb3f65ca23f34d9d37a3d1274c7681c2ec84efef5baa790c7c497029ea0e3f"},
		{[]uint64{}, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	} {
		run := describe(trace.Summary{Sigs: append([]uint64{}, c.sigs...)}, nil, "id")
		if run.SigSet != c.want {
			t.Fatalf("SigSet of %x: %s, want %s", c.sigs, run.SigSet, c.want)
		}
		for i := 1; i < len(run.Sigs); i++ {
			if run.Sigs[i-1] > run.Sigs[i] {
				t.Fatalf("Sigs not sorted: %x", run.Sigs)
			}
		}
	}
}

// Bytes that are not their own canonical encoding are decoded and
// re-encoded, and land under the address of the re-encoding, described
// from the decoded file. Every decoded file, JSON included, came through
// the binary reader, so its re-encoding is canonical: rank lists the
// JSON holds out of normal form come back normalized, and call sites
// come back with the labels the JSON's own site table gives them.
func TestNonCanonicalPushesLandUnderTheirReencoding(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("..", "..", "testdata", "compat_v1_phase.trc"))
	if err != nil {
		t.Fatal(err)
	}
	var js bytes.Buffer
	if err := tracegen.SendRecvTrace(4, "split", 40, 31).Write(&js); err != nil {
		t.Fatal(err)
	}
	split := strings.ReplaceAll(js.String(), `[{"start":0,"dims":[[4,1]]}]`,
		`[{"start":0,"dims":[[2,1]]},{"start":2,"dims":[[2,1]]}]`)
	if split == js.String() {
		t.Fatal("the JSON trace has no rank list to split")
	}
	js.Reset()
	known := tracegen.SendRecvTrace(4, "known sites", 40, 0x5ca9)
	known.Sites = known.SiteTable()
	for i := range known.Sites {
		known.Sites[i].Func, known.Sites[i].File, known.Sites[i].Line = "main.step", "step.go", i+1
	}
	if err := known.Write(&js); err != nil {
		t.Fatal(err)
	}
	a := openTemp(t, Options{})
	for name, body := range map[string][]byte{
		"v1":                       v1,
		"JSON, unnormalized lists": []byte(split),
		"JSON, sites known":        js.Bytes(),
	} {
		t.Run(name, func(t *testing.T) {
			f, err := trace.DecodeAny(body)
			if err != nil {
				t.Fatal(err)
			}
			canon := f.AppendBinary(nil)
			if _, ok := trace.ScanCanonical(body); ok {
				t.Fatal("the body scanned as canonical")
			}
			if _, ok := trace.ScanCanonical(canon); !ok {
				t.Fatal("the re-encoding is not canonical")
			}
			run, created, err := a.IngestBytes(body)
			if err != nil || !created {
				t.Fatalf("ingest: created=%v err=%v", created, err)
			}
			want := describe(trace.Summarize(f), canon, contentAddress(canon))
			if run.ID != want.ID || run.SigSet != want.SigSet || !reflect.DeepEqual(run.Sigs, want.Sigs) ||
				run.Events != want.Events || run.Nodes != want.Nodes || run.P != want.P || run.Benchmark != want.Benchmark {
				t.Fatalf("stored %+v, want %+v", run, *want)
			}
			raw, _, err := a.Payload(run.ID)
			if err != nil || !bytes.Equal(raw, canon) {
				t.Fatalf("stored payload is not the re-encoding: %v", err)
			}
			if name == "JSON, sites known" {
				stored, err := trace.DecodeBinary(raw)
				if err != nil || !reflect.DeepEqual(stored.Sites, known.Sites) {
					t.Fatalf("stored sites %+v (%v), want the JSON's %+v", stored.Sites, err, known.Sites)
				}
			}
		})
	}
}

// labelledPayload assembles by hand, so that it does not depend on the
// encoder, the canonical payload of one leaf on call site s labelled fn
// (none when fn is empty).
func labelledPayload(s uint64, fn string) []byte {
	str := func(b []byte, v string) []byte { return append(binary.AppendUvarint(b, uint64(len(v))), v...) }
	b := append([]byte("CHAMTRC2"), 1, 0) // P=1, no flags
	b = str(str(b, "TENANT"), "test")     // benchmark, tracer
	b = binary.AppendUvarint(append(b, 1), s)
	file, line := "", int64(0)
	if fn != "" {
		file, line = fn+".go", 9
	}
	b = binary.AppendVarint(str(str(b, fn), file), line)
	b = append(b, 1, 0x01)                                            // one node: a leaf
	b = binary.AppendUvarint(b, uint64(mpi.OpBarrier))                // op
	b = append(b, 0, 0, 0, 0, byte(trace.EPNone), byte(trace.EPNone)) // site 0; comm, tag, bytes 0; no peers
	return append(b, 1, 0, 0, 0)                                      // rank 0; no histogram
}

// Tenants that label one call site differently — acme's alpha.secret,
// globex's bravo.public and a payload with no labels — each get back
// exactly the bytes they PUT, under those bytes' content address, in
// either PUT order: how the archive stores a payload does not depend on
// what the process read before. Each order has a signature of its own,
// so that nothing one order reads can bear on the other.
func TestSiteLabelsStayWithTheirTenant(t *testing.T) {
	_, srv := newTestServer(t, Options{}, ServerOptions{})
	for name, s := range map[string]uint64{"alpha first": sig.Mix(0x7e4a_0001), "no labels first": sig.Mix(0x7e4a_0002)} {
		t.Run(name, func(t *testing.T) {
			puts := []struct {
				tenant string
				body   []byte
			}{
				{"acme", labelledPayload(s, "alpha.secret")},
				{"globex", labelledPayload(s, "bravo.public")},
				{"globex", labelledPayload(s, "")},
			}
			if name == "no labels first" {
				slices.Reverse(puts)
			}
			for _, p := range puts {
				code, reply, _ := tenantDo(t, http.MethodPut, srv.URL+"/runs", p.tenant, p.body, nil)
				var run Run
				if code != http.StatusCreated || json.Unmarshal(reply, &run) != nil {
					t.Fatalf("PUT as %s: %d %s", p.tenant, code, reply)
				}
				if run.ID != contentAddress(p.body) {
					t.Fatalf("PUT as %s stored under %s, not its bytes' address", p.tenant, run.ID[:12])
				}
				code, got, _ := tenantDo(t, http.MethodGet, srv.URL+"/runs/"+run.ID, p.tenant, nil, nil)
				if code != http.StatusOK || !bytes.Equal(got, p.body) {
					t.Fatalf("GET as %s: %d, %q, want the bytes PUT", p.tenant, code, got)
				}
			}
		})
	}
}

// A JSON body whose rank lists the binary reader refuses is refused by
// the JSON reader too, which holds its lists to the same bounds and
// budget, and so at the PUT, with a 400. One list is past a bound (a
// dimension of 3 000 000 ranks); the other body holds two distinct
// lists of 2^20 ranks written out of normal form, which together expand
// past the reader's budget for such lists. A body whose lists read is
// stored as before.
func TestJSONPushThatCannotReadBackIsRefused(t *testing.T) {
	var js bytes.Buffer
	if err := tracegen.SendRecvTrace(4, "refused", 40, 37).Write(&js); err != nil {
		t.Fatal(err)
	}
	const list = `[{"start":0,"dims":[[4,1]]}]`
	if strings.Count(js.String(), list) != 3 {
		t.Fatalf("the JSON trace does not hold three rank lists %s", list)
	}
	split := func(start int) string {
		return fmt.Sprintf(`[{"start":%d,"dims":[[524288,1]]},{"start":%d,"dims":[[524288,1]]}]`, start, start+524288)
	}
	bodies := map[string]string{
		"dimension past the bound": strings.Replace(js.String(), list, `[{"start":0,"dims":[[3000000,0]]}]`, 1),
		"past the budget":          strings.Replace(strings.Replace(js.String(), list, split(0), 1), list, split(1), 1),
	}
	a, srv := newTestServer(t, Options{}, ServerOptions{})
	for name, body := range bodies {
		t.Run(name, func(t *testing.T) {
			if _, err := trace.DecodeAny([]byte(body)); err == nil {
				t.Fatal("the JSON body decoded")
			}
			if _, created, err := a.IngestBytes([]byte(body)); err == nil || created {
				t.Fatalf("ingest: created=%v err=%v", created, err)
			}
			if code, _, _ := tenantDo(t, http.MethodPut, srv.URL+"/runs", "", []byte(body), nil); code != http.StatusBadRequest {
				t.Fatalf("PUT answered %d, want 400", code)
			}
		})
	}
	if runs, total := a.List(Query{}); total != 0 {
		t.Fatalf("the archive holds %v", runs)
	}
	fits := strings.Replace(js.String(), list, split(0), 1)
	run, created, err := a.IngestBytes([]byte(fits))
	if err != nil || !created {
		t.Fatalf("a body within the budget: created=%v err=%v", created, err)
	}
	if _, _, err := a.Get(run.ID); err != nil {
		t.Fatalf("the stored run does not read: %v", err)
	}
}

// oneListJSON is a JSON trace at P=4 of one barrier leaf whose rank
// list is written as list.
func oneListJSON(t *testing.T, list string) []byte {
	t.Helper()
	var js bytes.Buffer
	f := &trace.File{P: 4, Nodes: []*trace.Node{
		trace.NewLeaf(trace.Event{Op: mpi.OpBarrier, Stack: sig.Stack(sig.Mix(0x1157))}, ranklist.SingleRank(0), 1),
	}}
	if err := f.Write(&js); err != nil {
		t.Fatal(err)
	}
	const one = `[{"start":0}]`
	if strings.Count(js.String(), one) != 1 {
		t.Fatalf("the JSON trace does not hold the rank list %s once", one)
	}
	return []byte(strings.Replace(js.String(), one, list, 1))
}

// A JSON trace's rank lists meet the binary reader's bounds. Two JSON
// traces of 271 bytes at P=4 name ranks 0 and 1 4 194 304 times
// (a dimension past the bound) or ranks 0..2^20 four times (a list
// past the bound). Read, summarized, validated and analyzed, each is
// refused, or costs under 50 ms and 1 MB; when the JSON reader kept
// lists as written, the first cost Summarize 67 MB and 107 ms, and
// zan.Analyze 67 MB. Lists of a negative or zero count, which cover no
// rank, are refused by the reader and by a PUT, with a 400; so is a
// descending list that runs below rank 0, whose normal form would start
// where the reader refuses it (it was stored, as bytes no reader took).
func TestJSONRankListsAreBounded(t *testing.T) {
	for _, list := range []string{
		`[{"start":0,"dims":[[2,1],[4194304,0]]}]`,
		`[{"start":0,"dims":[[1048576,1],[4,0]]}]`,
	} {
		body := oneListJSON(t, list)
		read := func() error {
			f, err := trace.DecodeAny(body)
			if err != nil {
				return err
			}
			analysis.Summarize(f)
			if _, err := zan.Analyze(f, zan.Options{}); err != nil {
				t.Fatal(err)
			}
			return f.Validate()
		}
		err := read()
		t.Logf("%d-byte JSON trace with list %s: %v", len(body), list, err)
		if err == nil && !raceEnabled {
			start := time.Now()
			alloc := bytesAllocated(1, func() { read() })
			if took := time.Since(start) / 3; took > 50*time.Millisecond || alloc > 1<<20 {
				t.Fatalf("list %s: read in %v, %d B allocated; want < 50 ms, 1 MB", list, took, alloc)
			}
		}
	}
	_, srv := newTestServer(t, Options{}, ServerOptions{})
	for _, list := range []string{`[{"start":0,"dims":[[-1,1]]}]`, `[{"start":0,"dims":[[0,1]]}]`,
		`[{"start":5,"dims":[[3,-4]]}]`} {
		body := oneListJSON(t, list)
		if _, err := trace.DecodeAny(body); err == nil {
			t.Fatalf("list %s: the JSON trace decoded", list)
		}
		if code, _, _ := tenantDo(t, http.MethodPut, srv.URL+"/runs", "", body, nil); code != http.StatusBadRequest {
			t.Fatalf("list %s: PUT answered %d, want 400", list, code)
		}
	}
}

// A PUT that a continuous query matches still reaches its verdict: the
// engine loads the run, once, and appends a regression event for a
// structural drift. A PUT no query matches loads nothing.
func TestPutMatchingCQReachesVerdict(t *testing.T) {
	a := openTemp(t, Options{})
	var mu sync.Mutex
	loads := map[string]int{}
	local := FedLookup(a, nil)
	eng, err := cq.New(cq.Options{Lookup: func(tenant, id string) (*trace.File, string, error) {
		mu.Lock()
		loads[id]++
		mu.Unlock()
		return local(tenant, id)
	}})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(a, ServerOptions{CQ: eng}))
	t.Cleanup(srv.Close)
	push := func(f *trace.File) Run {
		t.Helper()
		payload, _, err := Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		run, created, err := PushBytes(srv.URL, payload, false)
		if err != nil || !created {
			t.Fatalf("PUT: created=%v err=%v", created, err)
		}
		return run
	}

	golden := push(tracegen.SendRecvTrace(4, "lulesh", 40, 7))
	if _, err := RegisterCQ(srv.URL, cq.Spec{Name: "gate", Benchmark: "lulesh", Golden: golden.ID}); err != nil {
		t.Fatal(err)
	}
	other := push(tracegen.SendRecvTrace(4, "miniFE", 40, 7))
	drift := tracegen.SendRecvTrace(4, "lulesh", 40, 7)
	drift.Nodes[0].Iters++
	driftRun := push(drift)

	feed := eng.Feed(DefaultTenant)
	if len(feed.Events) != 1 {
		t.Fatalf("feed has %d events, want 1: %+v", len(feed.Events), feed.Events)
	}
	ev := feed.Events[0]
	if ev.Run != driftRun.ID || ev.Verdict != cq.VerdictRegression || ev.Reason == "" || ev.Golden != golden.ID {
		t.Fatalf("drifted run's event: %+v", ev)
	}
	mu.Lock()
	defer mu.Unlock()
	if loads[driftRun.ID] != 1 || loads[other.ID] != 0 {
		t.Fatalf("runs loaded: %v; want the matched run once and the unmatched one never", loads)
	}
}
