package chameleon_test

// End-to-end trace-archive test: run a real benchmark, push the merged
// trace through the chamd HTTP surface, and prove the round trip is
// lossless — the ISSUE acceptance criteria for the store subsystem.
//
//	chamrun -push  -> PUT /runs      (idempotent: second push dedups)
//	chamstat http  -> GET /runs/{id} (byte-identical canonical payload)
//	chamstat -diff -> same verdict over HTTP refs as over local files
//	stats          -> GET /runs/{id}/stats (server-side zan report)

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"chameleon"
	"chameleon/internal/analysis"
	"chameleon/internal/obs"
	"chameleon/internal/store"
)

func TestStoreEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	a, err := store.Open(t.TempDir(), store.Options{Gzip: true, Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	srv := httptest.NewServer(store.NewServer(a, store.ServerOptions{Metrics: true, Reg: reg}))
	defer srv.Close()

	bt := runE2E(t, e2e{Spec: benchSpec(t, "BT", "D", 16)}).Out.Trace
	lu := runE2E(t, e2e{Spec: benchSpec(t, "LU", "D", 16)}).Out.Trace

	// Push the BT trace the way chamrun -push does.
	btRun, created, err := store.Push(srv.URL, bt, true)
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Fatal("first push reported dedup")
	}

	// Acceptance: ingesting the same run twice yields one stored
	// segment. Re-push the identical trace — the archive must answer
	// with the same content address and not grow.
	again, created, err := store.Push(srv.URL, bt, false) // uncompressed this time
	if err != nil {
		t.Fatal(err)
	}
	if created {
		t.Fatal("second push of the same trace created a new run")
	}
	if again.ID != btRun.ID {
		t.Fatalf("dedup push returned %s, first push %s", again.ID, btRun.ID)
	}
	if a.Len() != 1 {
		t.Fatalf("archive holds %d runs after double push, want 1", a.Len())
	}

	luRun, created, err := store.Push(srv.URL, lu, true)
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Fatal("LU push reported dedup against BT")
	}

	// The fetched trace must be byte-identical to the canonical local
	// encoding — the wire and the archive add or lose nothing.
	canonical, _, err := store.Encode(bt)
	if err != nil {
		t.Fatal(err)
	}
	payload, stats, err := store.FetchBytes(srv.URL + "/runs/" + btRun.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, canonical) {
		t.Fatalf("fetched payload differs from canonical encoding (%d vs %d bytes)",
			len(payload), len(canonical))
	}
	if !stats.Gzip {
		t.Fatal("gzip-stored segment was not served compressed")
	}

	// Acceptance: a diff over two http:// refs is identical to the same
	// diff over local files — chamstat's load path in both cases.
	dir := t.TempDir()
	btPath := filepath.Join(dir, "bt.trc")
	luPath := filepath.Join(dir, "lu.trc")
	if err := bt.SaveBinary(btPath); err != nil {
		t.Fatal(err)
	}
	if err := lu.SaveBinary(luPath); err != nil {
		t.Fatal(err)
	}
	refs := map[string][2]string{
		"local": {btPath, luPath},
		"http":  {srv.URL + "/runs/" + btRun.ID, srv.URL + "/runs/" + luRun.ID},
	}
	diffs := map[string]*analysis.Diff{}
	for kind, pair := range refs {
		fa, err := store.LoadTrace(pair[0])
		if err != nil {
			t.Fatalf("%s a: %v", kind, err)
		}
		fb, err := store.LoadTrace(pair[1])
		if err != nil {
			t.Fatalf("%s b: %v", kind, err)
		}
		diffs[kind] = analysis.CompareWith(fa, fb, analysis.CompareOpts{})
	}
	if !reflect.DeepEqual(diffs["local"], diffs["http"]) {
		t.Fatalf("diff over http refs diverges from local diff:\nlocal: %+v\nhttp:  %+v",
			diffs["local"], diffs["http"])
	}

	// Acceptance: GET /runs/{id}/stats serves the compressed-domain
	// analysis of the archived run, and it matches the report computed
	// locally on the pushed trace — the server analyzed the stored
	// nodes, not an expansion.
	sr, err := store.FetchStats(srv.URL, btRun.ID)
	if err != nil {
		t.Fatal(err)
	}
	if sr.ID != btRun.ID {
		t.Fatalf("stats for run %s, want %s", sr.ID, btRun.ID)
	}
	local, err := analysis.CrossCheck(bt, chameleon.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	if sr.Report == nil || sr.Report.Events != local.Events {
		t.Fatalf("archived stats report %+v does not match local analysis (%d events)",
			sr.Report, local.Events)
	}
	if sr.Report.StoredNodes != local.StoredNodes || !sr.Report.Match.Consistent {
		t.Fatalf("archived stats: nodes=%d consistent=%v, want nodes=%d consistent=true",
			sr.Report.StoredNodes, sr.Report.Match.Consistent, local.StoredNodes)
	}

	// A trace must also diff clean against its own archived copy.
	self, err := store.LoadTrace(srv.URL + "/runs/" + btRun.ID)
	if err != nil {
		t.Fatal(err)
	}
	if d := analysis.Compare(bt, self); !d.Equivalent() {
		t.Fatalf("archived BT trace is not equivalent to the original: %s", d.Reason())
	}

	// The storm left metrics behind: three ingest attempts, one dedup.
	snap := reg.Snapshot()
	if got := snap.Counters["store_ingests"]; got != 3 {
		t.Fatalf("store_ingests = %d, want 3", got)
	}
	if got := snap.Counters["store_ingest_dedups"]; got != 1 {
		t.Fatalf("store_ingest_dedups = %d, want 1", got)
	}
}

// TestStoreReopenServesIdenticalBytes proves durability: a fresh archive
// over the same directory serves the same canonical bytes.
func TestStoreReopenServesIdenticalBytes(t *testing.T) {
	dir := t.TempDir()
	bt := runE2E(t, e2e{Spec: benchSpec(t, "BT", "D", 4)}).Out.Trace

	a, err := store.Open(dir, store.Options{Gzip: true})
	if err != nil {
		t.Fatal(err)
	}
	run, _, err := a.Ingest(bt)
	if err != nil {
		t.Fatal(err)
	}
	first, _, err := a.Payload(run.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	b, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	second, _, err := b.Payload(run.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("payload changed across archive reopen")
	}
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err != nil {
		t.Fatalf("manifest: %v", err)
	}
}
