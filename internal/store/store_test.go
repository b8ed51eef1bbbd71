package store

import (
	"bytes"
	"compress/gzip"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chameleon/internal/mpi"
	"chameleon/internal/sig"
	"chameleon/internal/trace"
	"chameleon/internal/tracegen"
)

// mkWideTrace is tracegen.SendRecvTrace with many distinct call sites,
// large enough that gzip actually shrinks the payload.
func mkWideTrace(p int, benchmark string, seed uint64) *trace.File {
	f := tracegen.SendRecvTrace(p, benchmark, 40, seed)
	ranks := tracegen.Span(0, p)
	for i := uint64(0); i < 128; i++ {
		ev := trace.Event{Op: mpi.OpBcast, Stack: sig.Stack(sig.Mix(seed*1000 + i)), Bytes: int(8 * i)}
		f.Nodes = append(f.Nodes, trace.NewLeaf(ev, ranks, int64(100*i)))
	}
	return f
}

func openTemp(t *testing.T, opts Options) *Archive {
	t.Helper()
	a, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	return a
}

func countSegments(t *testing.T, a *Archive) int {
	t.Helper()
	n := 0
	err := filepath.Walk(filepath.Join(a.dir, "segments"), func(path string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() && strings.HasSuffix(path, ".seg") {
			n++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestIngestDedup(t *testing.T) {
	a := openTemp(t, Options{})
	f := tracegen.SendRecvTrace(8, "PHASE", 40, 1)

	r1, created, err := a.Ingest(f)
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Fatal("first ingest should create a segment")
	}
	r2, created, err := a.Ingest(tracegen.SendRecvTrace(8, "PHASE", 40, 1)) // fresh but identical File
	if err != nil {
		t.Fatal(err)
	}
	if created {
		t.Fatal("second ingest of identical content must dedup")
	}
	if r1.ID != r2.ID {
		t.Fatalf("content addresses differ: %s vs %s", r1.ID, r2.ID)
	}
	if got := countSegments(t, a); got != 1 {
		t.Fatalf("segments on disk = %d, want 1", got)
	}
	if a.Len() != 1 {
		t.Fatalf("manifest runs = %d, want 1", a.Len())
	}
	if r1.P != 8 || r1.Benchmark != "PHASE" || r1.Events == 0 || len(r1.Sigs) != 3 {
		t.Fatalf("manifest record incomplete: %+v", r1)
	}
}

func TestIngestBytesNormalizesFormats(t *testing.T) {
	a := openTemp(t, Options{})
	f := tracegen.SendRecvTrace(4, "STENCIL", 40, 2)

	var binV2 bytes.Buffer
	if err := f.WriteBinary(&binV2); err != nil {
		t.Fatal(err)
	}
	var asJSON bytes.Buffer
	if err := f.Write(&asJSON); err != nil {
		t.Fatal(err)
	}

	r1, created, err := a.IngestBytes(binV2.Bytes())
	if err != nil || !created {
		t.Fatalf("binary ingest: created=%v err=%v", created, err)
	}
	r2, created, err := a.IngestBytes(asJSON.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if created || r1.ID != r2.ID {
		t.Fatalf("JSON push of the same run must dedup against the binary push (created=%v, %s vs %s)",
			created, r1.ID[:12], r2.ID[:12])
	}
}

func TestGetRoundTripAndIntegrity(t *testing.T) {
	a := openTemp(t, Options{})
	f := tracegen.SendRecvTrace(8, "PHASE", 40, 3)
	canonical, id, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Ingest(f); err != nil {
		t.Fatal(err)
	}

	payload, run, err := a.Payload(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, canonical) {
		t.Fatal("stored payload is not byte-identical to the canonical encoding")
	}
	if run.RawBytes != int64(len(canonical)) {
		t.Fatalf("RawBytes = %d, want %d", run.RawBytes, len(canonical))
	}

	got, _, err := a.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	re, reID, err := Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	if reID != id || !bytes.Equal(re, canonical) {
		t.Fatal("decoded trace does not re-encode to the same content address")
	}

	// Corrupt the segment on disk; the content-address check must catch it.
	seg := a.segmentPath(DefaultTenant, id)
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Payload(id); err == nil {
		t.Fatal("corrupt segment must fail the integrity check")
	}
}

func TestGzipSegments(t *testing.T) {
	a := openTemp(t, Options{Gzip: true})
	f := mkWideTrace(16, "PHASE", 4)
	run, created, err := a.Ingest(f)
	if err != nil || !created {
		t.Fatalf("ingest: created=%v err=%v", created, err)
	}
	if !run.Gzip {
		t.Fatal("run should record gzip storage")
	}

	// The on-disk segment is a gzip frame.
	raw, err := os.ReadFile(a.segmentPath(DefaultTenant, run.ID))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(raw)) != run.StoredBytes {
		t.Fatalf("StoredBytes = %d, file is %d", run.StoredBytes, len(raw))
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("segment is not gzip: %v", err)
	}
	zr.Close()

	// Reads transparently decompress and still verify the address.
	payload, _, err := a.Payload(run.ID)
	if err != nil {
		t.Fatal(err)
	}
	canonical, id, _ := Encode(f)
	if id != run.ID || !bytes.Equal(payload, canonical) {
		t.Fatal("gzip round-trip lost bytes")
	}

	// A gzip archive dedups against the same content pushed again.
	if _, created, _ := a.Ingest(f); created {
		t.Fatal("gzip archive must dedup identical content")
	}
}

func TestReopenPersists(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	run, _, err := a.Ingest(tracegen.SendRecvTrace(4, "LU", 40, 5))
	if err != nil {
		t.Fatal(err)
	}
	a.Close()

	b, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.Len() != 1 {
		t.Fatalf("reopened archive has %d runs, want 1", b.Len())
	}
	got, rec, err := b.Get(run.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Benchmark != "LU" || got.P != 4 {
		t.Fatalf("reopened run lost metadata: %+v", rec)
	}
}

func TestListQueryAndPagination(t *testing.T) {
	a := openTemp(t, Options{})
	var phase Run
	for i := uint64(0); i < 5; i++ {
		r, _, err := a.Ingest(tracegen.SendRecvTrace(8, "PHASE", 40, 10+i))
		if err != nil {
			t.Fatal(err)
		}
		phase = r
	}
	for i := uint64(0); i < 3; i++ {
		if _, _, err := a.Ingest(tracegen.SendRecvTrace(16, "STENCIL", 40, 20+i)); err != nil {
			t.Fatal(err)
		}
	}

	runs, total := a.List(Query{})
	if total != 8 || len(runs) != 8 {
		t.Fatalf("List all: %d/%d, want 8/8", len(runs), total)
	}
	runs, total = a.List(Query{Benchmark: "PHASE"})
	if total != 5 || len(runs) != 5 {
		t.Fatalf("List PHASE: %d/%d, want 5/5", len(runs), total)
	}
	runs, total = a.List(Query{P: 16})
	if total != 3 {
		t.Fatalf("List P=16: total %d, want 3", total)
	}
	runs, total = a.List(Query{Benchmark: "PHASE", Limit: 2})
	if total != 5 || len(runs) != 2 {
		t.Fatalf("List limited: %d/%d, want 2/5", len(runs), total)
	}
	runs, _ = a.List(Query{Benchmark: "PHASE", Limit: 2, Offset: 4})
	if len(runs) != 1 {
		t.Fatalf("List offset tail: %d, want 1", len(runs))
	}
	if runs, _ = a.List(Query{Offset: 100}); len(runs) != 0 {
		t.Fatal("offset past the end must return nothing")
	}

	// Sig containment: one of PHASE's interned signatures.
	if len(phase.Sigs) == 0 {
		t.Fatal("run has no signature set")
	}
	runs, total = a.List(Query{Sig: phase.Sigs[0]})
	if total != 1 || runs[0].ID != phase.ID {
		t.Fatalf("List by sig: got %d runs, want exactly the matching one", total)
	}
	// SigSet exact match.
	runs, _ = a.List(Query{SigSet: phase.SigSet})
	if len(runs) != 1 || runs[0].ID != phase.ID {
		t.Fatal("List by sigset must match exactly one run")
	}
}

func TestDeleteAndCompact(t *testing.T) {
	a := openTemp(t, Options{})
	keep, _, err := a.Ingest(tracegen.SendRecvTrace(4, "PHASE", 40, 30))
	if err != nil {
		t.Fatal(err)
	}
	drop, _, err := a.Ingest(tracegen.SendRecvTrace(4, "PHASE", 40, 31))
	if err != nil {
		t.Fatal(err)
	}

	if err := a.Delete(drop.ID); err != nil {
		t.Fatal(err)
	}
	// Append-only: the segment survives deletion until compaction.
	if got := countSegments(t, a); got != 2 {
		t.Fatalf("segments after delete = %d, want 2", got)
	}
	// Plant tmp debris as a crashed ingest would leave.
	if err := os.WriteFile(filepath.Join(a.dir, "tmp", "seg-debris"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	removed, err := a.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 { // orphaned segment + tmp debris
		t.Fatalf("compact removed %d files, want 2", removed)
	}
	if got := countSegments(t, a); got != 1 {
		t.Fatalf("segments after compact = %d, want 1", got)
	}
	if _, _, err := a.Get(drop.ID); err == nil {
		t.Fatal("deleted run must not resolve")
	}
	if _, _, err := a.Get(keep.ID); err != nil {
		t.Fatalf("surviving run broken after compact: %v", err)
	}
}

// A deleted or crashed ingest leaves its segment file behind until
// Compact. Re-ingesting the same content address must replace that file,
// never adopt it: it may be truncated, or written under the other Gzip
// setting, and the new manifest record describes what this ingest wrote.
func TestReingestReplacesOrphanSegment(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, seg string)
		reopen Options
	}{
		{"orphan written without gzip, archive reopened with it", func(*testing.T, string) {}, Options{Gzip: true}},
		{"orphan truncated", func(t *testing.T, seg string) {
			if err := os.Truncate(seg, 10); err != nil {
				t.Fatal(err)
			}
		}, Options{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			a, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			f := tracegen.SendRecvTrace(4, "PHASE", 40, 32)
			run, _, err := a.Ingest(f)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Delete(run.ID); err != nil {
				t.Fatal(err)
			}
			tc.damage(t, a.segmentPath(DefaultTenant, run.ID))
			a.Close()

			b, err := Open(dir, tc.reopen)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			again, created, err := b.Ingest(f)
			if err != nil || !created || again.ID != run.ID {
				t.Fatalf("re-ingest over the orphan: created=%v id=%.12s err=%v", created, again.ID, err)
			}
			if again.Gzip != tc.reopen.Gzip || again.StoredBytes <= 10 {
				t.Fatalf("record does not describe the rewritten segment: %+v", again)
			}
			got, _, err := b.Get(run.ID)
			if err != nil {
				t.Fatalf("acknowledged re-ingest cannot be read back: %v", err)
			}
			if _, id, _ := Encode(got); id != run.ID {
				t.Fatal("re-ingested run decodes to a different content address")
			}
		})
	}
}

func TestResolvePrefix(t *testing.T) {
	a := openTemp(t, Options{})
	run, _, err := a.Ingest(tracegen.SendRecvTrace(4, "PHASE", 40, 50))
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.Resolve(run.ID[:12])
	if err != nil || got.ID != run.ID {
		t.Fatalf("prefix resolve: %v", err)
	}
	if _, err := a.Resolve(run.ID[:4]); err == nil {
		t.Fatal("too-short prefix must not resolve")
	}
	if _, err := a.Resolve("ffffffffffff"); err == nil {
		t.Fatal("unknown prefix must not resolve")
	}
}

// Four ingests leave the index on disk as a log or a checkpoint (which
// one is the checkpoint rule's business), nothing in tmp/, and four
// runs for the next process to open — without this one closing.
func TestManifestSwapLeavesNoTemp(t *testing.T) {
	a := openTemp(t, Options{})
	for i := uint64(0); i < 4; i++ {
		if _, _, err := a.Ingest(tracegen.SendRecvTrace(2, "BT", 40, 60+i)); err != nil {
			t.Fatal(err)
		}
	}
	_, logErr := os.Stat(a.logPath())
	_, ckptErr := os.Stat(a.manifestPath())
	if logErr != nil && ckptErr != nil {
		t.Fatalf("neither manifest log (%v) nor checkpoint (%v) on disk", logErr, ckptErr)
	}
	tmps, err := os.ReadDir(filepath.Join(a.dir, "tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) != 0 {
		t.Fatalf("tmp staging not empty after ingests: %d files", len(tmps))
	}
	b, err := Open(a.dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if runs, total := b.List(Query{}); total != 4 || len(runs) != 4 {
		t.Fatalf("reopened archive lists %d/%d runs, want 4/4", len(runs), total)
	}
}
