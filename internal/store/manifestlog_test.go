package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"chameleon/internal/obs"
	"chameleon/internal/trace"
	"chameleon/internal/tracegen"
)

// referenceManifest is the index file the archive wrote before there
// was a log: every run, sorted by tenant then ID, indented by one
// space. A checkpoint has to be these bytes exactly, or an archive
// closed by this code would not be the archive the old code left.
func referenceManifest(t *testing.T, runs []Run) []byte {
	t.Helper()
	m := manifest{Version: manifestVersion}
	for i := range runs {
		m.Runs = append(m.Runs, &runs[i])
	}
	sort.Slice(m.Runs, func(i, j int) bool {
		if m.Runs[i].Tenant != m.Runs[j].Tenant {
			return m.Runs[i].Tenant < m.Runs[j].Tenant
		}
		return m.Runs[i].ID < m.Runs[j].ID
	})
	data, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// archiveModel is what an archive must hold: tenant -> ID -> record.
type archiveModel map[string]map[string]Run

func (m archiveModel) put(r Run) {
	if m[r.Tenant] == nil {
		m[r.Tenant] = map[string]Run{}
	}
	m[r.Tenant][r.ID] = r
}

func (m archiveModel) clone() archiveModel {
	c := archiveModel{}
	for _, runs := range m {
		for _, r := range runs {
			c.put(r)
		}
	}
	return c
}

func (m archiveModel) all() []Run {
	var out []Run
	for _, runs := range m {
		for _, r := range runs {
			out = append(out, r)
		}
	}
	return out
}

func (m archiveModel) used(tenant string) int64 {
	var n int64
	for _, r := range m[tenant] {
		n += r.RawBytes
	}
	return n
}

// check compares everything the archive answers from its index with
// the model: each tenant's listing record by record, Len, and the
// quota accounting.
func (m archiveModel) check(t *testing.T, a *Archive, tenants []string, when string) {
	t.Helper()
	total := 0
	for _, tenant := range tenants {
		runs, n := a.Tenant(tenant).List(Query{})
		if n != len(m[tenant]) || len(runs) != n {
			t.Fatalf("%s: tenant %q lists %d/%d runs, model holds %d", when, tenant, len(runs), n, len(m[tenant]))
		}
		for _, got := range runs {
			want, ok := m[tenant][got.ID]
			if !ok {
				t.Fatalf("%s: tenant %q lists %.12s, which the model does not hold", when, tenant, got.ID)
			}
			// Times survive JSON as instants, not as the same struct.
			if !got.Ingested.Equal(want.Ingested) {
				t.Fatalf("%s: run %.12s ingested %v, model %v", when, got.ID, got.Ingested, want.Ingested)
			}
			got.Ingested = want.Ingested
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: run %.12s is %+v, model %+v", when, got.ID, got, want)
			}
		}
		total += n
		if got := a.Usage()[tenant]; got != m.used(tenant) {
			t.Fatalf("%s: tenant %q charged %d bytes, model %d", when, tenant, got, m.used(tenant))
		}
	}
	if a.Len() != total {
		t.Fatalf("%s: Len %d, model %d", when, a.Len(), total)
	}
}

func mustIngest(t *testing.T, v TenantView, f *trace.File) Run {
	t.Helper()
	r, created, err := v.Ingest(f)
	if err != nil || !created {
		t.Fatalf("ingest: created=%v err=%v", created, err)
	}
	return r
}

// crashedArchive builds an archive over two tenants whose index is a
// checkpoint plus a log of puts and deletes, performs `last` as the
// final logged change and abandons the archive unclosed, as kill -9
// would. It returns the directory, the index state before and after
// that last change, and the log's bytes.
func crashedArchive(t *testing.T, last func(t *testing.T, a *Archive, m archiveModel)) (dir string, before, after archiveModel, log []byte) {
	t.Helper()
	dir = t.TempDir()
	a, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	acme := a.Tenant("acme")
	m := archiveModel{}
	m.put(mustIngest(t, a.TenantView, tracegen.SendRecvTrace(4, "LU", 40, 100)))
	m.put(mustIngest(t, acme, tracegen.SendRecvTrace(4, "LU", 40, 100))) // same content, other tenant
	doomed := mustIngest(t, a.TenantView, tracegen.SendRecvTrace(4, "BT", 40, 101))
	if _, err := a.Compact(); err != nil { // checkpoint: everything above is in manifest.json
		t.Fatal(err)
	}
	m.put(mustIngest(t, acme, mkWideTrace(8, "PHASE", 102)))
	if err := a.Delete(doomed.ID); err != nil { // a del of a checkpointed run
		t.Fatal(err)
	}
	gone := mustIngest(t, acme, tracegen.SendRecvTrace(4, "SP", 40, 103))
	if err := acme.Delete(gone.ID); err != nil { // a del of a logged put
		t.Fatal(err)
	}
	m.put(mustIngest(t, a.TenantView, tracegen.SendRecvTrace(2, "CG", 40, 104)))
	before = m.clone()
	last(t, a, m)
	log, err = os.ReadFile(a.logPath())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(a.manifestPath()); err != nil {
		t.Fatalf("fixture has no checkpoint under its log: %v", err)
	}
	return dir, before, m, log
}

var twoTenants = []string{DefaultTenant, "acme"}

// putMG is the usual last change of a crashedArchive: one more run for
// tenant acme.
func putMG(t *testing.T, a *Archive, m archiveModel) {
	m.put(mustIngest(t, a.Tenant("acme"), tracegen.SendRecvTrace(4, "MG", 40, 105)))
}

// A crash can cut the last log record at any byte. Whatever the cut,
// Open succeeds, every earlier change is in force, the cut one is
// absent as a whole (present only when its newline made it), the log is
// repaired, and the next change survives a further crash.
func TestLogTornTailEveryByte(t *testing.T) {
	for _, tc := range []struct {
		name string
		last func(t *testing.T, a *Archive, m archiveModel)
	}{
		{"last record is a put", putMG},
		{"last record is a del", func(t *testing.T, a *Archive, m archiveModel) {
			for id := range m[DefaultTenant] {
				if err := a.Delete(id); err != nil {
					t.Fatal(err)
				}
				delete(m[DefaultTenant], id)
				return
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, before, after, log := crashedArchive(t, tc.last)
			ckpt, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
			if err != nil {
				t.Fatal(err)
			}
			start := bytes.LastIndexByte(log[:len(log)-1], '\n') + 1
			if start == 0 || reflect.DeepEqual(before, after) {
				t.Fatal("fixture: the last record must follow others and change the index")
			}
			// Besides every prefix of the record: a last line that has
			// its newline and still does not parse.
			tails := [][]byte{append(append([]byte{}, log[:start]...), "{\"put\":{\"id\":\n"...)}
			for cut := start; cut <= len(log); cut++ {
				tails = append(tails, log[:cut])
			}
			// One directory serves every cut. The index is the two
			// manifest files; segments play no part in replay (the
			// orphan case below has them). Each cut empties the
			// directory and writes the two files afresh, never over a
			// file that holds data: on ext4, replacing one starts its
			// writeback, and the replacement waits for it.
			crashed := t.TempDir()
			for _, tail := range tails {
				want, when := before, fmt.Sprintf("log cut to %d of %d bytes", len(tail), len(log))
				if bytes.Equal(tail, log) {
					want = after
				}
				if err := os.RemoveAll(crashed); err != nil {
					t.Fatal(err)
				}
				if err := os.Mkdir(crashed, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(crashed, "manifest.json"), ckpt, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(crashed, "manifest.log"), tail, 0o644); err != nil {
					t.Fatal(err)
				}
				a, err := Open(crashed, Options{})
				if err != nil {
					t.Fatalf("%s: Open: %v", when, err)
				}
				want.check(t, a, twoTenants, when)
				if _, err := os.Stat(a.logPath()); !os.IsNotExist(err) {
					t.Fatalf("%s: Open left the log in place (%v)", when, err)
				}
				// The next change lands on a clean tail: crash again
				// (no Close) and it is there, beside everything else.
				want = want.clone()
				want.put(mustIngest(t, a.TenantView, tracegen.SendRecvTrace(2, "FT", 40, 106)))
				b, err := Open(crashed, Options{})
				if err != nil {
					t.Fatalf("%s: Open after the next ingest: %v", when, err)
				}
				want.check(t, b, twoTenants, when+", then one ingest")
			}
		})
	}
}

// The checkpoint is renamed into place before the log is removed. A
// crash between the two leaves a log whose every record the checkpoint
// already holds; applying it again changes nothing, the quota
// accounting included.
func TestLogReplayedOverItsOwnCheckpoint(t *testing.T) {
	dir, _, after, log := crashedArchive(t, putMG)
	a, err := Open(dir, Options{}) // replays, checkpoints, removes the log
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	ckpt, err := os.ReadFile(a.manifestPath())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(a.logPath(), log, 0o644); err != nil { // the removal never happened
		t.Fatal(err)
	}
	b, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	after.check(t, b, twoTenants, "log applied twice")
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := os.ReadFile(b.manifestPath())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ckpt, again) {
		t.Fatal("checkpoint changed when its own log was replayed over it")
	}
}

// A bad line with good lines after it is not a crash's doing.
func TestLogCorruptMiddleLineFailsOpen(t *testing.T) {
	dir, _, _, log := crashedArchive(t, putMG)
	lines := bytes.SplitAfter(log, []byte("\n"))
	lines[1] = []byte("{\"put\":{\"id\":\"abc\",\"p\":\n") // line 2 of the log
	if err := os.WriteFile(filepath.Join(dir, "manifest.log"), bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, Options{})
	if err == nil || !strings.Contains(err.Error(), "manifest log: line 2") {
		t.Fatalf("Open over a corrupt middle line: %v, want an error naming line 2", err)
	}
}

// The segment is renamed into place before the log line is written. A
// crash between the two leaves a file no record names: invisible to
// every query, and Compact's to reclaim.
func TestSegmentWithoutLogRecordIsOrphan(t *testing.T) {
	var lost Run
	dir, before, _, log := crashedArchive(t, func(t *testing.T, a *Archive, m archiveModel) {
		lost = mustIngest(t, a.Tenant("acme"), tracegen.SendRecvTrace(4, "MG", 40, 105))
		m.put(lost)
	})
	start := bytes.LastIndexByte(log[:len(log)-1], '\n') + 1
	if err := os.WriteFile(filepath.Join(dir, "manifest.log"), log[:start], 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	seg := a.segmentPath("acme", lost.ID)
	if _, err := os.Stat(seg); err != nil {
		t.Fatalf("fixture: the unlogged segment should be on disk: %v", err)
	}
	before.check(t, a, twoTenants, "segment without a record")
	if _, err := a.Tenant("acme").Resolve(lost.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unlogged run resolves: %v", err)
	}
	// The fixture's own two deleted runs are orphans as well.
	if removed, err := a.Compact(); err != nil || removed != 3 {
		t.Fatalf("Compact removed %d files (%v), want the 3 orphaned segments", removed, err)
	}
	if _, err := os.Stat(seg); !os.IsNotExist(err) {
		t.Fatalf("orphan survived Compact: %v", err)
	}
	before.check(t, a, twoTenants, "after Compact")
}

// A change whose log line cannot be written did not happen: the index
// in memory is rolled back, the caller gets the error, and bytes a
// failed write left behind are cut off before the next line lands, so
// they never end up mid-log. /dev/full stands in for a full disk: it
// accepts the open, fails the write with ENOSPC, and cannot be
// truncated either.
func TestLogAppendFailureRollsBack(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to fail writes with")
	}
	dir := t.TempDir()
	a, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := archiveModel{}
	kept := mustIngest(t, a.TenantView, tracegen.SendRecvTrace(4, "LU", 40, 200))
	m.put(kept)
	log, err := os.ReadFile(a.logPath())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(a.logPath()); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink("/dev/full", a.logPath()); err != nil {
		t.Fatal(err)
	}

	refused := tracegen.SendRecvTrace(4, "LU", 40, 201)
	if _, _, err := a.Ingest(refused); err == nil {
		t.Fatal("ingest acknowledged a run whose log line was not written")
	}
	m.check(t, a, twoTenants, "after the failed ingest")
	if err := a.Delete(kept.ID); err == nil {
		t.Fatal("delete acknowledged with its log line unwritten")
	}
	m.check(t, a, twoTenants, "after the failed delete")

	// The disk has room again, and holds the log plus the first bytes
	// of the line that did not fit.
	if err := os.Remove(a.logPath()); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(a.logPath(), append(log, "{\"put\":{\"id\":\"5f"...), 0o644); err != nil {
		t.Fatal(err)
	}
	m.put(mustIngest(t, a.TenantView, refused))
	b, err := Open(dir, Options{}) // a crash here finds a log of whole lines
	if err != nil {
		t.Fatalf("the failed append's bytes were buried mid-log: %v", err)
	}
	defer b.Close()
	m.check(t, b, twoTenants, "reopened")
}

// An archive directory the pre-log code wrote — a manifest.json, no log
// — opens as it is, and is not rewritten by being opened and closed.
func TestOpenCheckpointOnlyArchive(t *testing.T) {
	dir, _, after, _ := crashedArchive(t, putMG)
	old := referenceManifest(t, after.all())
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), old, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "manifest.log")); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	a, err := Open(dir, Options{Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	after.check(t, a, twoTenants, "checkpoint-only archive")
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("store_checkpoints").Value(); n != 0 {
		t.Fatalf("open+close of an unchanged archive wrote %d checkpoints", n)
	}
}

// A seeded random history of ingests, dedup ingests, deletes,
// compactions, clean reopens and crashes (reopen without Close) over
// three tenants under a quota, against a plain map. The archive must
// agree with the map after every reopen; an ingest is refused for quota
// exactly when the map says the tenant is full; and the file a Close
// leaves is, byte for byte, the manifest.json the pre-log writeManifest
// produced from the same runs, with no log beside it.
func TestLogAgainstModel(t *testing.T) {
	tenants := []string{DefaultTenant, "acme", "zeta"}
	wide, _, err := Encode(mkWideTrace(8, "PHASE", 0))
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{QuotaBytes: int64(len(wide)) * 6}
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed ", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			const steps = 1500
			journal := obs.NewJournalRing(nil, 2*steps)
			opts.Journal = journal
			dir := t.TempDir()
			a, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			m := archiveModel{}
			files := map[string]*trace.File{} // ID -> a file that encodes to it
			var rejected, reopened int
			next := uint64(seed * 10_000)
			for step := 0; step < steps; step++ {
				when := fmt.Sprintf("step %d", step)
				tenant := tenants[rng.Intn(len(tenants))]
				v := a.Tenant(tenant)
				var ids []string
				for id := range m[tenant] {
					ids = append(ids, id)
				}
				sort.Strings(ids)
				switch p := rng.Intn(1000); {
				case p < 450: // a run the tenant does not hold
					next++
					// Mostly wide traces: their records are ~3 KB, so
					// the log reaches the checkpoint threshold between
					// reopens.
					f := mkWideTrace(8, "PHASE", next)
					if rng.Intn(5) == 0 {
						f = tracegen.SendRecvTrace(4, "LU", 40, next)
					}
					payload, id, err := Encode(f)
					if err != nil {
						t.Fatal(err)
					}
					fits := m.used(tenant)+int64(len(payload)) <= opts.QuotaBytes
					r, created, err := v.Ingest(f)
					switch {
					case fits && (err != nil || !created || r.ID != id || r.Tenant != tenant):
						t.Fatalf("%s: ingest that fits: created=%v err=%v", when, created, err)
					case !fits && !errors.Is(err, ErrQuotaExceeded):
						t.Fatalf("%s: tenant %q is full (%d held, %d more), ingest returned %v", when, tenant, m.used(tenant), len(payload), err)
					case fits:
						m.put(r)
						files[id] = f
					default:
						rejected++
					}
				case p < 530 && len(ids) > 0: // dedup
					id := ids[rng.Intn(len(ids))]
					r, created, err := v.Ingest(files[id])
					if err != nil || created || !r.Ingested.Equal(m[tenant][id].Ingested) {
						t.Fatalf("%s: dedup ingest: created=%v err=%v", when, created, err)
					}
				case p < 930 && len(ids) > 0:
					id := ids[rng.Intn(len(ids))]
					if err := v.Delete(id); err != nil {
						t.Fatalf("%s: delete: %v", when, err)
					}
					delete(m[tenant], id)
				case p < 950:
					if err := v.Delete("0000feedfacecafe"); !errors.Is(err, ErrNotFound) {
						t.Fatalf("%s: delete of an unknown run: %v", when, err)
					}
				case p < 955:
					if _, err := a.Compact(); err != nil {
						t.Fatalf("%s: compact: %v", when, err)
					}
				case p < 975: // clean restart
					if err := a.Close(); err != nil {
						t.Fatalf("%s: close: %v", when, err)
					}
					got, err := os.ReadFile(a.manifestPath())
					if err != nil && len(m.all()) > 0 {
						t.Fatalf("%s: closed archive has no checkpoint: %v", when, err)
					}
					if want := referenceManifest(t, m.all()); err == nil && !bytes.Equal(got, want) {
						t.Fatalf("%s: checkpoint at Close is not the manifest the pre-log code writes\n got %d bytes\nwant %d bytes", when, len(got), len(want))
					}
					if _, err := os.Stat(a.logPath()); !os.IsNotExist(err) {
						t.Fatalf("%s: Close left a log (%v)", when, err)
					}
					fallthrough
				case p < 1000: // crash: the next Open finds whatever is on disk
					if a, err = Open(dir, opts); err != nil {
						t.Fatalf("%s: reopen: %v", when, err)
					}
					reopened++
					m.check(t, a, tenants, when+", reopened")
				}
			}
			a.Close()
			m.check(t, a, tenants, "at the end")
			// A log folded by Open, Close or Compact is below the size
			// threshold, or the size rule would have folded it first.
			bySize := 0
			events, _, _ := journal.Tail(0)
			for _, ev := range events {
				if ev.Kind == KindCheckpoint && ev.Count >= minCheckpointLog {
					bySize++
				}
			}
			if rejected == 0 || reopened == 0 || bySize == 0 {
				t.Fatalf("history too tame: %d quota rejections, %d reopens, %d checkpoints by the size rule", rejected, reopened, bySize)
			}
			t.Logf("%d quota rejections, %d reopens, %d checkpoints by the size rule", rejected, reopened, bySize)
		})
	}
}

// growthArchive ingests n distinct runs and reports, from the
// archive's own journal, how many checkpoints that took and how many
// index bytes were written to manifest.json and manifest.log together.
func growthArchive(t testing.TB, n int) (a *Archive, checkpoints int, written int64) {
	t.Helper()
	j := obs.NewJournalRing(nil, 2*n+64)
	a, err := Open(t.TempDir(), Options{Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, _, err := a.Ingest(tracegen.SendRecvTrace(2, "LU", 40, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	events, _, dropped := j.Tail(0)
	if dropped != 0 {
		t.Fatalf("journal ring dropped %d events", dropped)
	}
	for _, ev := range events {
		if ev.Kind == KindCheckpoint {
			checkpoints++
			written += ev.Bytes + int64(ev.Count) // the checkpoint, and the log it folded in
		}
	}
	return a, checkpoints, written
}

// The point of the log: N ingests write O(N) index bytes in O(log N)
// checkpoints, where rewriting the index per ingest wrote O(N²) in N.
// Measured here: 2 000 ingests, 5 checkpoints (Close's included), 3.4×
// the final index; the geometric bound is under 4×. With appendLog's
// threshold mutated to "checkpoint whenever the log is non-empty" the
// same run makes 2 000 checkpoints and writes 1 001× the final index
// (939 MB), and both assertions trip.
func TestIndexGrowthBudget(t *testing.T) {
	const n = 2000
	a, checkpoints, written := growthArchive(t, n)
	if a.Len() != n {
		t.Fatalf("archive holds %d runs, want %d", a.Len(), n)
	}
	if checkpoints < 2 || checkpoints > 8 {
		t.Errorf("%d ingests took %d checkpoints, want a handful (2..8): the log is folded when it reaches the size of the last checkpoint", n, checkpoints)
	}
	if limit := 5 * a.ckptBytes; written > limit {
		t.Errorf("%d ingests wrote %d index bytes, over 5× the final checkpoint's %d", n, written, a.ckptBytes)
	}
	t.Logf("%d ingests: %d checkpoints, %d index bytes written, final checkpoint %d bytes (%.2f×)",
		n, checkpoints, written, a.ckptBytes, float64(written)/float64(a.ckptBytes))
}

// BenchmarkIngestGrowth times one ingest into an archive already
// holding 0, 600 and 5 000 runs; the three read the same when the cost
// of an ingest does not depend on the size of the index. Read it at a
// fixed small count (-benchtime=200x), so the archive stays near its
// starting size.
func BenchmarkIngestGrowth(b *testing.B) {
	for _, held := range []int{0, 600, 5000} {
		b.Run(fmt.Sprint("held=", held), func(b *testing.B) {
			a, err := Open(b.TempDir(), Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer a.Close()
			for i := 0; i < held; i++ {
				if _, _, err := a.Ingest(tracegen.SendRecvTrace(2, "LU", 40, uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
			files := make([]*trace.File, b.N)
			for i := range files {
				files[i] = tracegen.SendRecvTrace(2, "LU", 40, uint64(held+i))
			}
			b.ResetTimer()
			for _, f := range files {
				if _, _, err := a.Ingest(f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// FuzzManifestLog feeds arbitrary bytes to the replay decoder. It must
// not panic; on success every record it returns is the decoding of the
// input's line at the same position, and only the last whole line may
// be missing (the torn tail); on failure the line it blames is not the
// last; and applying the records twice leaves what applying them once
// left, usage included.
func FuzzManifestLog(f *testing.F) {
	put := func(tenant, id string, raw int64) string {
		b, _ := json.Marshal(logRecord{Put: &Run{ID: id, Tenant: tenant, P: 4, RawBytes: raw, Sigs: []uint64{1, 2}}})
		return string(b) + "\n"
	}
	del := func(tenant, id string) string {
		b, _ := json.Marshal(logRecord{Del: &logDel{Tenant: tenant, ID: id}})
		return string(b) + "\n"
	}
	valid := put("default", "aa11", 100) + put("acme", "bb22", 50) + del("default", "aa11") + put("acme", "cc33", 7)
	for _, seed := range []string{
		"",
		valid,
		valid[:len(valid)-1],          // torn: newline missing
		valid[:len(valid)-9],          // torn: mid-record
		valid + "{\"put\":",           // torn: a few bytes of the next
		valid + "{\"put\":{\"id\":\n", // torn: whole last line, unparsable
		valid + "\n",                  // blank last line
		"garbage\n" + valid,           // corrupt first line
		put("default", "aa11", 100) + "{}\n" + del("default", "aa11"),           // neither put nor del, mid-log
		"{\"put\":{\"id\":\"aa11\"},\"del\":{\"id\":\"aa11\"}}\n" + valid,       // both
		put("acme", "dd44", 10) + put("acme", "dd44", 30) + del("acme", "dd44"), // duplicate puts, sizes differ
		put("acme", "dd44", 10) + put("acme", "dd44", 10),
		del("acme", "nosuchrun") + del("ghost", "nosuchrun"),      // dels of unknown IDs and tenants
		put("", "ee55", 5) + del("", "ee55") + put("", "ee55", 5), // empty tenant = default
		put("default", "", 5) + valid,                             // no ID
		"{\"del\":{\"tenant\":\"acme\"}}\n" + valid,
		"null\n" + valid,
		"{\"put\":null,\"del\":null}\n",
		put("acme", strings.Repeat("f", 1<<16), 1) + valid, // huge line
		"{\"put\":{\"id\":\"aa11\",\"sigs\":[" + strings.Repeat("1,", 1<<15) + "1]}}\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := decodeLog(data)
		lines := bytes.Split(data, []byte("\n"))
		// What follows the last newline is never a record; a fragment
		// there means the last whole line is not the log's last line.
		whole, fragment := lines[:len(lines)-1], len(lines[len(lines)-1]) > 0
		if err != nil {
			var n int
			if _, serr := fmt.Sscanf(err.Error(), "store: manifest log: line %d:", &n); serr != nil || n < 1 || n > len(whole) || n == len(whole) && !fragment {
				t.Fatalf("error %q over %d whole lines (fragment after them: %v) blames the torn tail or no line", err, len(whole), fragment)
			}
			return
		}
		if dropped := len(whole) - len(recs); dropped != 0 && (dropped != 1 || fragment) {
			t.Fatalf("%d records out of %d whole lines (fragment after them: %v)", len(recs), len(whole), fragment)
		}
		for i, rec := range recs {
			var want logRecord
			if err := json.Unmarshal(whole[i], &want); err != nil {
				t.Fatalf("record %d reported from a line that does not parse: %q", i, whole[i])
			}
			switch {
			case want.Put != nil && want.Del == nil && want.Put.ID != "":
				if want.Put.Tenant == "" {
					want.Put.Tenant = DefaultTenant
				}
			case want.Del != nil && want.Put == nil && want.Del.ID != "":
				if want.Del.Tenant == "" {
					want.Del.Tenant = DefaultTenant
				}
			default:
				t.Fatalf("record %d reported from a line that is not one put or one del: %q", i, whole[i])
			}
			if !reflect.DeepEqual(rec, want) {
				t.Fatalf("record %d is %+v, line %q decodes to %+v", i, rec, whole[i], want)
			}
		}

		a := &Archive{runs: map[string]map[string]*Run{}, used: map[string]int64{}}
		snapshot := func() (map[string]map[string]Run, map[string]int64) {
			a.applyLog(recs)
			runs, used := map[string]map[string]Run{}, map[string]int64{}
			for tenant, held := range a.runs {
				var sum int64
				for id, r := range held {
					if runs[tenant] == nil {
						runs[tenant] = map[string]Run{}
					}
					runs[tenant][id] = *r
					sum += r.RawBytes
				}
				if a.used[tenant] != sum {
					t.Fatalf("tenant %q charged %d, holds %d", tenant, a.used[tenant], sum)
				}
				used[tenant] = sum
			}
			return runs, used
		}
		runs1, used1 := snapshot()
		runs2, used2 := snapshot()
		if !reflect.DeepEqual(runs1, runs2) || !reflect.DeepEqual(used1, used2) {
			t.Fatalf("replay is not idempotent:\nonce  %v %v\ntwice %v %v", runs1, used1, runs2, used2)
		}
	})
}
