// Package store is the persistent trace archive: a content-addressed,
// append-only segment store with a manifest index, built so online
// traces survive the run that produced them and can be compared across
// runs.
//
// Layout under the archive directory:
//
//	manifest.json              checkpoint of the run index (atomic swap)
//	manifest.log               index changes since that checkpoint, one JSON line each
//	segments/ab/abcd....seg    default-tenant v2 binary payloads (optionally gzip)
//	edges/ab/abcd....jsonl     default-tenant causal-edge sidecars (see edges.go)
//	tenants/<t>/segments/...   per-tenant payloads for every other tenant
//	tenants/<t>/edges/...      per-tenant sidecars
//	tmp/                       staging area for in-flight writes
//
// A run's identity is the SHA-256 of its canonical CHAMTRC2 encoding, so
// ingest is idempotent: pushing the same trace twice (in any input
// format — v1, v2, or JSON) normalizes to the same bytes, the same
// content address, and a single stored segment. Runs are namespaced by
// tenant (see tenant.go): content addresses dedup within a tenant, and
// tenants are fully isolated on disk — the same trace pushed by two
// tenants is stored twice, so deleting one tenant's data can never
// reach into another's.
//
// The manifest indexes each run by tenant, benchmark, rank count,
// Call-Path signature set, and ingest timestamp. An ingest or delete
// appends one line to manifest.log; manifest.json is only ever replaced
// whole (write-temp + rename) when a checkpoint folds the log into it,
// which happens once the log is as large as the last checkpoint, and on
// Compact, Close and Open. Open replays the log over the checkpoint, so
// a crash at any point leaves every acknowledged change in place, at
// worst a torn last log line (dropped) and an orphaned segment, which
// Compact reclaims. The archive assumes a single writing process.
package store

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"chameleon/internal/atomicfile"
	"chameleon/internal/clock"
	"chameleon/internal/obs"
	"chameleon/internal/trace"
)

// Journal event kinds emitted by the archive.
const (
	KindIngest  = "store_ingest"  // one run ingested (Note: "new" or "dedup")
	KindCompact = "store_compact" // one compaction pass (Count: files removed)
	// KindCheckpoint is one fold of manifest.log into manifest.json
	// (Bytes: the checkpoint written, Count: the log bytes it replaced).
	KindCheckpoint = "store_checkpoint"
)

// Sentinel errors, wrapped with %w where they arise; the HTTP layer's
// status map and the federation layer's proxy-on-miss match them with
// errors.Is.
var (
	// ErrQuotaExceeded marks an ingest rejected by a tenant storage
	// quota (429 + Retry-After).
	ErrQuotaExceeded = errors.New("store: tenant storage quota exceeded")
	// ErrNotFound marks a run, edge sidecar, or live session this
	// archive does not hold (404).
	ErrNotFound = errors.New("not found")
	// ErrAmbiguous marks a run prefix matching more than one run (409).
	ErrAmbiguous = errors.New("is ambiguous")
)

// Options configures an Archive.
type Options struct {
	// Gzip compresses stored segments on disk. Reads transparently
	// decompress; the content address is always of the uncompressed
	// canonical payload, so a gzip archive dedups against a plain one.
	Gzip bool
	// QuotaBytes caps each tenant's stored run data, measured in
	// canonical (raw) payload bytes — deterministic regardless of the
	// Gzip setting. 0 means unlimited.
	QuotaBytes int64
	// Reg, when non-nil, receives ingest/query/compaction counters and
	// latency histograms.
	Reg *obs.Registry
	// Journal, when non-nil, receives store_ingest/store_compact/
	// store_checkpoint events.
	Journal *obs.Journal
}

// Run is one archived trace: the manifest record the index keeps and
// the HTTP API serves.
type Run struct {
	// ID is the content address: hex SHA-256 of the canonical CHAMTRC2
	// payload.
	ID string `json:"id"`
	// Tenant is the namespace the run lives in (empty in old manifests
	// means DefaultTenant).
	Tenant string `json:"tenant,omitempty"`
	// Benchmark/Tracer/P/Clustered mirror the trace file metadata.
	Benchmark string `json:"benchmark,omitempty"`
	Tracer    string `json:"tracer,omitempty"`
	P         int    `json:"p"`
	Clustered bool   `json:"clustered,omitempty"`
	// Sigs is the sorted Call-Path signature set (the trace's interned
	// call-site table); SigSet is its SHA-256, a cheap equality key for
	// "same code paths, possibly different timings".
	Sigs   []uint64 `json:"sigs,omitempty"`
	SigSet string   `json:"sigset,omitempty"`
	// Ingested is the archive-local ingest timestamp.
	Ingested time.Time `json:"ingested"`
	// RawBytes and StoredBytes are the payload sizes before and after
	// segment compression (equal when Gzip is false).
	RawBytes    int64 `json:"raw_bytes"`
	StoredBytes int64 `json:"stored_bytes"`
	// Gzip reports whether the segment is stored gzip-compressed.
	Gzip bool `json:"gzip,omitempty"`
	// Events and Nodes summarize the trace (dynamic MPI events, total
	// PRSD nodes).
	Events uint64 `json:"events"`
	Nodes  int    `json:"nodes"`
}

// Query filters and paginates List. Zero fields match everything.
type Query struct {
	Benchmark string
	P         int
	Sig       uint64 // runs whose signature set contains this sig
	SigSet    string // exact signature-set hash
	Limit     int    // 0 = no limit
	Offset    int
}

// Archive is an open trace archive. All methods are safe for concurrent
// use. Every per-run operation lives on TenantView; the embedded view is
// the default tenant's, so a.Ingest, a.Get, a.Payload, a.List, ... act
// on it, and a.Tenant(name) scopes the same operations to anyone else.
type Archive struct {
	TenantView

	dir  string
	opts Options
	clk  clock.Clock // ingest stamps and the rate limiter

	mu sync.Mutex
	// runs indexes every tenant's records: tenant -> content address ->
	// run. A record is immutable once putRunLocked stores it: an ingest
	// or a replay replaces the pointer, and nothing writes through it.
	// match lends these records out past the lock, so one write in place
	// would race every listing that holds it.
	runs map[string]map[string]*Run
	used map[string]int64 // tenant -> sum of RawBytes

	ckptBytes int64 // size of manifest.json as last read or written
	logBytes  int64 // size of manifest.log up to its last whole record
	logTorn   bool  // a failed append may have left bytes past logBytes

	mIngest, mDedup, mGets, mLists, mDeletes *obs.Counter
	mCompacts, mOrphans, mCheckpoints        *obs.Counter
	mRawBytes, mStoredBytes                  *obs.Counter
	mQuotaRejects                            *obs.Counter
	hIngest, hGet                            *obs.Histogram
}

type manifest struct {
	Version int    `json:"version"`
	Runs    []*Run `json:"runs"`
}

const manifestVersion = 1

// Open opens (creating if necessary) the archive rooted at dir.
func Open(dir string, opts Options) (*Archive, error) {
	for _, d := range []string{dir, filepath.Join(dir, "segments"), filepath.Join(dir, "tmp")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	a := &Archive{
		dir:  dir,
		opts: opts,
		clk:  clock.Real{},
		runs: make(map[string]map[string]*Run),
		used: make(map[string]int64),

		mIngest:       opts.Reg.Counter("store_ingests"),
		mDedup:        opts.Reg.Counter("store_ingest_dedups"),
		mGets:         opts.Reg.Counter("store_gets"),
		mLists:        opts.Reg.Counter("store_lists"),
		mDeletes:      opts.Reg.Counter("store_deletes"),
		mCompacts:     opts.Reg.Counter("store_compactions"),
		mOrphans:      opts.Reg.Counter("store_orphans_removed"),
		mCheckpoints:  opts.Reg.Counter("store_checkpoints"),
		mRawBytes:     opts.Reg.Counter("store_raw_bytes"),
		mStoredBytes:  opts.Reg.Counter("store_stored_bytes"),
		mQuotaRejects: opts.Reg.Counter("store_quota_rejects"),
		hIngest:       opts.Reg.Histogram("store_ingest_ns"),
		hGet:          opts.Reg.Histogram("store_get_ns"),
	}
	a.TenantView = a.Tenant(DefaultTenant)
	if err := a.loadManifest(); err != nil {
		return nil, err
	}
	if err := a.replayLog(); err != nil {
		return nil, err
	}
	return a, nil
}

// Close folds the manifest log into a checkpoint, so a closed archive is
// a manifest.json and no log. The archive itself holds no open files
// between calls.
func (a *Archive) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.checkpointLocked()
}

func (a *Archive) manifestPath() string { return filepath.Join(a.dir, "manifest.json") }
func (a *Archive) logPath() string      { return filepath.Join(a.dir, "manifest.log") }

// tmpDir is the staging area every atomic write goes through.
func (a *Archive) tmpDir() string { return filepath.Join(a.dir, "tmp") }

// tenantRoot returns the directory a tenant's payload tree lives
// under: the archive root for the default tenant (the pre-federation
// layout), tenants/<name> for everyone else.
func (a *Archive) tenantRoot(tenant string) string {
	if tenant == DefaultTenant {
		return a.dir
	}
	return filepath.Join(a.dir, "tenants", tenant)
}

func (a *Archive) segmentPath(tenant, id string) string {
	return filepath.Join(a.tenantRoot(tenant), "segments", id[:2], id+".seg")
}

func (a *Archive) loadManifest() error {
	data, err := os.ReadFile(a.manifestPath())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("store: manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return fmt.Errorf("store: manifest version %d not supported", m.Version)
	}
	a.ckptBytes = int64(len(data))
	for _, r := range m.Runs {
		if r.Tenant == "" {
			r.Tenant = DefaultTenant
		}
		a.putRunLocked(r)
	}
	return nil
}

// putRunLocked indexes a run, replacing a record already under its ID,
// and charges its tenant: used stays the sum of the indexed RawBytes
// whatever is replayed over whatever. Callers hold a.mu (or are still
// single-threaded in Open).
func (a *Archive) putRunLocked(r *Run) {
	t := a.runs[r.Tenant]
	if t == nil {
		t = make(map[string]*Run)
		a.runs[r.Tenant] = t
	}
	if old := t[r.ID]; old != nil {
		a.used[r.Tenant] -= old.RawBytes
	}
	a.used[r.Tenant] += r.RawBytes
	t[r.ID] = r
}

// dropRunLocked un-indexes a run and refunds its tenant, returning the
// record (nil when the tenant holds no such run). Callers hold a.mu.
func (a *Archive) dropRunLocked(tenant, id string) *Run {
	r := a.runs[tenant][id]
	if r != nil {
		delete(a.runs[tenant], id)
		a.used[tenant] -= r.RawBytes
	}
	return r
}

// writeManifest atomically replaces the on-disk index with the current
// in-memory run set. Callers hold a.mu.
func (a *Archive) writeManifest() error {
	m := manifest{Version: manifestVersion}
	for _, t := range a.runs {
		for _, r := range t {
			m.Runs = append(m.Runs, r)
		}
	}
	sort.Slice(m.Runs, func(i, j int) bool {
		if m.Runs[i].Tenant != m.Runs[j].Tenant {
			return m.Runs[i].Tenant < m.Runs[j].Tenant
		}
		return m.Runs[i].ID < m.Runs[j].ID
	})
	data, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return err
	}
	if _, err := atomicfile.Write(a.tmpDir(), a.manifestPath(), atomicfile.Bytes(data)); err != nil {
		return fmt.Errorf("store: manifest: %w", err)
	}
	a.ckptBytes = int64(len(data))
	return nil
}

// logRecord is one line of manifest.log: exactly one of a run indexed
// or a run dropped.
type logRecord struct {
	Put *Run    `json:"put,omitempty"`
	Del *logDel `json:"del,omitempty"`
}

type logDel struct {
	Tenant string `json:"tenant"`
	ID     string `json:"id"`
}

// minCheckpointLog is the log size below which no checkpoint is due,
// however small the last one was: a young archive would otherwise
// rewrite its index every few ingests.
const minCheckpointLog = 64 << 10

// appendLog makes one index change durable-as-the-manifest-is: a single
// write of one line to manifest.log, opened and closed here. Once the
// log has grown to the size of the last checkpoint (at least
// minCheckpointLog) it is folded into a new one, so N changes write
// O(N) index bytes and the log never outweighs the index it amends. A
// checkpoint that fails is not the change's failure: its line is in
// the log, and the next change tries again. Callers hold a.mu.
func (a *Archive) appendLog(rec logRecord) error {
	if a.logTorn {
		if err := os.Truncate(a.logPath(), a.logBytes); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("store: manifest log: %w", err)
		}
		a.logTorn = false
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	f, err := os.OpenFile(a.logPath(), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("store: manifest log: %w", err)
	}
	_, err = f.Write(line)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		// Part of the line may be on disk, and the next append would
		// bury it mid-log, where replay calls it corruption. Cut it
		// off; if even that fails, the next change has to first.
		a.logTorn = os.Truncate(a.logPath(), a.logBytes) != nil
		return fmt.Errorf("store: manifest log: %w", err)
	}
	a.logBytes += int64(len(line))
	if a.logBytes >= max(a.ckptBytes, minCheckpointLog) {
		a.checkpointLocked() //nolint:errcheck — see above
	}
	return nil
}

// checkpointLocked folds the log into manifest.json: the in-memory run
// set is swapped in whole, then the log is removed. A crash between the
// two leaves a log whose records the checkpoint already holds, which
// replay applies again to no effect. Callers hold a.mu.
func (a *Archive) checkpointLocked() error {
	if a.logBytes == 0 && !a.logTorn {
		return nil
	}
	if err := a.writeManifest(); err != nil {
		return err
	}
	if err := os.Remove(a.logPath()); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: manifest log: %w", err)
	}
	a.mCheckpoints.Inc()
	a.opts.Journal.Emit(obs.Event{Kind: KindCheckpoint, Bytes: a.ckptBytes, Count: uint64(a.logBytes)})
	a.logBytes, a.logTorn = 0, false
	return nil
}

// replayLog applies manifest.log over the loaded checkpoint and, if
// there was a log at all, checkpoints — so an open archive starts with
// no log, and a repaired torn tail is gone before the next append.
func (a *Archive) replayLog() error {
	data, err := os.ReadFile(a.logPath())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: manifest log: %w", err)
	}
	recs, err := decodeLog(data)
	if err != nil {
		return err
	}
	a.applyLog(recs)
	a.logBytes = int64(len(data)) // torn tail included: the checkpoint removes the file
	return a.checkpointLocked()
}

// applyLog replays decoded records over the index. Doing so twice
// leaves what doing so once left: a put of an indexed run overwrites
// it, a del of an absent one does nothing.
func (a *Archive) applyLog(recs []logRecord) {
	for _, rec := range recs {
		if rec.Put != nil {
			a.putRunLocked(rec.Put)
		} else {
			a.dropRunLocked(rec.Del.Tenant, rec.Del.ID)
		}
	}
}

// decodeLog parses the bytes of a manifest.log. A last line that lacks
// its newline or does not parse is the torn tail of a crashed append and
// is dropped; a bad line anywhere before it is corruption. Empty tenants
// mean DefaultTenant, as in the checkpoint.
func decodeLog(data []byte) ([]logRecord, error) {
	var recs []logRecord
	for n := 1; len(data) > 0; n++ {
		end := bytes.IndexByte(data, '\n')
		if end < 0 {
			break // no newline: torn
		}
		line := data[:end]
		data = data[end+1:]
		var rec logRecord
		err := json.Unmarshal(line, &rec)
		switch {
		case err != nil:
		case (rec.Put == nil) == (rec.Del == nil):
			err = errors.New("want exactly one of put, del")
		case rec.Put != nil && rec.Put.ID == "", rec.Del != nil && rec.Del.ID == "":
			err = errors.New("record names no run")
		}
		if err != nil {
			if len(data) == 0 {
				break // torn inside the last line
			}
			return nil, fmt.Errorf("store: manifest log: line %d: %w", n, err)
		}
		if rec.Put != nil && rec.Put.Tenant == "" {
			rec.Put.Tenant = DefaultTenant
		}
		if rec.Del != nil && rec.Del.Tenant == "" {
			rec.Del.Tenant = DefaultTenant
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// Encode returns the canonical CHAMTRC2 payload and content address of
// a trace file. The same logical trace always encodes to the same bytes
// (site table in first-appearance order, deterministic varint layout),
// which is what makes the address stable across pushes. A file the
// archive would refuse to read (trace.File.MarshalBinary) is an error.
func Encode(f *trace.File) ([]byte, string, error) {
	out, err := f.MarshalBinary()
	if err != nil {
		return nil, "", fmt.Errorf("store: encode: %w", err)
	}
	return out, contentAddress(out), nil
}

func contentAddress(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

// describe builds the manifest record for a payload (sans timestamps
// and storage sizes, which ingest fills in). The record keeps sum.Sigs,
// sorted in place.
func describe(sum trace.Summary, payload []byte, id string) *Run {
	sigs := sum.Sigs
	slices.Sort(sigs)
	words := make([]byte, 0, 8*len(sigs))
	for _, s := range sigs {
		words = binary.LittleEndian.AppendUint64(words, s)
	}
	sigSet := sha256.Sum256(words)
	return &Run{
		ID:        id,
		Benchmark: sum.Benchmark,
		Tracer:    sum.Tracer,
		P:         sum.P,
		Clustered: sum.Clustered,
		Sigs:      sigs,
		SigSet:    hex.EncodeToString(sigSet[:]),
		RawBytes:  int64(len(payload)),
		Events:    sum.DynamicEvents,
		Nodes:     sum.NodeCount,
	}
}

// Ingest archives a trace file. It returns the manifest record and
// whether a new segment was created (false when the content address was
// already present — the dedup path stores nothing).
func (v TenantView) Ingest(f *trace.File) (Run, bool, error) {
	canon, id, err := Encode(f)
	if err != nil {
		return Run{}, false, err
	}
	sum := trace.Summarize(f)
	return v.ingest(&parsed{canon: canon, id: id, sum: &sum})
}

// IngestBytes archives a serialized trace (any readable format: binary
// v1/v2 or JSON), read in place: see parse.
func (v TenantView) IngestBytes(b []byte) (Run, bool, error) {
	p, err := v.parse(b)
	if err != nil {
		return Run{}, false, err
	}
	return v.ingest(&p)
}

// parsed is a serialized trace made ready to ingest: its canonical
// payload, the payload's content address and its summary — nil when
// the tenant already held the address at parse time, so nothing was
// read.
type parsed struct {
	canon []byte
	id    string
	sum   *trace.Summary
}

// parse is the one way serialized traces enter the archive (PUT bodies
// on the edge and on every owner, anti-entropy pulls, IngestBytes). The
// bytes are hashed first: if the tenant holds a run under that hash, the
// bytes are that run's segment, which was read at its first ingest, and
// nothing is read now. Any other bytes go to read.
func (v TenantView) parse(b []byte) (parsed, error) {
	id := contentAddress(b)
	if v.holds(id) {
		return parsed{canon: b, id: id}, nil
	}
	return read(b, id)
}

// read makes b, whose content address is id, ingestible. Bytes that are
// their own canonical encoding, as every client and peer pushes them,
// are scanned once (trace.ScanCanonical) and are the payload, with no
// tree built. Anything else (JSON, v1, or binary the encoder would have
// written otherwise) is decoded once, in place (the file does not
// retain b), re-encoded canonically, so equivalent pushes in different
// formats share one content address, and summarized from the decoded
// file; the re-encoding is sized to b. Every decoded file came through
// the binary reader's bounds, JSON included, so its re-encoding reads
// back.
func read(b []byte, id string) (parsed, error) {
	if sum, ok := trace.ScanCanonical(b); ok {
		return parsed{canon: b, id: id, sum: &sum}, nil
	}
	f, err := trace.DecodeAny(b)
	if err != nil {
		return parsed{}, fmt.Errorf("store: ingest: %w", err)
	}
	canon := f.AppendBinary(make([]byte, 0, len(b)))
	if !bytes.Equal(canon, b) { // not pushed in canonical form
		id = contentAddress(canon)
	}
	sum := trace.Summarize(f)
	return parsed{canon: canon, id: id, sum: &sum}, nil
}

func (v TenantView) holds(id string) bool {
	v.a.mu.Lock()
	defer v.a.mu.Unlock()
	_, ok := v.a.runs[v.tenant][id]
	return ok
}

// ingest stores a parsed payload under its content address, or answers
// from the index when the tenant holds it. The check and the answer are
// one critical section, so a run parsed as held but deleted since is
// found missing here, and its bytes are read before it is stored again:
// nothing is described without a summary.
func (v TenantView) ingest(p *parsed) (Run, bool, error) {
	a, tenant := v.a, v.tenant
	start := time.Now() // hIngest measures this process, not policy time
	a.mu.Lock()
	defer a.mu.Unlock()

	if r, ok := a.runs[tenant][p.id]; ok {
		a.mIngest.Inc()
		a.mDedup.Inc()
		a.opts.Journal.Emit(obs.Event{Kind: KindIngest, Note: "dedup", Bytes: r.RawBytes})
		return *r, false, nil
	}
	if p.sum == nil {
		// Only a Delete racing this ingest gets here, so the read may hold
		// the lock. The bytes hashed to the deleted run's address, so they
		// are its segment and stay its payload, however they read.
		r, err := read(p.canon, p.id)
		if err != nil {
			return Run{}, false, err
		}
		p.sum = r.sum
	}
	payload, id := p.canon, p.id

	if quota := a.opts.QuotaBytes; quota > 0 && a.used[tenant]+int64(len(payload)) > quota {
		a.mQuotaRejects.Inc()
		return Run{}, false, fmt.Errorf("%w: tenant %q holds %d of %d bytes, run needs %d more",
			ErrQuotaExceeded, tenant, a.used[tenant], quota, len(payload))
	}

	run := describe(*p.sum, payload, id)
	run.Tenant = tenant
	run.Ingested = a.clk.Now().UTC()
	run.Gzip = a.opts.Gzip

	stored, err := a.writeSegment(tenant, id, payload)
	if err != nil {
		return Run{}, false, err
	}
	run.StoredBytes = stored

	a.putRunLocked(run)
	if err := a.appendLog(logRecord{Put: run}); err != nil {
		// Roll back the index entry; the segment becomes an orphan that
		// the next Compact reclaims.
		a.dropRunLocked(tenant, id)
		return Run{}, false, err
	}

	a.mIngest.Inc()
	a.mRawBytes.Add(uint64(run.RawBytes))
	a.mStoredBytes.Add(uint64(run.StoredBytes))
	a.hIngest.Observe(time.Since(start).Nanoseconds())
	a.opts.Journal.Emit(obs.Event{Kind: KindIngest, Note: "new", Bytes: run.RawBytes})
	return *run, true, nil
}

// writeSegment stages the payload in tmp/ and renames it into place, so
// a segment path either doesn't exist or holds complete bytes. An orphan
// already at the path (a crashed or deleted ingest's, perhaps truncated
// or written under the other Gzip setting) is replaced, never trusted.
// Callers hold a.mu.
func (a *Archive) writeSegment(tenant, id string, payload []byte) (int64, error) {
	size, err := atomicfile.Write(a.tmpDir(), a.segmentPath(tenant, id), func(w io.Writer) error {
		if !a.opts.Gzip {
			_, err := w.Write(payload)
			return err
		}
		zw := gzip.NewWriter(w)
		if _, err := zw.Write(payload); err != nil {
			return err
		}
		return zw.Close()
	})
	if err != nil {
		return 0, fmt.Errorf("store: segment: %w", err)
	}
	return size, nil
}

// Resolve looks a run up by full content address or by unique prefix
// (at least 6 hex digits).
func (v TenantView) Resolve(id string) (Run, error) {
	v.a.mu.Lock()
	defer v.a.mu.Unlock()
	runs := v.a.runs[v.tenant]
	if r, ok := runs[id]; ok {
		return *r, nil
	}
	if len(id) >= 6 && len(id) < 64 {
		var found *Run
		for k, r := range runs {
			if strings.HasPrefix(k, id) {
				if found != nil {
					return Run{}, fmt.Errorf("store: run %q %w", id, ErrAmbiguous)
				}
				found = r
			}
		}
		if found != nil {
			return *found, nil
		}
	}
	return Run{}, fmt.Errorf("store: run %q %w", id, ErrNotFound)
}

// Payload returns the canonical (uncompressed) segment bytes of a run,
// verifying them against the content address.
func (v TenantView) Payload(id string) ([]byte, Run, error) {
	start := time.Now() // hGet measures this process, not policy time
	run, err := v.Resolve(id)
	if err != nil {
		return nil, Run{}, err
	}
	raw, err := v.a.readSegment(run)
	if err != nil {
		return nil, Run{}, err
	}
	if contentAddress(raw) != run.ID {
		return nil, Run{}, fmt.Errorf("store: segment %s is corrupt (content hash mismatch)", run.ID[:12])
	}
	v.a.mGets.Inc()
	v.a.hGet.Observe(time.Since(start).Nanoseconds())
	return raw, run, nil
}

// StoredPayload returns the on-disk segment bytes of a run as stored
// (gzip frame intact when the archive compresses), for zero-copy HTTP
// serving with Content-Encoding: gzip.
func (v TenantView) StoredPayload(id string) ([]byte, Run, error) {
	run, err := v.Resolve(id)
	if err != nil {
		return nil, Run{}, err
	}
	b, err := os.ReadFile(v.a.segmentPath(v.tenant, run.ID))
	if err != nil {
		return nil, Run{}, fmt.Errorf("store: segment: %w", err)
	}
	v.a.mGets.Inc()
	return b, run, nil
}

func (a *Archive) readSegment(run Run) ([]byte, error) {
	if !run.Gzip {
		b, err := os.ReadFile(a.segmentPath(run.Tenant, run.ID))
		if err != nil {
			return nil, fmt.Errorf("store: segment: %w", err)
		}
		return b, nil
	}
	f, err := os.Open(a.segmentPath(run.Tenant, run.ID))
	if err != nil {
		return nil, fmt.Errorf("store: segment: %w", err)
	}
	defer f.Close()
	var r io.Reader = f
	if run.Gzip {
		zr, err := gzip.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("store: segment %s: %w", run.ID[:12], err)
		}
		defer zr.Close()
		r = zr
	}
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("store: segment %s: %w", run.ID[:12], err)
	}
	return b, nil
}

// Get decodes an archived run back into a trace file.
func (v TenantView) Get(id string) (*trace.File, Run, error) {
	raw, run, err := v.Payload(id)
	if err != nil {
		return nil, Run{}, err
	}
	f, err := trace.DecodeAny(raw)
	if err != nil {
		return nil, Run{}, fmt.Errorf("store: segment %s: %w", run.ID[:12], err)
	}
	return f, run, nil
}

// List returns the tenant's runs matching q, newest first, plus the
// total match count before pagination. The page is the caller's copy.
func (v TenantView) List(q Query) ([]Run, int) {
	page, total := q.page(v.match(q))
	if page == nil {
		return nil, total
	}
	out := make([]Run, len(page))
	for i, r := range page {
		out[i] = *r
	}
	return out, total
}

// match returns the tenant's records matching q's filters, in no order.
// The records are lent, not copied: the index replaces a record and
// never writes one (Archive.runs), so a reader may hold them after the
// lock is gone, and must not write them either.
func (v TenantView) match(q Query) []*Run {
	a := v.a
	a.mu.Lock()
	matched := make([]*Run, 0, len(a.runs[v.tenant]))
	for _, r := range a.runs[v.tenant] {
		if q.Benchmark != "" && r.Benchmark != q.Benchmark {
			continue
		}
		if q.P != 0 && r.P != q.P {
			continue
		}
		if q.SigSet != "" && r.SigSet != q.SigSet {
			continue
		}
		if _, has := slices.BinarySearch(r.Sigs, q.Sig); q.Sig != 0 && !has {
			continue
		}
		matched = append(matched, r)
	}
	a.mu.Unlock()
	a.mLists.Inc()
	return matched
}

// page orders runs newest first (content address breaking ties) and
// cuts the query's Offset/Limit window out of them, returning the
// window and the total before the cut. It sorts runs in place.
func (q Query) page(runs []*Run) ([]*Run, int) {
	slices.SortFunc(runs, func(x, y *Run) int {
		if c := y.Ingested.Compare(x.Ingested); c != 0 {
			return c
		}
		return strings.Compare(x.ID, y.ID)
	})
	total := len(runs)
	if q.Offset > 0 {
		if q.Offset >= len(runs) {
			return nil, total
		}
		runs = runs[q.Offset:]
	}
	if q.Limit > 0 && len(runs) > q.Limit {
		runs = runs[:q.Limit]
	}
	return runs, total
}

// Delete drops a run from the index. The segment stays on disk as an
// orphan (the store is append-only) until Compact reclaims it.
func (v TenantView) Delete(id string) error {
	a, tenant := v.a, v.tenant
	a.mu.Lock()
	defer a.mu.Unlock()
	r := a.dropRunLocked(tenant, id)
	if r == nil {
		return fmt.Errorf("store: run %q %w", id, ErrNotFound)
	}
	if err := a.appendLog(logRecord{Del: &logDel{Tenant: tenant, ID: id}}); err != nil {
		a.putRunLocked(r)
		return err
	}
	a.mDeletes.Inc()
	return nil
}

// Compact folds the manifest log into a checkpoint, removes segment
// files no indexed run references (crashed ingests, deleted runs) across
// every tenant and clears the tmp staging area. It returns the number of
// files removed.
func (a *Archive) Compact() (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	removed := 0
	errs := []error{a.checkpointLocked()}

	// Every tenant payload tree: the legacy default-tenant layout plus
	// tenants/<name>/ for everyone else — including directories of
	// tenants the manifest no longer mentions at all.
	roots := map[string]string{DefaultTenant: a.dir}
	if entries, err := os.ReadDir(filepath.Join(a.dir, "tenants")); err == nil {
		for _, e := range entries {
			if e.IsDir() {
				roots[e.Name()] = filepath.Join(a.dir, "tenants", e.Name())
			}
		}
	}
	for tenant, root := range roots {
		for sub, ext := range map[string]string{"segments": ".seg", "edges": ".jsonl"} {
			n, err := a.compactTreeLocked(tenant, filepath.Join(root, sub), ext)
			removed += n
			errs = append(errs, err)
			if tenant != DefaultTenant {
				os.Remove(filepath.Join(root, sub)) // drop a fully emptied tenant directory; best-effort
			}
		}
		if tenant != DefaultTenant {
			os.Remove(root)
		}
	}

	// Ingest holds the same lock while staging, so anything left in
	// tmp/ is debris from a crashed process.
	if tmps, err := os.ReadDir(a.tmpDir()); err == nil {
		for _, t := range tmps {
			if os.Remove(filepath.Join(a.tmpDir(), t.Name())) == nil {
				removed++
			}
		}
	}

	a.mCompacts.Inc()
	a.mOrphans.Add(uint64(removed))
	err := errors.Join(errs...)
	if removed > 0 || err != nil {
		a.opts.Journal.Emit(obs.Event{Kind: KindCompact, Count: uint64(removed)})
	}
	if err != nil {
		return removed, fmt.Errorf("store: compact: %w", err)
	}
	return removed, nil
}

// compactTreeLocked removes files under a fan-out tree (segments or
// edges) whose trimmed name is not a live run of the tenant. Callers
// hold a.mu.
func (a *Archive) compactTreeLocked(tenant, root, ext string) (removed int, err error) {
	entries, err := os.ReadDir(root)
	if os.IsNotExist(err) {
		return 0, nil
	}
	var errs []error
	for _, sub := range entries {
		if !sub.IsDir() {
			continue
		}
		subPath := filepath.Join(root, sub.Name())
		files, err := os.ReadDir(subPath)
		errs = append(errs, err)
		for _, f := range files {
			if _, live := a.runs[tenant][strings.TrimSuffix(f.Name(), ext)]; live {
				continue
			}
			if err := os.Remove(filepath.Join(subPath, f.Name())); err != nil {
				errs = append(errs, err)
				continue
			}
			removed++
		}
		os.Remove(subPath) // drop now-empty fan-out directories; best-effort
	}
	return removed, errors.Join(append(errs, err)...)
}

// Len returns the number of archived runs across all tenants.
func (a *Archive) Len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, t := range a.runs {
		n += len(t)
	}
	return n
}
