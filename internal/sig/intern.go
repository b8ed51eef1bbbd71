package sig

// Call-site interning: the process-wide table that maps a backtrace (a
// PC slice) to a small dense SiteID exactly once, caching the mixed
// Stack signature alongside. The hot tracing path then pays one hash of
// the raw PCs and a shard-local lookup per event instead of re-mixing
// every frame through splitmix64; loop iterations hitting the same call
// site skip the per-frame fold entirely and everything downstream
// (windows, compressor, codec) can key on the integer ID. A warm site
// skips the stack walk and this table too: see CaptureSite's cache.
//
// The in-process MPI simulator runs every rank as a goroutine of one
// process, so the table is shared by all ranks: lookups take only a
// shard mutex, and the ID → metadata mapping is an append-only slice
// read without any lock.

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// SiteID is a dense process-wide identifier of an interned call site.
// 0 (NoSite) marks events that never went through the intern table
// (hand-built test events, decoded traces).
type SiteID uint32

// NoSite is the zero SiteID.
const NoSite SiteID = 0

// SiteMeta is the cached metadata of one interned call site.
type SiteMeta struct {
	// Sig is the mixed stack signature (FromPCs of the backtrace, or the
	// verbatim signature for sites interned by signature only).
	Sig Stack
	// PCs is the captured backtrace; nil for signature-only sites.
	PCs []uintptr
	// Func/File/Line describe the innermost frame, resolved at intern
	// time for signature-only sites carrying serialized metadata and on
	// demand (Resolve) for captured ones.
	Func string
	File string
	Line int
}

// SiteInfo is the serializable form of a call-site table entry.
type SiteInfo struct {
	ID   uint32 `json:"id"`
	Sig  uint64 `json:"sig"`
	Func string `json:"func,omitempty"`
	File string `json:"file,omitempty"`
	Line int    `json:"line,omitempty"`
}

const internShards = 64

type internShard struct {
	mu sync.Mutex
	// byHash buckets candidate IDs by raw backtrace hash (captured
	// sites) or by signature value (signature-only sites); candidates
	// are verified against the stored metadata, so cross-kind key
	// collisions are harmless.
	byHash map[uint64][]SiteID
}

// Table is a sharded, concurrency-safe call-site intern table.
type Table struct {
	shards [internShards]internShard
	// growMu serializes meta growth; a published element never changes,
	// so Signature/Meta reads are lock-free.
	growMu sync.Mutex
	meta   atomic.Pointer[[]SiteMeta]
}

// Sites is the process-wide intern table.
var Sites = NewTable()

// NewTable returns an empty intern table.
func NewTable() *Table {
	t := &Table{}
	empty := make([]SiteMeta, 0)
	t.meta.Store(&empty)
	for i := range t.shards {
		t.shards[i].byHash = make(map[uint64][]SiteID)
	}
	return t
}

// hashPCs folds the raw backtrace into the shard/bucket key. Unlike the
// signature fold it is order-sensitive (FNV-style), so stacks that would
// XOR-cancel still land in distinct buckets; collisions only cost a
// verification pass.
func hashPCs(pcs []uintptr) uint64 {
	h := uint64(1469598103934665603)
	for _, pc := range pcs {
		h ^= uint64(pc)
		h *= 1099511628211
	}
	return h
}

func pcsEqual(a, b []uintptr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// InternPCs interns a backtrace, returning its SiteID. The first call
// for a given PC vector computes and caches FromPCs; later calls from
// any goroutine hit the shard map without touching the frames.
func (t *Table) InternPCs(pcs []uintptr) SiteID {
	h := hashPCs(pcs)
	s := &t.shards[h%internShards]
	s.mu.Lock()
	meta := *t.meta.Load()
	for _, id := range s.byHash[h] {
		m := &meta[id-1]
		if m.PCs != nil && pcsEqual(m.PCs, pcs) {
			s.mu.Unlock()
			return id
		}
	}
	// Miss: compute the signature and publish the new site. The PC slice
	// is cloned — the caller's array is usually stack-allocated.
	own := make([]uintptr, len(pcs))
	copy(own, pcs)
	id := t.grow(SiteMeta{Sig: FromPCs(own), PCs: own})
	s.byHash[h] = append(s.byHash[h], id)
	s.mu.Unlock()
	return id
}

// InternSig interns a site known only by its stack signature (synthetic
// test events, decoded traces). The same signature always returns the
// same SiteID.
func (t *Table) InternSig(sig Stack) SiteID {
	return t.InternSigMeta(SiteInfo{Sig: uint64(sig)})
}

// InternSigMeta interns a signature-only site carrying serialized
// metadata (a site table of fleet merge traffic). Metadata of an already
// interned signature is kept from the first intern.
func (t *Table) InternSigMeta(info SiteInfo) SiteID {
	h := uint64(info.Sig)
	s := &t.shards[h%internShards]
	s.mu.Lock()
	meta := *t.meta.Load()
	for _, id := range s.byHash[h] {
		m := &meta[id-1]
		if m.PCs == nil && m.Sig == Stack(info.Sig) {
			s.mu.Unlock()
			return id
		}
	}
	id := t.grow(SiteMeta{
		Sig: Stack(info.Sig), Func: info.Func, File: info.File, Line: info.Line,
	})
	s.byHash[h] = append(s.byHash[h], id)
	s.mu.Unlock()
	return id
}

// grow appends one site under the growth lock and publishes the new
// snapshot; callers hold a shard lock. Snapshots share one backing array:
// a reader never indexes past the length it loaded, and the Store
// publishes the new element after it is written.
func (t *Table) grow(m SiteMeta) SiteID {
	t.growMu.Lock()
	next := append(*t.meta.Load(), m)
	t.meta.Store(&next)
	t.growMu.Unlock()
	return SiteID(len(next))
}

// Signature returns the cached stack signature of an interned site
// (lock-free; 0 for NoSite).
func (t *Table) Signature(id SiteID) Stack {
	if id == NoSite {
		return 0
	}
	return (*t.meta.Load())[id-1].Sig
}

// Meta returns a copy of the site's metadata (lock-free).
func (t *Table) Meta(id SiteID) (SiteMeta, bool) {
	if id == NoSite {
		return SiteMeta{}, false
	}
	meta := *t.meta.Load()
	if int(id) > len(meta) {
		return SiteMeta{}, false
	}
	return meta[id-1], true
}

// Len returns the number of interned sites.
func (t *Table) Len() int { return len(*t.meta.Load()) }

// machineryPrefixes lists function-name prefixes Resolve treats as
// tracing machinery: the reported frame is the innermost frame outside
// these packages, so site tables show application call sites rather
// than the interposer plumbing every backtrace shares.
var machineryPrefixes = []string{
	"chameleon/internal/mpi.",
	"chameleon/internal/tracer.",
	"chameleon/internal/core.",
	"chameleon/internal/scalatrace.",
	"chameleon/internal/acurdion.",
}

func isMachinery(fn string) bool {
	for _, p := range machineryPrefixes {
		if len(fn) >= len(p) && fn[:len(p)] == p {
			return true
		}
	}
	return false
}

// Resolve returns the serializable description of a site, resolving
// captured backtraces on demand (a cold path: only serialization and
// chamdump call it). The reported frame is the innermost frame outside
// the tracing machinery, falling back to the innermost frame when the
// whole backtrace is machinery.
func (t *Table) Resolve(id SiteID) (SiteInfo, bool) {
	m, ok := t.Meta(id)
	if !ok {
		return SiteInfo{}, false
	}
	info := SiteInfo{ID: uint32(id), Sig: uint64(m.Sig), Func: m.Func, File: m.File, Line: m.Line}
	if info.Func == "" && len(m.PCs) > 0 {
		frames := runtime.CallersFrames(m.PCs)
		var innermost runtime.Frame
		for {
			fr, more := frames.Next()
			if innermost.PC == 0 && fr.PC != 0 {
				innermost = fr
			}
			if fr.Function != "" && !isMachinery(fr.Function) {
				innermost = fr
				break
			}
			if !more {
				break
			}
		}
		if innermost.PC != 0 {
			info.Func, info.File, info.Line = innermost.Function, innermost.File, innermost.Line
		}
	}
	return info, true
}

// cachedSite is one published (physical chain, skip) → SiteID mapping;
// entries are immutable once linked into a bucket.
type cachedSite struct {
	chain []uintptr
	skip  int
	id    SiteID
	next  *cachedSite
}

var (
	// siteCache is process-wide, not per rank: the ranks of a job are
	// goroutines running the same code, so one miss per site serves all
	// of them and every later job. Readers never lock; siteCacheMu only
	// serializes publication.
	siteCache   [1024]atomic.Pointer[cachedSite]
	siteCacheMu sync.Mutex
	// siteWalks counts full runtime.Callers walks (cache misses and
	// bypasses); tests assert a warm site adds none.
	siteWalks atomic.Uint64
)

func (e *cachedSite) find(chain []uintptr, skip int) *cachedSite {
	for ; e != nil; e = e.next {
		if e.skip == skip && pcsEqual(e.chain, chain) {
			return e
		}
	}
	return nil
}

// CaptureSite interns the current goroutine stack (skipping skip frames
// above the caller) and returns the site ID. It is the Go stand-in for
// the backtrace() walk ScalaTrace performs inside its PMPI wrappers:
// ranks executing the same source path get the same site; ranks on
// different branches diverge. The steady state does not
// unwind: the return addresses reachable through the saved frame
// pointers key a cache of earlier answers. That is sound because the
// vector runtime.Callers returns (inlined frames expanded, skip dropped,
// capped at 32) is a function of those addresses and skip alone —
// provided the key is the whole chain, so a stack deeper than the buffer
// bypasses the cache rather than being truncated into one, and provided
// CaptureSite is a physical frame, so its caller's PC is in the chain.
//
//go:noinline
func CaptureSite(skip int) SiteID {
	var buf [64]uintptr
	n := fpChain(&buf[0], len(buf))
	if n < 0 {
		return walkSite(skip + 1)
	}
	chain := buf[:n]
	b := &siteCache[(hashPCs(chain)+uint64(skip))%uint64(len(siteCache))]
	if e := b.Load().find(chain, skip); e != nil {
		return e.id
	}
	id := walkSite(skip + 1)
	siteCacheMu.Lock()
	if head := b.Load(); head.find(chain, skip) == nil {
		b.Store(&cachedSite{chain: append([]uintptr(nil), chain...), skip: skip, id: id, next: head})
	}
	siteCacheMu.Unlock()
	return id
}

// walkSite is the full walk: runtime.Callers from skip frames above its
// caller, interned.
func walkSite(skip int) SiteID {
	siteWalks.Add(1)
	var pcs [32]uintptr
	n := runtime.Callers(skip+2, pcs[:])
	return Sites.InternPCs(pcs[:n])
}
