// Package cq is the continuous-query engine: standing "compare every
// ingest of benchmark B at P against golden run G" registrations that
// turn the archive's server-side diff into a CI regression gate.
//
// A Spec names a tenant-scoped query; on every matching ingest the
// owning peer diffs the new run against the golden (the same
// analysis.CompareWith engine behind chamstat -diff and GET
// /runs/{a}/diff/{b}) and appends an "ok" or "regression" Event to the
// tenant's feed. Feeds carry a version counter with long-poll Watch —
// the store.Live idiom — so `chamrun -push` plus one registered query
// and one watcher is a complete regression gate: push, watch, exit
// non-zero on "regression".
//
// Tolerance has two axes: Tolerate excludes ranks from both sides of
// the diff ("auto" = the union of retired/crashed ranks, or an explicit
// rank-set like "1,3-5"), and MaxEventDelta forgives per-rank and
// per-site dynamic event-count drift up to an absolute bound. Call
// sites present on one side only are never forgiven — a new or vanished
// code path is always a regression.
package cq

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"chameleon/internal/analysis"
	"chameleon/internal/atomicfile"
	"chameleon/internal/clock"
	"chameleon/internal/fault"
	"chameleon/internal/obs"
	"chameleon/internal/trace"
)

// ErrNotFound marks a Delete of a query that is not registered (the
// HTTP layer's 404).
var ErrNotFound = errors.New("not found")

// Verdicts.
const (
	VerdictOK         = "ok"
	VerdictRegression = "regression"
)

// Spec is one registered continuous query.
type Spec struct {
	// Tenant scopes the query; the HTTP layer fills it from the
	// X-Cham-Tenant header.
	Tenant string `json:"tenant"`
	// Name identifies the query within its tenant; PUT /cq with an
	// existing name replaces the registration.
	Name string `json:"name"`
	// Benchmark matches ingests by trace benchmark name ("" matches
	// every benchmark).
	Benchmark string `json:"benchmark,omitempty"`
	// P matches ingests by rank count (0 matches any).
	P int `json:"p,omitempty"`
	// Golden is the reference run: a content address or unique prefix
	// that must resolve in the mesh.
	Golden string `json:"golden"`
	// Tolerate excludes ranks from the diff: "", "auto" (retired ranks
	// of either side), or an explicit rank-set ("1,3-5").
	Tolerate string `json:"tolerate,omitempty"`
	// MaxEventDelta forgives per-rank and per-site dynamic event count
	// drift up to this absolute bound (0 = exact).
	MaxEventDelta int64 `json:"max_event_delta,omitempty"`
	// UpdatedUnixMs stamps the registration; anti-entropy merges keep
	// the newest.
	UpdatedUnixMs int64 `json:"updated_unix_ms,omitempty"`
	// Deleted marks a tombstone: the query was unregistered at
	// UpdatedUnixMs. Tombstones never match ingests or appear in
	// listings, but they do ride the anti-entropy sync so a peer that
	// missed the delete broadcast retires its copy instead of
	// resurrecting the spec mesh-wide.
	Deleted bool `json:"deleted,omitempty"`
}

// Validate checks the registration fields that do not need the archive.
func (s Spec) Validate() error {
	if obs.ValidateSessionID(s.Name) != nil { // the alphabet tenants and live sessions share
		return fmt.Errorf("cq: name must be 1-64 chars of [A-Za-z0-9._-]")
	}
	if s.Deleted {
		// A tombstone carries only identity and stamp.
		return nil
	}
	if s.Golden == "" {
		return fmt.Errorf("cq: golden run reference is required")
	}
	if s.MaxEventDelta < 0 {
		return fmt.Errorf("cq: max_event_delta must be >= 0")
	}
	if s.Tolerate != "" && s.Tolerate != "auto" {
		if _, err := fault.ParseRankSet(s.Tolerate); err != nil {
			return fmt.Errorf("cq: tolerate: %w", err)
		}
	}
	return nil
}

// Event is one gate evaluation appended to a tenant feed.
type Event struct {
	// ID is unique across the mesh (origin peer + sequence); peers
	// receiving a broadcast event dedup on it.
	ID       string `json:"id"`
	Tenant   string `json:"tenant"`
	CQ       string `json:"cq"`
	Run      string `json:"run"`
	Golden   string `json:"golden"`
	Verdict  string `json:"verdict"`
	Reason   string `json:"reason,omitempty"`
	AtUnixMs int64  `json:"at_unix_ms"`
}

// FeedView is the watcher-facing snapshot of one tenant's feed.
type FeedView struct {
	Tenant  string  `json:"tenant"`
	Version uint64  `json:"version"`
	Events  []Event `json:"events"`
}

// Lookup resolves a run reference (a golden, or the run being
// evaluated) into its decoded trace and full content address — locally
// or, under federation, from whichever peer owns it.
type Lookup func(tenant, id string) (*trace.File, string, error)

// Options configures an Engine.
type Options struct {
	// Lookup resolves runs and their goldens (required for Evaluate).
	Lookup Lookup
	// Persist, when non-empty, saves registrations to this JSON file
	// (atomic write) and loads them at New.
	Persist string
	// Origin prefixes event IDs (the peer's own URL under federation).
	Origin string
	// OnEvent, when non-nil, observes every locally generated event
	// (the federation layer broadcasts them to peers).
	OnEvent func(Event)
	// Reg receives cq_* metrics.
	Reg *obs.Registry
}

// maxFeedEvents bounds each tenant feed.
const maxFeedEvents = 256

type feed struct {
	version uint64
	events  []Event
	seen    map[string]bool
	changed chan struct{}
}

// Engine holds the registrations and per-tenant event feeds of one
// peer. All methods are safe for concurrent use.
type Engine struct {
	mu    sync.Mutex
	opts  Options
	clk   clock.Clock                 // registration and event stamps, long-poll deadlines
	specs map[string]map[string]*Spec // tenant -> name -> spec
	feeds map[string]*feed
	seq   uint64
	nonce int64

	mEvals, mRegressions, mEvents *obs.Counter
	gSpecs                        *obs.Gauge
}

// New builds an engine, loading persisted registrations if Persist
// names an existing file.
func New(opts Options) (*Engine, error) {
	if opts.Origin == "" {
		opts.Origin = "local"
	}
	clk := clock.Real{}
	e := &Engine{
		opts:         opts,
		clk:          clk,
		specs:        map[string]map[string]*Spec{},
		feeds:        map[string]*feed{},
		nonce:        clk.Now().UnixNano(),
		mEvals:       opts.Reg.Counter("cq_evaluations"),
		mRegressions: opts.Reg.Counter("cq_regressions"),
		mEvents:      opts.Reg.Counter("cq_events"),
		gSpecs:       opts.Reg.Gauge("cq_specs"),
	}
	if opts.Persist != "" {
		data, err := os.ReadFile(opts.Persist)
		if err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("cq: load %s: %w", opts.Persist, err)
		}
		if err == nil {
			var specs []Spec
			if err := json.Unmarshal(data, &specs); err != nil {
				return nil, fmt.Errorf("cq: load %s: %w", opts.Persist, err)
			}
			for i := range specs {
				s := specs[i]
				e.putLocked(&s)
			}
		}
	}
	return e, nil
}

func (e *Engine) putLocked(s *Spec) {
	t := e.specs[s.Tenant]
	if t == nil {
		t = map[string]*Spec{}
		e.specs[s.Tenant] = t
	}
	t[s.Name] = s
}

func (e *Engine) countLocked() int {
	n := 0
	for _, t := range e.specs {
		for _, s := range t {
			if !s.Deleted {
				n++
			}
		}
	}
	return n
}

// persistLocked publishes the changed registration set: the cq_specs
// gauge, then (atomically) the Persist file. Callers hold e.mu.
func (e *Engine) persistLocked() error {
	e.gSpecs.Set(int64(e.countLocked()))
	if e.opts.Persist == "" {
		return nil
	}
	specs := e.allLocked()
	data, err := json.MarshalIndent(specs, "", " ")
	if err != nil {
		return err
	}
	if _, err := atomicfile.Write(filepath.Dir(e.opts.Persist), e.opts.Persist, atomicfile.Bytes(data)); err != nil {
		return fmt.Errorf("cq: persist: %w", err)
	}
	return nil
}

// Register adds or replaces a registration (idempotent by tenant+name)
// and returns the stored spec with its update stamp.
func (e *Engine) Register(s Spec) (Spec, error) {
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if s.UpdatedUnixMs == 0 {
		s.UpdatedUnixMs = e.clk.Now().UnixMilli()
		// A re-registration must out-rank whatever it replaces — live
		// spec or tombstone — under the newest-wins merge, even across
		// peer clock skew.
		if cur := e.specs[s.Tenant][s.Name]; cur != nil && s.UpdatedUnixMs <= cur.UpdatedUnixMs {
			s.UpdatedUnixMs = cur.UpdatedUnixMs + 1
		}
	}
	e.putLocked(&s)
	if err := e.persistLocked(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Delete retires a registration. It leaves a tombstone rather than
// removing the entry: the delete broadcast is best-effort, so a peer
// that was down must learn of the deletion from the anti-entropy sync —
// a bare absence would merge as "peer has something I lack" and
// resurrect the spec mesh-wide. The tombstone's stamp is forced past
// the live spec's so newest-wins always retires it, clock skew or not.
func (e *Engine) Delete(tenant, name string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	cur := e.specs[tenant][name]
	if cur == nil || cur.Deleted {
		return fmt.Errorf("cq: query %q %w", name, ErrNotFound)
	}
	stamp := e.clk.Now().UnixMilli()
	if stamp <= cur.UpdatedUnixMs {
		stamp = cur.UpdatedUnixMs + 1
	}
	e.putLocked(&Spec{Tenant: tenant, Name: name, Deleted: true, UpdatedUnixMs: stamp})
	return e.persistLocked()
}

// List returns one tenant's live registrations (tombstones excluded),
// sorted by name.
func (e *Engine) List(tenant string) []Spec {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Spec, 0, len(e.specs[tenant]))
	for _, s := range e.specs[tenant] {
		if s.Deleted {
			continue
		}
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// All returns every registration across tenants, tombstones included
// (the anti-entropy sync payload), sorted by tenant then name.
func (e *Engine) All() []Spec {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.allLocked()
}

func (e *Engine) allLocked() []Spec {
	var out []Spec
	for _, t := range e.specs {
		for _, s := range t {
			out = append(out, *s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Tenant != out[j].Tenant {
			return out[i].Tenant < out[j].Tenant
		}
		return out[i].Name < out[j].Name
	})
	if out == nil {
		out = []Spec{}
	}
	return out
}

// Merge folds peer registrations in, newest update stamp winning —
// including tombstones, so deletions propagate through anti-entropy
// instead of being undone by it. Invalid specs are skipped. It returns
// how many local registrations changed.
func (e *Engine) Merge(specs []Spec) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	merged := 0
	for i := range specs {
		s := specs[i]
		if s.Validate() != nil {
			continue
		}
		cur := e.specs[s.Tenant][s.Name]
		if cur != nil && cur.UpdatedUnixMs >= s.UpdatedUnixMs {
			continue
		}
		e.putLocked(&s)
		merged++
	}
	if merged > 0 {
		e.persistLocked() //nolint:errcheck — best-effort sync persistence
	}
	return merged
}

// Evaluate runs every registration matching an ingested run, given the
// run's benchmark and rank count, and returns the events appended (nil
// when nothing matched). The run's trace is loaded through Lookup only
// once a registration matches. The federation layer calls it on the
// run's primary owner only.
func (e *Engine) Evaluate(tenant, runID, benchmark string, p int) []Event {
	e.mu.Lock()
	var matched []Spec
	for _, s := range e.specs[tenant] {
		if s.Deleted {
			continue
		}
		if s.Benchmark != "" && s.Benchmark != benchmark {
			continue
		}
		if s.P != 0 && s.P != p {
			continue
		}
		matched = append(matched, *s)
	}
	e.mu.Unlock()
	if len(matched) == 0 {
		return nil
	}
	sort.Slice(matched, func(i, j int) bool { return matched[i].Name < matched[j].Name })
	f, _, err := e.opts.Lookup(tenant, runID)

	var out []Event
	for _, s := range matched {
		e.mEvals.Inc()
		ev := e.evaluateOne(tenant, runID, f, err, s)
		if ev.Verdict == VerdictRegression {
			e.mRegressions.Inc()
		}
		out = append(out, e.appendLocal(ev))
	}
	return out
}

// evaluateOne runs one registration on the run's trace f, or on the
// error that loading it returned.
func (e *Engine) evaluateOne(tenant, runID string, f *trace.File, loadErr error, s Spec) Event {
	ev := Event{
		Tenant: tenant, CQ: s.Name, Run: runID, Golden: s.Golden,
		AtUnixMs: e.clk.Now().UnixMilli(),
	}
	if loadErr != nil {
		ev.Verdict = VerdictRegression
		ev.Reason = fmt.Sprintf("run unavailable: %v", loadErr)
		return ev
	}
	golden, goldenID, err := e.opts.Lookup(tenant, s.Golden)
	if err != nil {
		ev.Verdict = VerdictRegression
		ev.Reason = fmt.Sprintf("golden run unavailable: %v", err)
		return ev
	}
	ev.Golden = goldenID
	if goldenID == runID {
		ev.Verdict = VerdictOK
		ev.Reason = "identical content address"
		return ev
	}
	tol, err := TolerateRanks(s.Tolerate, f, golden)
	if err != nil {
		ev.Verdict = VerdictRegression
		ev.Reason = err.Error()
		return ev
	}
	d := analysis.CompareWith(f, golden, analysis.CompareOpts{TolerateRanks: tol})
	if within(d, s.MaxEventDelta) {
		ev.Verdict = VerdictOK
		if !d.Equivalent() {
			ev.Reason = fmt.Sprintf("within tolerance (max event delta %d): %s", s.MaxEventDelta, d.Reason())
		}
		return ev
	}
	ev.Verdict = VerdictRegression
	ev.Reason = d.Reason()
	return ev
}

// TolerateRanks resolves a tolerate spec — "", "auto" (the union of
// both traces' retired ranks), or an explicit rank-set — against the
// two traces of a diff. GET /runs/{a}/diff/{b}?tolerate= shares it.
func TolerateRanks(spec string, a, b *trace.File) ([]int, error) {
	switch spec {
	case "":
		return nil, nil
	case "auto":
		out := slices.Concat(a.Retired, b.Retired)
		slices.Sort(out)
		return slices.Compact(out), nil
	default:
		rs, err := fault.ParseRankSet(spec)
		if err != nil {
			return nil, fmt.Errorf("tolerate: %v", err)
		}
		return rs.Ranks(max(a.P, b.P)), nil
	}
}

// within reports whether a diff passes under the event-delta bound:
// no call sites unique to either side, and every per-rank and per-site
// dynamic event delta within max.
func within(d *analysis.Diff, max int64) bool {
	if len(d.MissingInA) > 0 || len(d.MissingInB) > 0 {
		return false
	}
	for _, delta := range d.EventDeltas {
		if delta > max || -delta > max {
			return false
		}
	}
	for _, delta := range d.SiteCountDeltas {
		if delta > max || -delta > max {
			return false
		}
	}
	return true
}

// appendLocal stamps an ID onto a locally generated event, appends it,
// notifies OnEvent for federation broadcast, and returns the stamped
// event.
func (e *Engine) appendLocal(ev Event) Event {
	e.mu.Lock()
	e.seq++
	ev.ID = fmt.Sprintf("%s#%x-%d", e.opts.Origin, e.nonce, e.seq)
	e.appendLocked(ev)
	e.mu.Unlock()
	if e.opts.OnEvent != nil {
		e.opts.OnEvent(ev)
	}
	return ev
}

// Append folds a broadcast event from a peer into the local feed,
// dedup'd by event ID. It reports whether the event was new.
func (e *Engine) Append(ev Event) bool {
	if ev.ID == "" || ev.Tenant == "" {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	fd := e.feedLocked(ev.Tenant)
	if fd.seen[ev.ID] {
		return false
	}
	e.appendLocked(ev)
	return true
}

func (e *Engine) feedLocked(tenant string) *feed {
	fd := e.feeds[tenant]
	if fd == nil {
		fd = &feed{seen: map[string]bool{}, changed: make(chan struct{})}
		e.feeds[tenant] = fd
	}
	return fd
}

// appendLocked adds the event to its tenant feed and bumps the feed
// version. Callers hold e.mu.
func (e *Engine) appendLocked(ev Event) {
	fd := e.feedLocked(ev.Tenant)
	fd.events = append(fd.events, ev)
	fd.seen[ev.ID] = true
	if over := len(fd.events) - maxFeedEvents; over > 0 {
		for _, old := range fd.events[:over] {
			delete(fd.seen, old.ID)
		}
		fd.events = append(fd.events[:0], fd.events[over:]...)
	}
	fd.version++
	close(fd.changed)
	fd.changed = make(chan struct{})
	e.mEvents.Inc()
}

// Feed snapshots one tenant's event feed.
func (e *Engine) Feed(tenant string) FeedView {
	e.mu.Lock()
	defer e.mu.Unlock()
	fd := e.feedLocked(tenant)
	return FeedView{
		Tenant:  tenant,
		Version: fd.version,
		Events:  append([]Event{}, fd.events...),
	}
}

// Watch blocks until the tenant feed's version exceeds after or the
// timeout elapses, returning the current view either way. Watching a
// tenant with no events yet simply blocks until the first one.
func (e *Engine) Watch(tenant string, after uint64, timeout time.Duration) FeedView {
	deadline, stop := e.clk.After(timeout)
	defer stop()
	for {
		e.mu.Lock()
		fd := e.feedLocked(tenant)
		if fd.version > after {
			e.mu.Unlock()
			return e.Feed(tenant)
		}
		ch := fd.changed
		e.mu.Unlock()
		select {
		case <-ch:
		case <-deadline:
			return e.Feed(tenant)
		}
	}
}
