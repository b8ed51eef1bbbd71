package cq

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"chameleon/internal/clock"
	"chameleon/internal/mpi"
	"chameleon/internal/ranklist"
	"chameleon/internal/sig"
	"chameleon/internal/trace"
	"chameleon/internal/tracegen"
)

// epoch is where every test engine's clock starts.
var epoch = time.UnixMilli(1_700_000_000_000)

// stubLookup serves runs and goldens from a map keyed by reference.
func stubLookup(m map[string]*trace.File) Lookup {
	return func(tenant, id string) (*trace.File, string, error) {
		f, ok := m[id]
		if !ok {
			return nil, "", fmt.Errorf("no run matches %q", id)
		}
		return f, id, nil
	}
}

// evaluate ingests f under runID into the runs a stubLookup serves, as
// an archive would before evaluating it, and evaluates it.
func evaluate(e *Engine, runs map[string]*trace.File, tenant, runID string, f *trace.File) []Event {
	runs[runID] = f
	return e.Evaluate(tenant, runID, f.Benchmark, f.P)
}

// newEngine builds an engine on a clock.Fake that reads epoch until
// the test advances it.
func newEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	e.clk = clock.NewFake(epoch)
	return e
}

func TestSpecValidate(t *testing.T) {
	ok := Spec{Name: "gate", Golden: "abc123"}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	for _, s := range []Spec{
		{Name: "", Golden: "g"},
		{Name: strings.Repeat("x", 65), Golden: "g"},
		{Name: "has space", Golden: "g"},
		{Name: "gate", Golden: ""},
		{Name: "gate", Golden: "g", MaxEventDelta: -1},
		{Name: "gate", Golden: "g", Tolerate: "not-a-rank-set"},
	} {
		if err := s.Validate(); err == nil {
			t.Fatalf("invalid spec accepted: %+v", s)
		}
	}
	for _, tol := range []string{"", "auto", "1,3-5"} {
		s := Spec{Name: "gate", Golden: "g", Tolerate: tol}
		if err := s.Validate(); err != nil {
			t.Fatalf("tolerate %q rejected: %v", tol, err)
		}
	}
}

func TestRegisterListDeleteAll(t *testing.T) {
	e := newEngine(t, Options{})
	for _, name := range []string{"zz", "aa"} {
		if _, err := e.Register(Spec{Tenant: "acme", Name: name, Golden: "g"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Register(Spec{Tenant: "beta", Name: "mm", Golden: "g"}); err != nil {
		t.Fatal(err)
	}

	got := e.List("acme")
	if len(got) != 2 || got[0].Name != "aa" || got[1].Name != "zz" {
		t.Fatalf("List not sorted by name: %+v", got)
	}
	if got[0].UpdatedUnixMs != epoch.UnixMilli() {
		t.Fatalf("Register did not stamp UpdatedUnixMs: %+v", got[0])
	}

	all := e.All()
	if len(all) != 3 || all[0].Tenant != "acme" || all[2].Tenant != "beta" {
		t.Fatalf("All not sorted by tenant then name: %+v", all)
	}

	// Re-registering a name replaces, never duplicates.
	if _, err := e.Register(Spec{Tenant: "acme", Name: "aa", Golden: "g2"}); err != nil {
		t.Fatal(err)
	}
	got = e.List("acme")
	if len(got) != 2 || got[0].Golden != "g2" {
		t.Fatalf("re-register did not replace: %+v", got)
	}

	if err := e.Delete("acme", "aa"); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete("acme", "aa"); err == nil {
		t.Fatal("deleting a missing query succeeded")
	}
	if got := e.List("acme"); len(got) != 1 {
		t.Fatalf("delete left %d specs", len(got))
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cq.json")
	e := newEngine(t, Options{Persist: path})
	want, err := e.Register(Spec{Tenant: "acme", Name: "gate", Golden: "g", MaxEventDelta: 3})
	if err != nil {
		t.Fatal(err)
	}

	e2 := newEngine(t, Options{Persist: path})
	got := e2.List("acme")
	if len(got) != 1 || got[0] != want {
		t.Fatalf("persisted spec did not round-trip: %+v vs %+v", got, want)
	}

	// A corrupt file fails loudly rather than silently dropping gates.
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{Persist: path}); err == nil {
		t.Fatal("corrupt persist file loaded without error")
	}
}

func TestMergeNewestWins(t *testing.T) {
	e := newEngine(t, Options{})
	if _, err := e.Register(Spec{Tenant: "acme", Name: "gate", Golden: "old", UpdatedUnixMs: 100}); err != nil {
		t.Fatal(err)
	}
	n := e.Merge([]Spec{
		{Tenant: "acme", Name: "gate", Golden: "stale", UpdatedUnixMs: 50},   // older: ignored
		{Tenant: "acme", Name: "gate2", Golden: "fresh", UpdatedUnixMs: 200}, // new name: merged
		{Tenant: "acme", Name: "bad name!", Golden: "g", UpdatedUnixMs: 300}, // invalid: skipped
	})
	if n != 1 {
		t.Fatalf("Merge merged %d, want 1", n)
	}
	got := e.List("acme")
	if len(got) != 2 || got[0].Golden != "old" || got[1].Name != "gate2" {
		t.Fatalf("merge result: %+v", got)
	}

	// A newer stamp replaces.
	if n := e.Merge([]Spec{{Tenant: "acme", Name: "gate", Golden: "new", UpdatedUnixMs: 999}}); n != 1 {
		t.Fatalf("newer spec not merged: %d", n)
	}
	if got := e.List("acme"); got[0].Golden != "new" {
		t.Fatalf("newest did not win: %+v", got[0])
	}
}

func TestDeleteTombstonePropagates(t *testing.T) {
	a := newEngine(t, Options{})
	b := newEngine(t, Options{})
	if _, err := a.Register(Spec{Tenant: "acme", Name: "gate", Golden: "g"}); err != nil {
		t.Fatal(err)
	}
	if n := b.Merge(a.All()); n != 1 {
		t.Fatalf("initial sync merged %d, want 1", n)
	}
	if err := a.Delete("acme", "gate"); err != nil {
		t.Fatal(err)
	}

	// b missed the delete broadcast and still lists the live spec...
	if got := b.List("acme"); len(got) != 1 {
		t.Fatalf("b's view before sync: %+v", got)
	}
	// ...but syncing b's live spec into a must not resurrect the gate:
	// a's tombstone out-ranks it, clock skew or not.
	if n := a.Merge(b.All()); n != 0 {
		t.Fatalf("stale live spec resurrected over the tombstone (%d merged)", n)
	}
	if got := a.List("acme"); len(got) != 0 {
		t.Fatalf("deleted gate came back on a: %+v", got)
	}
	// The reverse sync carries the tombstone and retires b's copy.
	if n := b.Merge(a.All()); n != 1 {
		t.Fatalf("tombstone not merged into b (%d)", n)
	}
	if got := b.List("acme"); len(got) != 0 {
		t.Fatalf("tombstone did not retire b's spec: %+v", got)
	}
	// Tombstones are invisible to Evaluate and List but ride All().
	tombs := 0
	for _, s := range b.All() {
		if s.Deleted {
			tombs++
		}
	}
	if tombs != 1 {
		t.Fatalf("b carries %d tombstones, want 1", tombs)
	}
	// A second delete of the same gate is an error, same as a miss.
	if err := b.Delete("acme", "gate"); err == nil {
		t.Fatal("deleting a tombstoned gate succeeded")
	}

	// Re-registration must out-rank the tombstone (the fake clock makes
	// now == the original stamp, so the bump past the tombstone is what
	// revives it) and propagate over it.
	if _, err := a.Register(Spec{Tenant: "acme", Name: "gate", Golden: "g2"}); err != nil {
		t.Fatal(err)
	}
	if got := a.List("acme"); len(got) != 1 || got[0].Golden != "g2" {
		t.Fatalf("re-registration lost to the tombstone: %+v", got)
	}
	if n := b.Merge(a.All()); n != 1 {
		t.Fatalf("revived spec not merged into b (%d)", n)
	}
	if got := b.List("acme"); len(got) != 1 || got[0].Golden != "g2" {
		t.Fatalf("b did not adopt the revived spec: %+v", got)
	}
}

func TestEvaluateMatchesBenchmarkAndP(t *testing.T) {
	goldens := map[string]*trace.File{"gold": tracegen.SendRecvTrace(4, "lulesh", 40, 7)}
	lookups := 0
	stub := stubLookup(goldens)
	e := newEngine(t, Options{Lookup: func(tenant, id string) (*trace.File, string, error) {
		lookups++
		return stub(tenant, id)
	}})
	for _, s := range []Spec{
		{Tenant: "acme", Name: "other-bench", Benchmark: "miniFE", Golden: "gold"},
		{Tenant: "acme", Name: "other-p", Benchmark: "lulesh", P: 8, Golden: "gold"},
		{Tenant: "other-tenant", Name: "gate", Golden: "gold"},
	} {
		if _, err := e.Register(s); err != nil {
			t.Fatal(err)
		}
	}
	if evs := evaluate(e, goldens, "acme", "run1", tracegen.SendRecvTrace(4, "lulesh", 40, 7)); evs != nil {
		t.Fatalf("non-matching specs evaluated: %+v", evs)
	}
	if lookups != 0 {
		t.Fatalf("a run no spec matches was loaded %d times", lookups)
	}

	// A wildcard spec ("" benchmark, P=0) matches everything in-tenant.
	if _, err := e.Register(Spec{Tenant: "acme", Name: "any", Golden: "gold"}); err != nil {
		t.Fatal(err)
	}
	evs := evaluate(e, goldens, "acme", "run1", tracegen.SendRecvTrace(4, "lulesh", 40, 7))
	if len(evs) != 1 || evs[0].CQ != "any" || evs[0].Verdict != VerdictOK {
		t.Fatalf("wildcard spec: %+v", evs)
	}
}

func TestEvaluateVerdicts(t *testing.T) {
	golden := tracegen.SendRecvTrace(4, "lulesh", 40, 7)
	goldens := map[string]*trace.File{"gold": golden}
	e := newEngine(t, Options{Lookup: stubLookup(goldens), Origin: "http://a"})
	reg := func(s Spec) {
		t.Helper()
		if _, err := e.Register(s); err != nil {
			t.Fatal(err)
		}
	}
	eval := func(f *trace.File, runID string) Event {
		t.Helper()
		evs := evaluate(e, goldens, "acme", runID, f)
		if len(evs) != 1 {
			t.Fatalf("got %d events, want 1", len(evs))
		}
		return evs[0]
	}

	// Golden unavailable: fail closed.
	reg(Spec{Tenant: "acme", Name: "gate", Golden: "missing"})
	ev := eval(tracegen.SendRecvTrace(4, "lulesh", 40, 7), "run1")
	if ev.Verdict != VerdictRegression || !strings.Contains(ev.Reason, "golden run unavailable") {
		t.Fatalf("missing golden: %+v", ev)
	}

	// Same content address: trivially ok.
	reg(Spec{Tenant: "acme", Name: "gate", Golden: "gold"})
	if ev := eval(golden, "gold"); ev.Verdict != VerdictOK || ev.Reason != "identical content address" {
		t.Fatalf("identical address: %+v", ev)
	}

	// Equivalent trace under a different address: ok, no caveat.
	if ev := eval(tracegen.SendRecvTrace(4, "lulesh", 40, 7), "run2"); ev.Verdict != VerdictOK || ev.Reason != "" {
		t.Fatalf("equivalent run: %+v", ev)
	}

	// One extra loop iteration = +2 events per rank and +4 dynamic
	// events per call site (4 ranks): regression at exact match and at
	// a bound of 3, ok under MaxEventDelta 4 (with a caveat reason).
	drift := tracegen.SendRecvTrace(4, "lulesh", 41, 7)
	if ev := eval(drift, "run3"); ev.Verdict != VerdictRegression || ev.Reason == "" {
		t.Fatalf("drift at exact tolerance: %+v", ev)
	}
	reg(Spec{Tenant: "acme", Name: "gate", Golden: "gold", MaxEventDelta: 3})
	if ev := eval(drift, "run4"); ev.Verdict != VerdictRegression {
		t.Fatalf("drift above bound: %+v", ev)
	}
	reg(Spec{Tenant: "acme", Name: "gate", Golden: "gold", MaxEventDelta: 4})
	if ev := eval(drift, "run5"); ev.Verdict != VerdictOK || !strings.Contains(ev.Reason, "within tolerance") {
		t.Fatalf("drift within bound: %+v", ev)
	}

	// A call site present on one side only is never forgiven, however
	// generous the event-delta bound.
	reg(Spec{Tenant: "acme", Name: "gate", Golden: "gold", MaxEventDelta: 1 << 40})
	if ev := eval(tracegen.SendRecvTrace(4, "lulesh", 40, 99), "run6"); ev.Verdict != VerdictRegression {
		t.Fatalf("new code path forgiven: %+v", ev)
	}
}

func TestEvaluateTolerate(t *testing.T) {
	// The new run diverges only on rank 0: an extra private call site.
	mk := func() *trace.File {
		f := tracegen.SendRecvTrace(4, "lulesh", 40, 7)
		ev := trace.Event{Op: mpi.OpSend, Stack: sig.Stack(sig.Mix(4242)), Dest: trace.Relative(1), Tag: 9, Bytes: 8}
		f.Nodes = append(f.Nodes, trace.NewLeaf(ev, ranklist.FromRanks([]int{0}), 100))
		return f
	}
	goldens := map[string]*trace.File{"gold": tracegen.SendRecvTrace(4, "lulesh", 40, 7)}
	e := newEngine(t, Options{Lookup: stubLookup(goldens)})

	if _, err := e.Register(Spec{Tenant: "acme", Name: "strict", Golden: "gold"}); err != nil {
		t.Fatal(err)
	}
	evs := evaluate(e, goldens, "acme", "r1", mk())
	if evs[0].Verdict != VerdictRegression {
		t.Fatalf("rank-0 divergence not caught: %+v", evs[0])
	}

	// Excluding rank 0 excludes its private call site from both sides.
	if _, err := e.Register(Spec{Tenant: "acme", Name: "strict", Golden: "gold", Tolerate: "0"}); err != nil {
		t.Fatal(err)
	}
	evs = evaluate(e, goldens, "acme", "r2", mk())
	if evs[0].Verdict != VerdictOK {
		t.Fatalf("tolerated rank still fails the gate: %+v", evs[0])
	}

	// "auto" reads the retired-rank lists instead.
	if _, err := e.Register(Spec{Tenant: "acme", Name: "strict", Golden: "gold", Tolerate: "auto"}); err != nil {
		t.Fatal(err)
	}
	faulted := mk()
	faulted.Retired = []int{0}
	evs = evaluate(e, goldens, "acme", "r3", faulted)
	if evs[0].Verdict != VerdictOK {
		t.Fatalf("auto-tolerate ignored the retired rank: %+v", evs[0])
	}
}

func TestEventIDsAndOnEvent(t *testing.T) {
	var mu sync.Mutex
	var seen []Event
	goldens := map[string]*trace.File{"gold": tracegen.SendRecvTrace(2, "b", 10, 1)}
	e := newEngine(t, Options{
		Lookup: stubLookup(goldens),
		Origin: "http://peer-a:8321",
		OnEvent: func(ev Event) {
			mu.Lock()
			seen = append(seen, ev)
			mu.Unlock()
		},
	})
	if _, err := e.Register(Spec{Tenant: "acme", Name: "gate", Golden: "gold"}); err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	for i := 0; i < 5; i++ {
		evs := evaluate(e, goldens, "acme", fmt.Sprintf("run%d", i), tracegen.SendRecvTrace(2, "b", 10, 1))
		id := evs[0].ID
		if !strings.HasPrefix(id, "http://peer-a:8321#") {
			t.Fatalf("event ID missing origin prefix: %q", id)
		}
		if ids[id] {
			t.Fatalf("duplicate event ID %q", id)
		}
		ids[id] = true
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 5 {
		t.Fatalf("OnEvent saw %d events, want 5", len(seen))
	}
}

func TestAppendDedupAndFeedCap(t *testing.T) {
	e := newEngine(t, Options{})
	if e.Append(Event{Tenant: "acme"}) {
		t.Fatal("event without ID accepted")
	}
	if e.Append(Event{ID: "x#1"}) {
		t.Fatal("event without tenant accepted")
	}
	ev := Event{ID: "peer#1", Tenant: "acme", CQ: "gate", Verdict: VerdictOK}
	if !e.Append(ev) {
		t.Fatal("fresh event rejected")
	}
	if e.Append(ev) {
		t.Fatal("duplicate event ID accepted")
	}

	// One event past the cap: the feed keeps the newest maxFeedEvents.
	for i := 2; i <= maxFeedEvents+1; i++ {
		e.Append(Event{ID: fmt.Sprintf("peer#%d", i), Tenant: "acme", Verdict: VerdictOK})
	}
	fd := e.Feed("acme")
	if len(fd.Events) != maxFeedEvents {
		t.Fatalf("feed holds %d events, cap is %d", len(fd.Events), maxFeedEvents)
	}
	if first, last := fd.Events[0].ID, fd.Events[maxFeedEvents-1].ID; first != "peer#2" || last != fmt.Sprintf("peer#%d", maxFeedEvents+1) {
		t.Fatalf("cap did not evict oldest-first: %s .. %s", first, last)
	}
	if fd.Version != maxFeedEvents+1 {
		t.Fatalf("version = %d, want %d", fd.Version, maxFeedEvents+1)
	}
	// Tenant feeds are isolated.
	if got := e.Feed("other"); got.Version != 0 || len(got.Events) != 0 {
		t.Fatalf("tenant isolation broken: %+v", got)
	}
}

func TestWatchLongPoll(t *testing.T) {
	e := newEngine(t, Options{})
	clk := e.clk.(*clock.Fake)
	watch := func(timeout time.Duration) <-chan FeedView {
		done := make(chan FeedView, 1)
		go func() { done <- e.Watch("acme", 0, timeout) }()
		return done
	}

	// Timeout path: nothing arrives, and the current (empty) view
	// returns once the clock reaches the deadline, not before.
	done := watch(50 * time.Millisecond)
	clk.BlockUntil(1)
	clk.Advance(49 * time.Millisecond)
	select {
	case fd := <-done:
		t.Fatalf("watch returned before its deadline: %+v", fd)
	default:
	}
	clk.Advance(time.Millisecond)
	if fd := <-done; fd.Version != 0 {
		t.Fatalf("timed-out watch: %+v", fd)
	}

	// Wake path: an append releases the blocked watcher.
	done = watch(5 * time.Second)
	clk.BlockUntil(1)
	e.Append(Event{ID: "peer#1", Tenant: "acme", Verdict: VerdictRegression})
	if fd := <-done; fd.Version != 1 || len(fd.Events) != 1 || fd.Events[0].Verdict != VerdictRegression {
		t.Fatalf("woken watch view: %+v", fd)
	}

	// A watcher already behind returns without waiting on the clock.
	if fd := e.Watch("acme", 0, 5*time.Second); fd.Version != 1 {
		t.Fatalf("stale watch: %+v", fd)
	}
}
