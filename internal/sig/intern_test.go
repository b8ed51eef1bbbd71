package sig

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// makePCSets builds n distinct synthetic backtraces of varying depth.
func makePCSets(n int) [][]uintptr {
	rng := rand.New(rand.NewSource(42))
	sets := make([][]uintptr, n)
	for i := range sets {
		depth := 3 + rng.Intn(12)
		pcs := make([]uintptr, depth)
		for d := range pcs {
			pcs[d] = uintptr(0x400000 + rng.Intn(1<<24))
		}
		sets[i] = pcs
	}
	return sets
}

// TestInternConcurrent hammers one table from 64 goroutines interning a
// shared working set in goroutine-specific orders. Run under -race this
// is the concurrency-safety check; the assertions verify agreement: the
// same PC vector gets the same SiteID from every goroutine, and the
// cached signature always equals the direct fold.
func TestInternConcurrent(t *testing.T) {
	const goroutines = 64
	table := NewTable()
	sets := makePCSets(200)
	ids := make([][]SiteID, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each goroutine walks the working set in its own order so
			// first-intern races hit every site.
			order := rand.New(rand.NewSource(int64(g))).Perm(len(sets))
			got := make([]SiteID, len(sets))
			for _, i := range order {
				got[i] = table.InternPCs(sets[i])
			}
			// Second pass: hits must be stable.
			for _, i := range order {
				if again := table.InternPCs(sets[i]); again != got[i] {
					t.Errorf("goroutine %d: set %d interned to %d then %d", g, i, got[i], again)
					return
				}
			}
			ids[g] = got
		}()
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := range sets {
			if ids[g][i] != ids[0][i] {
				t.Fatalf("set %d: goroutine %d got id %d, goroutine 0 got %d",
					i, g, ids[g][i], ids[0][i])
			}
		}
	}
	if table.Len() != len(sets) {
		t.Fatalf("table has %d sites, want %d", table.Len(), len(sets))
	}
	for i, pcs := range sets {
		if got, want := table.Signature(ids[0][i]), FromPCs(pcs); got != want {
			t.Errorf("set %d: cached signature %016x != direct fold %016x", i, uint64(got), uint64(want))
		}
	}
}

// TestInternOrderIndependence is the property test: for random PC sets
// interned in random interleavings across fresh tables, the (PC set →
// signature) mapping is invariant, and within one table the mapping
// (PC set → SiteID) is a bijection however the interns are ordered.
func TestInternOrderIndependence(t *testing.T) {
	sets := makePCSets(64)
	ref := NewTable()
	refIDs := make(map[SiteID]int)
	for i, pcs := range sets {
		id := ref.InternPCs(pcs)
		if prev, dup := refIDs[id]; dup {
			t.Fatalf("sets %d and %d interned to the same id %d", prev, i, id)
		}
		refIDs[id] = i
	}
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		table := NewTable()
		seen := make(map[SiteID]int)
		for _, i := range rng.Perm(len(sets)) {
			id := table.InternPCs(sets[i])
			if prev, dup := seen[id]; dup {
				t.Fatalf("trial %d: sets %d and %d share id %d", trial, prev, i, id)
			}
			seen[id] = i
			if got, want := table.Signature(id), ref.Signature(refIDs2(refIDs, i)); got != want {
				t.Fatalf("trial %d set %d: signature %016x, reference %016x",
					trial, i, uint64(got), uint64(want))
			}
		}
		if table.Len() != len(sets) {
			t.Fatalf("trial %d: %d sites, want %d", trial, table.Len(), len(sets))
		}
	}
}

func refIDs2(m map[SiteID]int, set int) SiteID {
	for id, i := range m {
		if i == set {
			return id
		}
	}
	return NoSite
}

// TestInternSigAgreesWithPCs checks the signature-only fallback: a site
// interned by signature is distinct from PC-interned sites but stable,
// and CaptureSite matches Capture's frame window.
func TestInternSigAgreesWithPCs(t *testing.T) {
	table := NewTable()
	a := table.InternSig(Stack(0xdeadbeef))
	b := table.InternSig(Stack(0xdeadbeef))
	if a != b {
		t.Fatalf("signature-only intern not stable: %d vs %d", a, b)
	}
	if got := table.Signature(a); got != Stack(0xdeadbeef) {
		t.Fatalf("signature-only site stored %016x", uint64(got))
	}
	// The same call instruction must intern to the same site on every
	// execution (the loop-iteration hit path), and the cached signature
	// must equal the direct fold of the captured frames.
	var ids [3]SiteID
	for i := range ids {
		ids[i] = CaptureSite(0)
	}
	if ids[0] == NoSite || ids[1] != ids[0] || ids[2] != ids[0] {
		t.Fatalf("repeated capture from one call site gave ids %v", ids)
	}
	m, ok := Sites.Meta(ids[0])
	if !ok || m.Sig != FromPCs(m.PCs) {
		t.Errorf("cached signature %016x != fold of stored backtrace", uint64(m.Sig))
	}
	info, ok := Sites.Resolve(ids[0])
	if !ok || info.Func == "" {
		t.Errorf("captured site did not resolve to a function: %+v", info)
	}
}

// TestInternGrowthCostsTheNewSites: a new site costs its own entry, not
// a copy of the table. A fleet member interns the site table of every
// merge payload it receives into the process-wide table; with a copy
// per site, 1 500 new sites into a table of 4 500 allocated 547 MB.
func TestInternGrowthCostsTheNewSites(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what a call allocates")
	}
	var before, after runtime.MemStats
	table := NewTable()
	for i := 0; i < 6000; i++ {
		if i == 4500 {
			runtime.ReadMemStats(&before)
		}
		table.InternSigMeta(SiteInfo{Sig: Mix(uint64(i)), Func: "app.f", File: "app.go", Line: i})
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("1 500 new sites: %.2f MB", float64(got)/(1<<20))
	if table.Len() != 6000 || got > 4<<20 {
		t.Fatalf("%d sites; the last 1 500 allocated %.1f MB, want < 4 MB", table.Len(), float64(got)/(1<<20))
	}
}
