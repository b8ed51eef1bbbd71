package sig

import (
	"runtime"
	"sync"
	"testing"
)

// both captures the stack of its caller twice: through CaptureSite (the
// cached path) and through a fresh runtime.Callers + InternPCs, the
// oracle. extra drops further frames above the caller. Both calls skip
// this frame, so the two vectors start at the same return address.
//
//go:noinline
func both(extra int) (fast, oracle SiteID) {
	fast = CaptureSite(extra + 1)
	var pcs [32]uintptr
	n := runtime.Callers(extra+2, pcs[:])
	return fast, Sites.InternPCs(pcs[:n])
}

// check asserts fast path == oracle at the caller's stack.
func check(t *testing.T, what string, extra int) SiteID {
	t.Helper()
	fast, oracle := both(extra + 1) // + this frame
	if fast != oracle {
		t.Errorf("%s (extra skip %d): CaptureSite = site %d, runtime.Callers+InternPCs = site %d", what, extra, fast, oracle)
	}
	return fast
}

// deep calls leaf from under depth extra frames of one recursive function.
//
// deep calls leaf from under depth extra frames of one recursive function.
//
//go:noinline
func deep(depth int, leaf func()) {
	if depth > 0 {
		deep(depth-1, leaf)
		return
	}
	leaf()
}

// inlinedLeaf is small enough to be inlined into its callers: the
// logical stack has a frame the physical chain does not.
func inlinedLeaf() (SiteID, SiteID) { return both(0) }

func viaInlineA() (SiteID, SiteID) { return inlinedLeaf() }
func viaInlineB() (SiteID, SiteID) { return inlinedLeaf() }

// TestCaptureSiteDifferential holds the frame-pointer-keyed cache to the
// walk it replaces, over the stack shapes that could break the
// "logical vector is a function of (physical chain, skip)" argument.
func TestCaptureSiteDifferential(t *testing.T) {
	t.Run("recursion", func(t *testing.T) {
		// Every depth is its own physical chain; depths past the 32-frame
		// cap share one logical vector and so one SiteID.
		for round := 0; round < 2; round++ {
			var ids [40]SiteID
			for depth := range ids {
				deep(depth, func() { ids[depth] = check(t, "recursion", 0) })
			}
			for d := 1; d < 20; d++ {
				if ids[d] == ids[d-1] {
					t.Errorf("depths %d and %d share site %d", d-1, d, ids[d])
				}
			}
			if ids[38] != ids[39] {
				t.Errorf("depths 38 and 39 are capped to the same 32 frames but got sites %d and %d", ids[38], ids[39])
			}
		}
	})
	t.Run("closures", func(t *testing.T) {
		seen := map[SiteID]int{}
		for i, f := range []func() SiteID{
			func() SiteID { return check(t, "closure a", 0) },
			func() SiteID { return check(t, "closure b", 0) },
			func() SiteID { return func() SiteID { return check(t, "nested closure", 0) }() },
		} {
			for rep := 0; rep < 3; rep++ {
				id := f()
				if j, dup := seen[id]; dup && j != i {
					t.Errorf("closures %d and %d share site %d", j, i, id)
				}
				seen[id] = i
			}
		}
	})
	t.Run("inlined", func(t *testing.T) {
		for rep := 0; rep < 3; rep++ {
			fa, oa := viaInlineA()
			fb, ob := viaInlineB()
			if fa != oa || fb != ob {
				t.Errorf("inlined helper: fast (%d, %d) != oracle (%d, %d)", fa, fb, oa, ob)
			}
			if fa == fb {
				t.Errorf("two inline expansions of one helper share site %d", fa)
			}
		}
	})
	t.Run("skips", func(t *testing.T) {
		// One physical chain, four skip values: four cache keys.
		outer := func(extra int) SiteID { return check(t, "skip", extra) }
		ids := map[SiteID]bool{}
		for rep := 0; rep < 3; rep++ {
			for extra := 0; extra < 4; extra++ {
				ids[outer(extra)] = true
			}
		}
		if len(ids) != 4 {
			t.Errorf("4 skip values from one frame gave %d distinct sites", len(ids))
		}
	})
	t.Run("two sites in one function", func(t *testing.T) {
		a := CaptureSite(0)
		b := CaptureSite(0)
		if a == b {
			t.Errorf("two call sites in one function share site %d", b)
		}
	})
}

//go:noinline
func deepFromA(leaf func()) { deep(70, leaf) }

//go:noinline
func deepFromB(leaf func()) { deep(70, leaf) }

// TestCaptureSiteWarmSiteDoesNotWalk: the second call at a site performs
// no full walk, and a stack deeper than the chain buffer always does (it
// must bypass the cache, not be truncated into a key that aliases
// another stack with the same innermost frames).
func TestCaptureSiteWarmSiteDoesNotWalk(t *testing.T) {
	var ids [3]SiteID
	var walks [3]uint64
	for i := range ids {
		before := siteWalks.Load()
		ids[i] = CaptureSite(0)
		walks[i] = siteWalks.Load() - before
	}
	if ids[0] != ids[1] || ids[1] != ids[2] {
		t.Fatalf("one call site gave sites %v", ids)
	}
	if runtime.GOARCH != "amd64" {
		return // no frame-pointer walk: every call is a full walk
	}
	// walks[0] is 1 in a fresh process and 0 under -count>1: the cache
	// is process-wide.
	if walks[0] > 1 || walks[1] != 0 || walks[2] != 0 {
		t.Errorf("full walks at a cold-then-warm site = %v, want [<=1 0 0]", walks)
	}

	// 80 and 90 frames of one recursive function, both past the buffer:
	// the innermost 64 return addresses are the same in both, the logical
	// 32 too, so the SiteIDs agree — but only the oracle may say so.
	for _, depth := range []int{80, 90, 80} {
		deep(depth, func() {
			before := siteWalks.Load()
			check(t, "deep stack", 0)
			if got := siteWalks.Load() - before; got != 1 {
				t.Errorf("depth %d: %d full walks, want 1 (bypass)", depth, got)
			}
		})
	}
	// Two stacks that agree on their innermost 70 frames and differ below
	// them, captured with those 70 skipped: the logical vectors differ, and
	// a key truncated to the buffer would hand the second the first's site.
	var viaA, viaB SiteID
	leaf := func() { // one closure: the same innermost PCs on both stacks
		id := check(t, "deep alias", 70)
		viaA, viaB = viaB, id
	}
	deepFromA(leaf)
	deepFromB(leaf)
	if viaA == viaB {
		t.Errorf("stacks differing only below the chain buffer share site %d", viaA)
	}
}

// TestCaptureSiteConcurrent: 64 goroutines race to publish and then hit
// the same sites (the P ranks of a job at their first event). Run under
// -race this is the cache's concurrency check.
func TestCaptureSiteConcurrent(t *testing.T) {
	const goroutines = 64
	got := make([][8]SiteID, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for rep := 0; rep < 50; rep++ {
				for d := range got[g] {
					var id SiteID
					deep(d, func() { id = check(t, "concurrent", 0) })
					if rep > 0 && id != got[g][d] {
						t.Errorf("goroutine %d depth %d: site %d then %d", g, d, got[g][d], id)
						return
					}
					got[g][d] = id
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if got[g] != got[0] {
			t.Errorf("goroutine %d saw sites %v, goroutine 0 saw %v", g, got[g], got[0])
		}
	}
}

func BenchmarkCaptureSiteWarm(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = CaptureSite(0)
	}
}

var sink SiteID
