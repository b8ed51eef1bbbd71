package fault

import (
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"chameleon/internal/vtime"
)

func TestPulseOneShot(t *testing.T) {
	plan, err := Parse("pulse rank=3 at=1ms extra=5ms")
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInjector(plan, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	base := vtime.Millisecond
	// Before the anchor: untouched.
	if got := in.PerturbCompute(3, 0, base); got != base {
		t.Errorf("pre-anchor perturbation = %v, want %v", got, base)
	}
	// Past the anchor: fires once.
	if got := in.PerturbCompute(3, 2*vtime.Time(vtime.Millisecond), base); got != base+5*vtime.Millisecond {
		t.Errorf("post-anchor perturbation = %v, want %v", got, base+5*vtime.Millisecond)
	}
	// One-shot: never again.
	if got := in.PerturbCompute(3, 100*vtime.Time(vtime.Millisecond), base); got != base {
		t.Errorf("second firing = %v, want %v (one-shot)", got, base)
	}
	if got := in.PulsesFired(3); got != 1 {
		t.Errorf("PulsesFired(3) = %d, want 1", got)
	}
	// Other ranks untouched.
	if got := in.PerturbCompute(4, 100*vtime.Time(vtime.Millisecond), base); got != base {
		t.Errorf("rank 4 perturbation = %v, want %v", got, base)
	}
}

func TestPulsePeriodicAbsorption(t *testing.T) {
	plan, err := Parse("pulse rank=0 at=0ms extra=1ms every=1ms count=5")
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInjector(plan, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	// A rank that only shows up at t=10ms was blocked through 5 due
	// pulses: exactly one fires, the rest are absorbed — the decay
	// mechanism of idle waves (noise landing on an already-waiting
	// rank does no additional harm).
	got := in.PerturbCompute(0, 10*vtime.Time(vtime.Millisecond), vtime.Millisecond)
	if want := 2 * vtime.Millisecond; got != want {
		t.Errorf("perturbation = %v, want %v (single firing despite 5 due)", got, want)
	}
	if f := in.PulsesFired(0); f != 1 {
		t.Errorf("PulsesFired = %d, want 1", f)
	}
	if a := in.PulsesAbsorbed(0); a != 4 {
		t.Errorf("PulsesAbsorbed = %d, want 4", a)
	}
	// Count exhausted: nothing more fires.
	if got := in.PerturbCompute(0, 20*vtime.Time(vtime.Millisecond), vtime.Millisecond); got != vtime.Millisecond {
		t.Errorf("post-count perturbation = %v, want base", got)
	}
}

func TestPulsePeriodicTrain(t *testing.T) {
	plan, err := Parse("pulse rank=1 at=1ms extra=2ms every=3ms")
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInjector(plan, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	fires := 0
	for now := vtime.Time(0); now < 20*vtime.Time(vtime.Millisecond); now += vtime.Time(vtime.Millisecond) {
		if in.PerturbCompute(1, now, vtime.Millisecond) > vtime.Millisecond {
			fires++
		}
	}
	// Pulses due at 1,4,7,10,13,16,19 ms; the 1ms sampling catches each.
	if fires != 7 {
		t.Errorf("fired %d times over 20ms at 3ms period, want 7", fires)
	}
}

func TestPulseJSONRoundTrip(t *testing.T) {
	plan, err := Parse(`{"pulse":[{"ranks":"2-3","at":"5ms","extra":"1ms","every":"10ms","count":3}]}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Pulses) != 1 {
		t.Fatalf("got %d pulses, want 1", len(plan.Pulses))
	}
	pu := plan.Pulses[0]
	if pu.At != 5*vtime.Millisecond || pu.Extra != vtime.Millisecond || pu.Every != 10*vtime.Millisecond || pu.Count != 3 {
		t.Errorf("pulse = %+v", pu)
	}
	if !pu.Ranks.Contains(2) || !pu.Ranks.Contains(3) || pu.Ranks.Contains(4) {
		t.Errorf("rank set = %v", pu.Ranks)
	}
	if err := plan.Validate(8); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestPulseValidate(t *testing.T) {
	bad := []string{
		"pulse rank=9 at=1ms extra=1ms", // out of range for nranks=8
		"pulse rank=0 at=1ms",           // missing extra
	}
	for _, spec := range bad {
		plan, err := Parse(spec)
		if err != nil {
			continue // rejected at parse time — fine
		}
		if err := plan.Validate(8); err == nil {
			t.Errorf("Validate accepted %q", spec)
		}
	}
	if _, err := Parse("pulse rank=0 at=NaNms extra=1ms"); err == nil {
		t.Error("Parse accepted NaN duration")
	}
	if _, err := Parse("pulse rank=0 at=Infs extra=1ms"); err == nil {
		t.Error("Parse accepted Inf duration")
	}
	if _, err := Parse(`{"pulse":[{"ranks":"0","at":"1e300s","extra":"1ms"}]}`); err == nil {
		t.Error("Parse accepted overflowing duration")
	}
}

func TestGeneratePeriodic(t *testing.T) {
	plan := mustParse(t, "periodic rank=2 start=10ms period=16ms extra=5ms count=4")
	if err := plan.Validate(8); err != nil {
		t.Fatal(err)
	}
	want := []Pulse{{Ranks: SingleRank(2), At: 10 * vtime.Millisecond,
		Extra: 5 * vtime.Millisecond, Every: 16 * vtime.Millisecond, Count: 4}}
	if !reflect.DeepEqual(plan.Pulses, want) || len(plan.Randoms) != 0 {
		t.Errorf("plan = %+v, want pulses %+v", plan, want)
	}
	// A negative count, like none, leaves the train unbounded.
	if pu := mustParse(t, "periodic rank=2 period=16ms extra=5ms count=-3").Pulses[0]; pu.Count != 0 || pu.At != 0 {
		t.Errorf("pulse = %+v, want an unbounded train from 0", pu)
	}
}

func TestGenerateResonant(t *testing.T) {
	plan := mustParse(t, "resonant rank=0 base=100ms detune=0.05 extra=1ms count=10")
	if got, want := plan.Pulses[0].Every, vtime.Duration(105*float64(vtime.Millisecond)); got != want {
		t.Errorf("resonant period = %v, want %v", got, want)
	}
	// Zero detune degenerates to the base period.
	plan = mustParse(t, "resonant rank=0 base=100ms extra=1ms count=10")
	if got := plan.Pulses[0].Every; got != 100*vtime.Millisecond {
		t.Errorf("undetuned period = %v, want 100ms", got)
	}
}

// TestGenerateRandomDeterministic: a random directive stays in the plan,
// and the injector draws its pulses from its seed.
func TestGenerateRandomDeterministic(t *testing.T) {
	plan := mustParse(t, "random ranks=0-7 count=12 window=1s extra=1ms-8ms")
	if len(plan.Pulses) != 0 || len(plan.Randoms) != 1 {
		t.Fatalf("plan = %+v, want one random directive", plan)
	}
	gen := func(seed uint64) []Pulse {
		in, err := NewInjector(plan, seed, 8)
		if err != nil {
			t.Fatal(err)
		}
		return in.plan.Pulses
	}
	a, b := gen(42), gen(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different random pulses")
	}
	if c := gen(43); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical random pulses")
	}
	if len(a) != 12 || len(plan.Pulses) != 0 {
		t.Fatalf("got %d pulses, want 12 (and the plan untouched)", len(a))
	}
	for i, pu := range a {
		if pu.At < 0 || pu.At >= vtime.Second {
			t.Errorf("pulse %d at %v outside window", i, pu.At)
		}
		if pu.Extra < vtime.Millisecond || pu.Extra > 8*vtime.Millisecond {
			t.Errorf("pulse %d extra %v outside jitter range", i, pu.Extra)
		}
		if pu.Count != 1 || pu.Every != 0 {
			t.Errorf("pulse %d not one-shot: %+v", i, pu)
		}
	}
}

func TestParseNoise(t *testing.T) {
	const spec = "resonant ranks=0-1 base=16ms detune=0.1 extra=2ms count=4; random ranks=0-7 count=3 window=500ms extra=1ms-2ms"
	plan := mustParse(t, spec)
	in, err := NewInjector(plan, 7, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.plan.Pulses) != 1+3 {
		t.Errorf("got %d pulses, want 4", len(in.plan.Pulses))
	}
	again, err := NewInjector(mustParse(t, spec), 7, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in.plan, again.plan) {
		t.Error("random pulses not deterministic for a fixed seed")
	}

	for _, bad := range []string{
		"wobble ranks=0 extra=1ms",
		"periodic ranks=0 period=1ms",                  // missing extra
		"periodic ranks=0 extra=1ms",                   // missing period
		"resonant ranks=0 base=1ms extra=1ms detune=2", // detune out of range
		"random ranks=0 window=1s extra=1ms",           // missing count
		"random ranks=0 count=0 window=1s extra=1ms",   // no pulse
		"random ranks=0 count=1 window=0s extra=1ms",   // empty window
		"random ranks=0 count=4097 window=1s extra=1ms",
		"periodic ranks=99 period=1ms extra=1ms", // out of range at validate
		"random ranks=0-99 count=1 window=1s extra=1ms",
		"periodic ranks=0 period=1ms extra=1ms bogus=1",
		"periodic ranks=0 period=1ms period=2ms extra=1ms", // duplicate key
	} {
		if plan, err := Parse(bad); err == nil {
			if _, err := NewInjector(plan, 1, 8); err == nil {
				t.Errorf("Parse and NewInjector accepted %q", bad)
			}
		}
	}
}

// TestRandomFiresReferencePulses: a random directive fires, compute by
// compute, what the reference's pulses for the same spec and seed fire.
func TestRandomFiresReferencePulses(t *testing.T) {
	const spec, n, seed = "random ranks=0-7 count=12 window=1s extra=1ms-8ms", 8, 7
	ref, err := refParseNoise(spec, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewInjector(mustParse(t, spec), seed, n)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewInjector(ref, seed, n)
	if err != nil {
		t.Fatal(err)
	}
	var fired uint64
	for rank := 0; rank < n; rank++ {
		for now := vtime.Time(0); now < vtime.Time(1100*vtime.Millisecond); now += vtime.Time(vtime.Millisecond) {
			g, w := got.PerturbCompute(rank, now, vtime.Millisecond), want.PerturbCompute(rank, now, vtime.Millisecond)
			if g != w {
				t.Fatalf("rank %d at %v: %v, reference %v", rank, now, g, w)
			}
		}
		fired += got.PulsesFired(rank)
	}
	if fired != 12 {
		t.Errorf("fired %d pulses, want 12", fired)
	}
}

// TestRandomDirectivesDrawIndependently: two equal random directives
// draw from seeds of their own, and a periodic directive before them
// moves no draw.
func TestRandomDirectivesDrawIndependently(t *testing.T) {
	const one = "random ranks=0-7 count=6 window=1s extra=1ms-8ms"
	pulses := func(spec string) []Pulse {
		in, err := NewInjector(mustParse(t, spec), 3, 8)
		if err != nil {
			t.Fatal(err)
		}
		return in.plan.Pulses
	}
	two := pulses(one + "; " + one)
	if reflect.DeepEqual(two[:6], two[6:]) {
		t.Fatal("two random directives drew the same pulses")
	}
	if first := pulses(one); !reflect.DeepEqual(two[:6], first) {
		t.Fatal("the first random directive's draws depend on the second")
	}
	withTrain := pulses("periodic rank=1 period=5ms extra=1ms; " + one + "; " + one)
	if !reflect.DeepEqual(withTrain[1:], two) {
		t.Fatal("a periodic directive moved the random draws")
	}
}

func mustParse(t *testing.T, spec string) *Plan {
	t.Helper()
	plan, err := Parse(spec)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	return plan
}

// TestExampleNoisePlans keeps the runnable plans under examples/noise/
// honest: they must parse, validate at the documented rank count, and
// actually contain pulses.
func TestExampleNoisePlans(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "noise", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 3 {
		t.Fatalf("expected at least 3 example plans, found %v", files)
	}
	for _, f := range files {
		plan, err := ParseFile(f)
		if err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		if err := plan.Validate(16); err != nil {
			t.Errorf("%s: %v", f, err)
		}
		if len(plan.Pulses) == 0 {
			t.Errorf("%s: no pulses", f)
		}
	}
}

// TestInjectorCostsItsPulses: a rank holds firing counters for its own
// pulses only, so at P=1024 one random directive of 4096 pulses builds
// an injector of under 1 MB, and every pulse fires once. A counter per
// rank and pulse of the plan cost P×N words, 32 MB.
func TestInjectorCostsItsPulses(t *testing.T) {
	const n = 1024
	plan := mustParse(t, "random ranks=0-1023 count=4096 window=1s extra=1ms")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	in, err := NewInjector(plan, 5, n)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Fatalf("NewInjector of 4096 pulses at P=%d allocated %d B; want < 1 MB", n, alloc)
	}
	var fired uint64
	for rank := 0; rank < n; rank++ {
		in.PerturbCompute(rank, vtime.Time(2*vtime.Second), vtime.Millisecond)
		fired += in.PulsesFired(rank)
	}
	if fired != 4096 {
		t.Fatalf("fired %d pulses, want 4096", fired)
	}
}
