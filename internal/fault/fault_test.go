package fault

import (
	"reflect"
	"testing"

	"chameleon/internal/vtime"
)

func TestParsePlans(t *testing.T) {
	cases := []struct {
		name  string
		input string
		want  *Plan
		err   bool
	}{
		{name: "empty", input: "", want: &Plan{}},
		{name: "whitespace", input: "  \n ", want: &Plan{}},
		{
			name:  "crash",
			input: "crash rank=5 at marker=12",
			want:  &Plan{Crashes: []Crash{{Rank: 5, Marker: 12}}},
		},
		{
			name:  "crash without at",
			input: "crash rank=5 marker=12",
			want:  &Plan{Crashes: []Crash{{Rank: 5, Marker: 12}}},
		},
		{
			name:  "delay range jitter",
			input: "delay ranks=0-7 p=0.1 jitter=2ms-4ms",
			want: &Plan{Delays: []Delay{{
				Ranks: mustSet(t, "0-7"), P: 0.1,
				Min: 2 * vtime.Millisecond, Max: 4 * vtime.Millisecond,
			}}},
		},
		{
			name:  "delay fixed jitter defaults p=1",
			input: "delay rank=3 jitter=2ms",
			want: &Plan{Delays: []Delay{{
				Ranks: SingleRank(3), P: 1,
				Min: 2 * vtime.Millisecond, Max: 2 * vtime.Millisecond,
			}}},
		},
		{
			name:  "delay min max",
			input: "delay ranks=1,3,5-6 prob=0.5 min=10us max=1ms",
			want: &Plan{Delays: []Delay{{
				Ranks: mustSet(t, "1,3,5-6"), P: 0.5,
				Min: 10 * vtime.Microsecond, Max: 1 * vtime.Millisecond,
			}}},
		},
		{
			name:  "slow",
			input: "slow rank=3 factor=4x",
			want:  &Plan{Slows: []Slow{{Ranks: SingleRank(3), Factor: 4}}},
		},
		{
			name:  "slow without x",
			input: "slow ranks=0-1 factor=1.5",
			want:  &Plan{Slows: []Slow{{Ranks: mustSet(t, "0-1"), Factor: 1.5}}},
		},
		{
			name:  "multi directive",
			input: "crash rank=5 at marker=12; delay ranks=0-7 p=0.1 jitter=2ms\nslow rank=3 factor=4x",
			want: &Plan{
				Crashes: []Crash{{Rank: 5, Marker: 12}},
				Delays: []Delay{{Ranks: mustSet(t, "0-7"), P: 0.1,
					Min: 2 * vtime.Millisecond, Max: 2 * vtime.Millisecond}},
				Slows: []Slow{{Ranks: SingleRank(3), Factor: 4}},
			},
		},
		{
			name:  "json",
			input: `{"crash":[{"rank":5,"marker":12}],"delay":[{"ranks":"0-7","p":0.1,"jitter":"2ms-4ms"}],"slow":[{"ranks":3,"factor":4}]}`,
			want: &Plan{
				Crashes: []Crash{{Rank: 5, Marker: 12}},
				Delays: []Delay{{Ranks: mustSet(t, "0-7"), P: 0.1,
					Min: 2 * vtime.Millisecond, Max: 4 * vtime.Millisecond}},
				Slows: []Slow{{Ranks: SingleRank(3), Factor: 4}},
			},
		},
		{name: "unknown verb", input: "explode rank=1", err: true},
		{name: "bad pair", input: "crash rank 5", err: true},
		{name: "crash missing marker", input: "crash rank=5", err: true},
		{name: "crash unknown key", input: "crash rank=5 marker=2 boom=1", err: true},
		{name: "delay missing jitter", input: "delay ranks=0-7 p=0.1", err: true},
		{name: "delay bad duration", input: "delay ranks=0 jitter=2parsecs", err: true},
		{name: "delay inverted jitter", input: "delay ranks=0 jitter=4ms-2ms", err: true},
		{name: "slow missing factor", input: "slow rank=3", err: true},
		{name: "slow bad factor", input: "slow rank=3 factor=fast", err: true},
		{name: "bad rank set", input: "slow ranks=7-3 factor=2", err: true},
		{name: "bad json", input: "{not json", err: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Parse(tc.input)
			if tc.err {
				if err == nil {
					t.Fatalf("Parse(%q) = %+v, want error", tc.input, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("Parse(%q): %v", tc.input, err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("Parse(%q)\n got %+v\nwant %+v", tc.input, got, tc.want)
			}
		})
	}
}

func mustSet(t *testing.T, s string) RankSet {
	t.Helper()
	set, err := ParseRankSet(s)
	if err != nil {
		t.Fatalf("ParseRankSet(%q): %v", s, err)
	}
	return set
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		plan string
		n    int
		err  bool
	}{
		{name: "ok", plan: "crash rank=5 marker=12", n: 16},
		{name: "rank 0 crash", plan: "crash rank=0 marker=12", n: 16, err: true},
		{name: "crash out of range", plan: "crash rank=16 marker=12", n: 16, err: true},
		{name: "marker zero", plan: "crash rank=5 marker=0", n: 16, err: true},
		{name: "duplicate crash", plan: "crash rank=5 marker=1; crash rank=5 marker=2", n: 16, err: true},
		{name: "everyone but rank 0 dies", plan: "crash rank=1 marker=1", n: 2},
		{name: "delay out of range", plan: "delay ranks=0-16 jitter=1ms", n: 16, err: true},
		{name: "delay bad p", plan: "delay ranks=0 p=1.5 jitter=1ms", n: 16, err: true},
		{name: "slow out of range", plan: "slow rank=16 factor=2", n: 16, err: true},
		{name: "slow below 1", plan: "slow rank=3 factor=0.5x", n: 16, err: true},
		{name: "slow of 1", plan: "slow rank=3 factor=1", n: 16},
		{name: "random out of range", plan: "random ranks=0-16 count=1 window=1s extra=1ms", n: 16, err: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := Parse(tc.plan)
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			err = p.Validate(tc.n)
			if tc.err && err == nil {
				t.Errorf("Validate(%d) of %q: want error", tc.n, tc.plan)
			}
			if !tc.err && err != nil {
				t.Errorf("Validate(%d) of %q: %v", tc.n, tc.plan, err)
			}
		})
	}
}

func TestInjectorEmptyPlanIsNil(t *testing.T) {
	for _, p := range []*Plan{nil, {}} {
		in, err := NewInjector(p, 1, 16)
		if err != nil {
			t.Fatalf("NewInjector: %v", err)
		}
		if in != nil {
			t.Fatalf("empty plan must yield a nil injector, got %+v", in)
		}
	}
}

func TestInjectorMembership(t *testing.T) {
	p, err := Parse("crash rank=5 marker=10; crash rank=2 marker=3")
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInjector(p, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := in.CrashMarker(5); got != 10 {
		t.Errorf("CrashMarker(5) = %d, want 10", got)
	}
	if got := in.CrashMarker(0); got != -1 {
		t.Errorf("CrashMarker(0) = %d, want -1", got)
	}
	checks := []struct {
		m     int
		alive []int
		epoch int
	}{
		{m: 0, alive: []int{0, 1, 2, 3, 4, 5, 6, 7}, epoch: 0},
		{m: 2, alive: []int{0, 1, 2, 3, 4, 5, 6, 7}, epoch: 0},
		{m: 3, alive: []int{0, 1, 3, 4, 5, 6, 7}, epoch: 1},
		{m: 9, alive: []int{0, 1, 3, 4, 5, 6, 7}, epoch: 1},
		{m: 10, alive: []int{0, 1, 3, 4, 6, 7}, epoch: 2},
		{m: 99, alive: []int{0, 1, 3, 4, 6, 7}, epoch: 2},
	}
	for _, c := range checks {
		if got := in.AliveAfter(c.m); !reflect.DeepEqual(got, c.alive) {
			t.Errorf("AliveAfter(%d) = %v, want %v", c.m, got, c.alive)
		}
		if got := in.EpochAt(c.m); got != c.epoch {
			t.Errorf("EpochAt(%d) = %d, want %d", c.m, got, c.epoch)
		}
	}
}

func TestPerturbDeterministicPerSeed(t *testing.T) {
	plan, err := Parse("delay ranks=0-7 p=0.5 jitter=1ms-3ms; slow rank=3 factor=2x")
	if err != nil {
		t.Fatal(err)
	}
	draw := func(seed uint64) []vtime.Duration {
		in, err := NewInjector(plan, seed, 8)
		if err != nil {
			t.Fatal(err)
		}
		var out []vtime.Duration
		for rank := 0; rank < 8; rank++ {
			for i := 0; i < 64; i++ {
				out = append(out, in.PerturbCompute(rank, 0, vtime.Millisecond))
			}
		}
		return out
	}
	a, b := draw(7), draw(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different perturbation streams")
	}
	if c := draw(8); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical perturbation streams")
	}
	// The slow factor applies deterministically even when no delay fires.
	in, _ := NewInjector(plan, 7, 8)
	if got := in.PerturbCompute(3, 0, vtime.Millisecond); got < 2*vtime.Millisecond {
		t.Errorf("slow rank perturbation %v < 2ms floor", got)
	}
	// Statistically, about half the draws on a delayed rank must exceed
	// the nominal duration.
	fired := 0
	for _, d := range a[:64] { // rank 0, delay-only
		if d > vtime.Millisecond {
			fired++
		}
	}
	if fired < 16 || fired > 48 {
		t.Errorf("delay fired %d/64 times, want roughly half at p=0.5", fired)
	}
}

// TestTextAndJSONAgree parses every verb in its text form and in its
// JSON form and requires the same plan, or an error from both: the two
// forms go through one table of verbs, so they share every default
// (delay's p=1), alias, missing-key and unknown-key check.
func TestTextAndJSONAgree(t *testing.T) {
	cases := []struct {
		name, text, json string
		err              bool
	}{
		{name: "crash", text: "crash rank=5 at marker=12",
			json: `{"crash":[{"rank":5,"marker":12}]}`},
		{name: "crash, numbers as strings", text: "crash rank=5 marker=12",
			json: `{"crash":[{"rank":"5","marker":"12"}]}`},
		{name: "delay range", text: "delay ranks=0-7 p=0.1 jitter=2ms-4ms",
			json: `{"delay":[{"ranks":"0-7","p":0.1,"jitter":"2ms-4ms"}]}`},
		{name: "delay defaults p=1", text: "delay ranks=0-7 jitter=2ms",
			json: `{"delay":[{"ranks":"0-7","jitter":"2ms"}]}`},
		{name: "delay min max alias", text: "delay rank=3 prob=0.5 min=10us max=1ms",
			json: `{"delay":[{"rank":3,"prob":0.5,"min":"10us","max":"1ms"}]}`},
		{name: "delay without jitter", text: "delay ranks=0-7 p=0.5",
			json: `{"delay":[{"ranks":"0-7","p":0.5}]}`, err: true},
		{name: "delay misspelt key", text: "delay ranks=0 jiter=2ms",
			json: `{"delay":[{"ranks":"0","jiter":"2ms"}]}`, err: true},
		{name: "slow", text: "slow rank=3 factor=4x",
			json: `{"slow":[{"ranks":3,"factor":"4x"}]}`},
		{name: "slow numeric factor", text: "slow ranks=0-1 factor=1.5",
			json: `{"slow":[{"ranks":"0-1","factor":1.5}]}`},
		{name: "slow missing factor", text: "slow rank=3",
			json: `{"slow":[{"rank":3}]}`, err: true},
		{name: "pulse", text: "pulse ranks=2-3 at=5ms extra=1ms every=10ms count=3",
			json: `{"pulse":[{"ranks":"2-3","at":"5ms","extra":"1ms","every":"10ms","count":3}]}`},
		{name: "pulse missing extra", text: "pulse rank=0 at=1ms",
			json: `{"pulse":[{"ranks":"0","at":"1ms"}]}`, err: true},
		{name: "misspelt verb", text: "pulses rank=0 at=1ms extra=1ms",
			json: `{"pulses":[{"ranks":"0","at":"1ms","extra":"1ms"}]}`, err: true},
		{name: "periodic", text: "periodic ranks=3 start=100ms period=16ms extra=5ms count=10",
			json: `{"periodic":[{"ranks":"3","start":"100ms","period":"16ms","extra":"5ms","count":10}]}`},
		{name: "periodic duplicate key", text: "periodic ranks=3 period=16ms period=8ms extra=5ms",
			json: `{"periodic":[{"ranks":"3","period":"16ms","period":"8ms","extra":"5ms"}]}`, err: true},
		{name: "resonant", text: "resonant ranks=0-3 base=16ms detune=0.05 extra=5ms count=20 start=1ms",
			json: `{"resonant":[{"ranks":"0-3","base":"16ms","detune":0.05,"extra":"5ms","count":20,"start":"1ms"}]}`},
		{name: "resonant bad detune", text: "resonant ranks=0 base=16ms detune=1 extra=5ms",
			json: `{"resonant":[{"ranks":"0","base":"16ms","detune":1,"extra":"5ms"}]}`, err: true},
		{name: "random", text: "random ranks=0-7 count=12 window=1s extra=1ms-8ms",
			json: `{"random":[{"ranks":"0-7","count":12,"window":"1s","extra":"1ms-8ms"}]}`},
		{name: "random missing window", text: "random ranks=0-7 count=12 extra=1ms",
			json: `{"random":[{"ranks":"0-7","count":12,"extra":"1ms"}]}`, err: true},
		{name: "several verbs in order", text: "pulse rank=1 at=1ms extra=1ms; periodic rank=2 period=1ms extra=2ms; pulse rank=3 at=3ms extra=3ms",
			json: `{"pulse":[{"rank":1,"at":"1ms","extra":"1ms"}],"periodic":[{"rank":2,"period":"1ms","extra":"2ms"}],"pulse":[{"rank":3,"at":"3ms","extra":"3ms"}]}`},
		{name: "empty", text: " ", json: `{}`},
		{name: "misspelt verb, no entries", text: "pulses", json: `{"pulses":[]}`, err: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			text, terr := Parse(tc.text)
			js, jerr := Parse(tc.json)
			if tc.err {
				if terr == nil || jerr == nil {
					t.Fatalf("want two errors; text: %v (%+v), JSON: %v (%+v)", terr, text, jerr, js)
				}
				return
			}
			if terr != nil || jerr != nil {
				t.Fatalf("text: %v, JSON: %v", terr, jerr)
			}
			if !reflect.DeepEqual(text, js) {
				t.Fatalf("text form %+v\nJSON form %+v", text, js)
			}
		})
	}
}
