package fault

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// FuzzPlanDecode throws arbitrary bytes at the plan decoder (both the
// JSON form and the directive grammar share the Parse entry point) and
// checks the invariant the runtime depends on: whatever Parse accepts,
// Validate either rejects or every numeric field is finite and in range
// — no NaN/Inf jitter bounds, probabilities, or durations ever reach an
// Injector, and the pulses it draws for random directives are valid too.
// Seeds come from the example plans under examples/noise/ and
// docs/FAULTS.md.
func FuzzPlanDecode(f *testing.F) {
	for _, seed := range []string{
		"",
		"crash rank=5 at marker=12",
		"delay ranks=0-7 p=0.1 jitter=2ms-4ms",
		"slow rank=3 factor=4x",
		"pulse ranks=5 at=400ms extra=80ms every=50ms count=4",
		"pulse rank=3 at=1ms extra=5ms; slow rank=3 factor=2x",
		`{"pulse":[{"ranks":"5","at":"400ms","extra":"80ms"}]}`,
		`{"pulse":[{"ranks":"3","at":"100ms","extra":"5ms","every":"16ms","count":10}]}`,
		`{"delay":[{"ranks":"0-7","p":0.5,"jitter":"1ms-3ms"}],"slow":[{"ranks":"2","factor":2}]}`,
		`{"crash":[{"rank":5,"marker":12}]}`,
		`{"delay":[{"ranks":"0","p":1e999,"jitter":"1ms"}]}`,
		`{"pulse":[{"ranks":"0","at":"NaNs","extra":"Infms"}]}`,
		"pulse rank=0 at=1e300s extra=1ms",
		"delay ranks=0 p=NaN jitter=1ms",
		`{"periodic":[{"ranks":"3","start":"100ms","period":"16ms","extra":"5ms","count":10}]}`,
		`{"resonant":[{"ranks":"0-3","base":"16ms","detune":0.05,"extra":"5ms","count":-1}]}`,
		`{"random":[{"ranks":"0-7","count":12,"window":"1s","extra":"0s-8ms"}],"pulse":[{"ranks":1,"extra":"1ms"}]}`,
		`{"random":[{"ranks":"0-63","count":4096,"window":"1ns","extra":"1ms"}]}`,
		`{"resonant":[{"ranks":"0","base":"1e300s","detune":-0.999,"extra":"1ms"}]}`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		plan, err := Parse(input)
		if err != nil {
			return
		}
		if err := plan.Validate(64); err != nil {
			return
		}
		for _, d := range plan.Delays {
			if math.IsNaN(d.P) || math.IsInf(d.P, 0) || d.P < 0 || d.P > 1 {
				t.Fatalf("validated delay has bad p: %v (input %q)", d.P, input)
			}
			if d.Min < 0 || d.Max < d.Min {
				t.Fatalf("validated delay has bad jitter [%v,%v] (input %q)", d.Min, d.Max, input)
			}
		}
		for _, s := range plan.Slows {
			if math.IsNaN(s.Factor) || math.IsInf(s.Factor, 0) || s.Factor <= 0 {
				t.Fatalf("validated slow has bad factor: %v (input %q)", s.Factor, input)
			}
		}
		// A validated plan must be injectable without panicking.
		in, err := NewInjector(plan, 1, 64)
		if err != nil {
			t.Fatalf("NewInjector rejected validated plan: %v (input %q)", err, input)
		}
		if in == nil { // empty plans yield a nil injector by contract
			return
		}
		if err := in.plan.Validate(64); err != nil || len(in.plan.Randoms) != 0 {
			t.Fatalf("expanded plan %+v: %v (input %q)", in.plan, err, input)
		}
		for _, pu := range in.plan.Pulses {
			if pu.At < 0 || pu.Extra <= 0 || pu.Every < 0 || pu.Count < 0 {
				t.Fatalf("validated pulse has bad fields: %+v (input %q)", pu, input)
			}
		}
		in.PerturbCompute(0, 0, 1000)
	})
}

// FuzzGeneratorsMatchReference builds specs of periodic, resonant and
// random directives from the fuzzer's bytes, with keys left out, bad
// values and unknown keys among them, and holds Parse and NewInjector
// to the noise-spec parser they replace (refParseNoise,
// noise_ref_test.go): the same specs are accepted, periodic and resonant
// give exactly the reference's pulses, and random directives, which the
// injector draws from its seed advanced once per random directive, give
// the reference's pulses for the random directives on their own. Two
// intended changes are checked as such: a random directive whose ranks
// reach past the rank count, or whose window is empty, is refused, where
// the reference dropped those ranks or drew nothing.
func FuzzGeneratorsMatchReference(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, uint64(1))
	f.Add([]byte{1, 9, 9, 9, 9, 9, 9, 9, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1}, uint64(7))
	f.Add([]byte{2, 2, 3, 3, 3, 3, 3, 3, 3, 2, 5, 5, 5, 5, 5, 5, 5, 5}, uint64(42))
	f.Add([]byte{3, 0, 7, 7, 7, 7, 7, 7, 7, 7, 1, 4, 4, 4, 4, 4, 4, 4, 2, 6, 6, 6, 6, 6, 6, 6, 2, 0, 0}, uint64(1<<63))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		const n = 8
		dirs := genNoiseSpec(data)
		var all, plain, random []string
		outOfRule := false
		for _, d := range dirs {
			all = append(all, d.text)
			if d.verb == "random" {
				random = append(random, d.text)
				outOfRule = outOfRule || d.wide || d.noWindow
			} else {
				plain = append(plain, d.text)
			}
		}
		spec := strings.Join(all, "; ")
		var want []Pulse
		var refErr error
		for _, part := range [][]string{plain, random} {
			if len(part) == 0 {
				continue
			}
			ref, err := refParseNoise(strings.Join(part, "; "), n, seed)
			if err != nil {
				refErr = err
				break
			}
			want = append(want, ref.Pulses...)
		}
		plan, err := Parse(spec)
		var in *Injector
		if err == nil {
			in, err = NewInjector(plan, seed, n)
		}
		switch {
		case refErr != nil || outOfRule:
			if err == nil {
				t.Fatalf("%q: accepted, want refused (reference: %v)", spec, refErr)
			}
		case err != nil:
			t.Fatalf("%q: %v, the reference accepts it", spec, err)
		case !reflect.DeepEqual(in.plan.Pulses, want):
			t.Fatalf("%q: pulses\n %+v\nwant\n %+v", spec, in.plan.Pulses, want)
		case len(plan.Pulses) != len(plain):
			t.Fatalf("%q: Parse gave %d pulses for %d periodic and resonant directives", spec, len(plan.Pulses), len(plain))
		}
	})
}

// noiseDirective is one generated directive and what it is known to hold.
type noiseDirective struct {
	verb, text string
	// wide: ranks reach past rank 7; noWindow: window=0s.
	wide, noWindow bool
}

// genNoiseSpec reads one to four directives from data. Each key a verb
// takes is written with a value drawn from a small pool, or left out;
// now and then an unknown key rides along.
func genNoiseSpec(data []byte) []noiseDirective {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	pick := func(pool ...string) string { return pool[next()%len(pool)] }
	durations := []string{"0s", "1ms", "16ms", "100ms", "2.5ms", "1s", "7us"}
	var out []noiseDirective
	for i := 1 + next()%4; i > 0; i-- {
		d := noiseDirective{verb: pick("periodic", "resonant", "random")}
		var keys []string
		add := func(key string, required bool, pool ...string) {
			if (required && next()%8 == 0) || (!required && next()%2 == 0) {
				return
			}
			v := pick(pool...)
			keys = append(keys, key+"="+v)
			switch {
			case key == "ranks" || key == "rank":
				d.wide = strings.Contains(v, "8") || strings.Contains(v, "9")
			case key == "window":
				d.noWindow = v == "0s"
			}
		}
		add(pick("ranks", "rank"), true, "0", "3", "0-7", "1,5", "2-3,6", "7", "8", "0-9")
		switch d.verb {
		case "periodic":
			add("start", false, durations...)
			add("period", true, durations...)
			add("extra", true, "1ms", "5ms", "0s", "80ms")
			add("count", false, "-3", "0", "1", "4", "100000", "x")
		case "resonant":
			add("base", true, durations...)
			add("detune", false, "0", "0.05", "-0.5", "0.1", "2", "-1", "x")
			add("extra", true, "1ms", "5ms", "0s", "80ms")
			add("count", false, "-3", "0", "1", "4", "100000")
			add("start", false, durations...)
		case "random":
			add("count", true, "0", "1", "3", "12", "-1")
			add("window", true, "0s", "1ms", "500ms", "1s")
			add("extra", true, "1ms", "1ms-8ms", "0s-2ms", "0s", "8ms-1ms")
		}
		if next()%16 == 0 {
			keys = append(keys, "bogus=1")
		}
		d.text = strings.Join(append([]string{d.verb}, keys...), " ")
		out = append(out, d)
	}
	return out
}
