// The generator directives write pulse trains from a compact spec
// instead of by hand. Three shapes cover the idle-wave experiments of
// Afzal et al. (see docs/OBSERVABILITY.md):
//
//	periodic  — a fixed-period pulse train on chosen ranks. Period equal
//	            to the app's iteration time keeps re-exciting the same
//	            wave; much longer periods emit independent one-off waves.
//	resonant  — a periodic train whose period is the halo-exchange
//	            period times (1+detune). Small positive detune makes the
//	            injection drift slowly across the iteration phase, the
//	            strongest sustained-desynchronization driver.
//	random    — one-off pulses at seeded-uniform (rank, time) points
//	            inside a window, the "natural system noise" baseline.
//
// periodic and resonant are one Pulse each. random is a Random that
// NewInjector expands from its seed, so a scenario is reproducible from
// the plan and the injector's seed alone.

package fault

import (
	"fmt"

	"chameleon/internal/vtime"
)

// parsePeriodic reads a train on ranks= of extra= at start=,
// start+period=, ... for count= firings (none or negative: unbounded).
func parsePeriodic(plan *Plan, f *fields) {
	pu := Pulse{
		Ranks: f.ranks(),
		Every: f.duration("period", true),
		Extra: f.duration("extra", true),
		At:    f.duration("start", false),
		Count: max(f.integer("count", false), 0),
	}
	if f.err == nil {
		plan.Pulses = append(plan.Pulses, pu)
	}
}

// parseResonant reads a periodic train whose period is base= times
// (1+detune=). base should be the application's halo-exchange
// (iteration) period; a small detune (e.g. 0.05) makes each pulse land
// slightly later in the iteration phase, sweeping the injection across
// the compute/wait boundary — the resonance that sustains idle waves.
func parseResonant(plan *Plan, f *fields) {
	pu := Pulse{Ranks: f.ranks()}
	base := f.duration("base", true)
	pu.Extra = f.duration("extra", true)
	detune := f.float(0, "detune")
	if f.err == nil && !(detune > -1 && detune < 1) {
		f.fail(fmt.Errorf("fault: resonant: bad detune %q (want -1 < detune < 1)", f.kv["detune"]))
	}
	pu.At = f.duration("start", false)
	pu.Count = max(f.integer("count", false), 0)
	if pu.Every = vtime.Duration(float64(base) * (1 + detune)); pu.Every <= 0 {
		pu.Every = base
	}
	if f.err == nil {
		plan.Pulses = append(plan.Pulses, pu)
	}
}

func parseRandom(plan *Plan, f *fields) {
	r := Random{
		Ranks:  f.ranks(),
		Count:  f.integer("count", true),
		Window: f.duration("window", true),
	}
	r.Min, r.Max = f.jitter("extra")
	if f.err == nil {
		plan.Randoms = append(plan.Randoms, r)
	}
}

// pulses draws the directive's one-off pulses from seed. The ranks are
// those of Ranks below nranks, which Validate requires to be all of them.
func (r Random) pulses(nranks int, seed uint64) []Pulse {
	ranks := r.Ranks.Ranks(nranks)
	s := mix64(seed ^ 0xda3e39cb94b95bdb)
	next := func() float64 {
		s += 0x9e3779b97f4a7c15
		return float64(mix64(s)>>11) / float64(1<<53)
	}
	out := make([]Pulse, r.Count)
	for i := range out {
		rank := ranks[int(next()*float64(len(ranks)))]
		at := vtime.Duration(next() * float64(r.Window))
		extra := r.Min + vtime.Duration(next()*float64(r.Max-r.Min))
		if extra <= 0 {
			extra = vtime.Microsecond
		}
		out[i] = Pulse{Ranks: SingleRank(rank), At: at, Extra: extra, Count: 1}
	}
	return out
}
