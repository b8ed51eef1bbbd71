package fault

// The noise-spec parser and generators as they were before the
// generator directives joined Parse, kept as the reference that
// FuzzGeneratorsMatchReference holds Parse and NewInjector to. Plans
// from it validate with today's Validate, whose pulse checks it relied
// on; parseJitter, parseDuration and ParseRankSet are shared.

import (
	"fmt"
	"strconv"
	"strings"

	"chameleon/internal/vtime"
)

// refMerge appends src's directives to p.
func refMerge(p, src *Plan) {
	p.Crashes = append(p.Crashes, src.Crashes...)
	p.Delays = append(p.Delays, src.Delays...)
	p.Slows = append(p.Slows, src.Slows...)
	p.Pulses = append(p.Pulses, src.Pulses...)
}

// refGeneratePeriodic returns a plan with one periodic pulse train: each
// rank in set receives extra compute time at start, start+period,
// start+2*period, ... for count firings (count<=0 means unbounded).
func refGeneratePeriodic(set RankSet, start, period, extra vtime.Duration, count int) *Plan {
	if count < 0 {
		count = 0
	}
	return &Plan{Pulses: []Pulse{{
		Ranks: set,
		At:    start,
		Extra: extra,
		Every: period,
		Count: count,
	}}}
}

// refGenerateResonant returns a periodic train whose period is base*(1+detune).
// base should be the application's halo-exchange (iteration) period; a
// small detune (e.g. 0.05) makes each successive pulse land slightly
// later in the iteration phase, sweeping the injection across the
// compute/wait boundary — the resonance that sustains idle waves.
func refGenerateResonant(set RankSet, base vtime.Duration, detune float64, extra vtime.Duration, count int, start vtime.Duration) *Plan {
	period := vtime.Duration(float64(base) * (1 + detune))
	if period <= 0 {
		period = base
	}
	return refGeneratePeriodic(set, start, period, extra, count)
}

// refGenerateRandom returns count one-off pulses at seeded-uniform times in
// [0, window) on ranks drawn uniformly from set (materialized against
// nranks). Extra durations are uniform in [minExtra, maxExtra]. The same
// (arguments, seed) pair always yields the same plan.
func refGenerateRandom(set RankSet, nranks, count int, window, minExtra, maxExtra vtime.Duration, seed uint64) *Plan {
	ranks := set.Ranks(nranks)
	if len(ranks) == 0 || count <= 0 || window <= 0 {
		return &Plan{}
	}
	if maxExtra < minExtra {
		minExtra, maxExtra = maxExtra, minExtra
	}
	s := mix64(seed ^ 0xda3e39cb94b95bdb)
	next := func() float64 {
		s += 0x9e3779b97f4a7c15
		return float64(mix64(s)>>11) / float64(1<<53)
	}
	plan := &Plan{}
	for i := 0; i < count; i++ {
		rank := ranks[int(next()*float64(len(ranks)))]
		at := vtime.Duration(next() * float64(window))
		extra := minExtra + vtime.Duration(next()*float64(maxExtra-minExtra))
		if extra <= 0 {
			extra = minExtra
			if extra <= 0 {
				extra = vtime.Microsecond
			}
		}
		plan.Pulses = append(plan.Pulses, Pulse{
			Ranks: SingleRank(rank),
			At:    at,
			Extra: extra,
			Count: 1,
		})
	}
	return plan
}

// refParseNoise parses a textual noise spec into a Plan: semicolon-
// separated directives of key=value fields.
//
//	periodic ranks=3 start=100ms period=16ms extra=5ms count=10
//	resonant ranks=0-3 base=16ms detune=0.05 extra=5ms count=20 [start=0]
//	random   ranks=0-7 count=12 window=1s extra=1ms-8ms
//
// nranks materializes rank sets for the random generator; seed feeds its
// draws. Durations take ns/us/ms/s suffixes like fault plans. The result
// validates against nranks before returning.
func refParseNoise(spec string, nranks int, seed uint64) (*Plan, error) {
	plan := &Plan{}
	for _, stmt := range strings.Split(spec, ";") {
		stmt = strings.TrimSpace(stmt)
		if stmt == "" {
			continue
		}
		fields := strings.Fields(stmt)
		verb := fields[0]
		kv := map[string]string{}
		for _, f := range fields[1:] {
			k, v, ok := strings.Cut(f, "=")
			if !ok {
				return nil, fmt.Errorf("fault: noise %s: bad field %q", verb, f)
			}
			kv[k] = v
		}
		var sub *Plan
		var err error
		switch verb {
		case "periodic":
			sub, err = refNoisePeriodic(kv)
		case "resonant":
			sub, err = refNoiseResonant(kv)
		case "random":
			sub, err = refNoiseRandom(kv, nranks, seed)
		default:
			return nil, fmt.Errorf("fault: unknown noise generator %q", verb)
		}
		if err != nil {
			return nil, err
		}
		refMerge(plan, sub)
		seed = mix64(seed + 0x9e3779b97f4a7c15) // independent draws per directive
	}
	if plan.Empty() {
		return nil, fmt.Errorf("fault: empty noise spec")
	}
	if err := plan.Validate(nranks); err != nil {
		return nil, err
	}
	return plan, nil
}

func refNoisePeriodic(kv map[string]string) (*Plan, error) {
	set, err := refNeedRanks(kv, "periodic")
	if err != nil {
		return nil, err
	}
	period, err := refNeedDuration(kv, "periodic", "period")
	if err != nil {
		return nil, err
	}
	extra, err := refNeedDuration(kv, "periodic", "extra")
	if err != nil {
		return nil, err
	}
	start, err := refOptDuration(kv, "start", 0)
	if err != nil {
		return nil, err
	}
	count, err := refOptInt(kv, "count", 0)
	if err != nil {
		return nil, err
	}
	if err := refNoExtra(kv, "periodic", "rank", "ranks", "start", "period", "extra", "count"); err != nil {
		return nil, err
	}
	return refGeneratePeriodic(set, start, period, extra, count), nil
}

func refNoiseResonant(kv map[string]string) (*Plan, error) {
	set, err := refNeedRanks(kv, "resonant")
	if err != nil {
		return nil, err
	}
	base, err := refNeedDuration(kv, "resonant", "base")
	if err != nil {
		return nil, err
	}
	extra, err := refNeedDuration(kv, "resonant", "extra")
	if err != nil {
		return nil, err
	}
	detune := 0.0
	if v, ok := kv["detune"]; ok {
		detune, err = strconv.ParseFloat(v, 64)
		if err != nil || !(detune > -1 && detune < 1) {
			return nil, fmt.Errorf("fault: resonant: bad detune %q (want -1 < detune < 1)", v)
		}
	}
	start, err := refOptDuration(kv, "start", 0)
	if err != nil {
		return nil, err
	}
	count, err := refOptInt(kv, "count", 0)
	if err != nil {
		return nil, err
	}
	if err := refNoExtra(kv, "resonant", "rank", "ranks", "base", "detune", "extra", "count", "start"); err != nil {
		return nil, err
	}
	return refGenerateResonant(set, base, detune, extra, count, start), nil
}

func refNoiseRandom(kv map[string]string, nranks int, seed uint64) (*Plan, error) {
	set, err := refNeedRanks(kv, "random")
	if err != nil {
		return nil, err
	}
	count, err := refOptInt(kv, "count", 0)
	if err != nil {
		return nil, err
	}
	if count <= 0 {
		return nil, fmt.Errorf("fault: random: missing count=")
	}
	window, err := refNeedDuration(kv, "random", "window")
	if err != nil {
		return nil, err
	}
	v, ok := kv["extra"]
	if !ok {
		return nil, fmt.Errorf("fault: random: missing extra=")
	}
	minExtra, maxExtra, err := parseJitter(v)
	if err != nil {
		return nil, err
	}
	if err := refNoExtra(kv, "random", "rank", "ranks", "count", "window", "extra"); err != nil {
		return nil, err
	}
	return refGenerateRandom(set, nranks, count, window, minExtra, maxExtra, seed), nil
}

func refNeedDuration(kv map[string]string, verb, key string) (vtime.Duration, error) {
	v, ok := kv[key]
	if !ok {
		return 0, fmt.Errorf("fault: %s: missing %s=", verb, key)
	}
	return parseDuration(v)
}

func refOptDuration(kv map[string]string, key string, def vtime.Duration) (vtime.Duration, error) {
	v, ok := kv[key]
	if !ok {
		return def, nil
	}
	return parseDuration(v)
}

func refOptInt(kv map[string]string, key string, def int) (int, error) {
	v, ok := kv[key]
	if !ok {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("fault: bad %s %q", key, v)
	}
	return n, nil
}

func refNeedRanks(kv map[string]string, verb string) (RankSet, error) {
	v, ok := refFirst(kv, "ranks", "rank")
	if !ok {
		return RankSet{}, fmt.Errorf("fault: %s: missing ranks=", verb)
	}
	return ParseRankSet(v)
}

func refNoExtra(kv map[string]string, verb string, allowed ...string) error {
	ok := make(map[string]bool, len(allowed))
	for _, k := range allowed {
		ok[k] = true
	}
	for k := range kv {
		if !ok[k] {
			return fmt.Errorf("fault: %s: unknown key %q", verb, k)
		}
	}
	return nil
}

func refFirst(kv map[string]string, keys ...string) (string, bool) {
	for _, k := range keys {
		if v, ok := kv[k]; ok {
			return v, true
		}
	}
	return "", false
}
