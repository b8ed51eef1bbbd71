package fault

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"chameleon/internal/vtime"
)

// RankSet is a compact set of ranks: a union of closed ranges, as
// written in plan specs ("3", "0-7", "1,5,8-11").
type RankSet struct {
	ranges []rankRange
}

type rankRange struct{ lo, hi int }

// ParseRankSet parses the textual rank-set form.
func ParseRankSet(s string) (RankSet, error) {
	var out RankSet
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		lo, hi := part, part
		if i := strings.Index(part, "-"); i > 0 {
			lo, hi = part[:i], part[i+1:]
		}
		l, err := strconv.Atoi(strings.TrimSpace(lo))
		if err != nil {
			return RankSet{}, fmt.Errorf("fault: bad rank %q in set %q", lo, s)
		}
		h, err := strconv.Atoi(strings.TrimSpace(hi))
		if err != nil {
			return RankSet{}, fmt.Errorf("fault: bad rank %q in set %q", hi, s)
		}
		if l < 0 || h < l {
			return RankSet{}, fmt.Errorf("fault: bad rank range %q", part)
		}
		out.ranges = append(out.ranges, rankRange{lo: l, hi: h})
	}
	if len(out.ranges) == 0 {
		return RankSet{}, fmt.Errorf("fault: empty rank set %q", s)
	}
	return out, nil
}

// SingleRank returns the set {r}.
func SingleRank(r int) RankSet {
	return RankSet{ranges: []rankRange{{lo: r, hi: r}}}
}

// Empty reports whether the set holds no ranks.
func (s RankSet) Empty() bool { return len(s.ranges) == 0 }

// Contains reports set membership.
func (s RankSet) Contains(r int) bool {
	for _, rg := range s.ranges {
		if r >= rg.lo && r <= rg.hi {
			return true
		}
	}
	return false
}

// Max returns the largest rank in the set (-1 when empty).
func (s RankSet) Max() int {
	m := -1
	for _, rg := range s.ranges {
		if rg.hi > m {
			m = rg.hi
		}
	}
	return m
}

// Ranks expands the set into a sorted slice, dropping ranks >= nranks.
func (s RankSet) Ranks(nranks int) []int {
	var out []int
	for _, rg := range s.ranges {
		for r := rg.lo; r <= rg.hi && r < nranks; r++ {
			out = append(out, r)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// String renders the set in the parseable form.
func (s RankSet) String() string {
	var parts []string
	for _, rg := range s.ranges {
		if rg.lo == rg.hi {
			parts = append(parts, strconv.Itoa(rg.lo))
		} else {
			parts = append(parts, fmt.Sprintf("%d-%d", rg.lo, rg.hi))
		}
	}
	return strings.Join(parts, ",")
}

// Parse parses a fault plan: directives separated by ';' or newlines,
// each a verb followed by key=value fields,
//
//	crash rank=5 at marker=12
//	delay ranks=0-7 p=0.1 jitter=2ms-4ms
//	slow rank=3 factor=4x
//	pulse ranks=5 at=400ms extra=80ms every=50ms count=4
//	periodic ranks=3 start=100ms period=16ms extra=5ms count=10
//	resonant ranks=0-3 base=16ms detune=0.05 extra=5ms count=20
//	random ranks=0-7 count=12 window=1s extra=1ms-8ms
//
// or, for input starting with '{', the same directives in JSON: an
// object mapping each verb to a list of objects of the same keys, whose
// values are strings or numbers,
//
//	{"crash": [{"rank": 5, "marker": 12}], "delay": [{"ranks": "0-7", "p": 0.1, "jitter": "2ms-4ms"}]}
//
// Both forms go through one table of verbs (see verbs), so they share
// every default, alias and check. The bare word "at" is noise ("crash
// rank=5 at marker=12" reads naturally); a duplicate or unknown key is
// an error. Durations use ns/us/ms/s suffixes. periodic and resonant
// expand to pulses here; random stays in the plan and NewInjector draws
// its pulses from the injector's seed. An empty input yields an empty
// plan.
func Parse(input string) (*Plan, error) {
	input = strings.TrimSpace(input)
	plan := &Plan{}
	if strings.HasPrefix(input, "{") {
		if err := plan.readJSON(input); err != nil {
			return nil, err
		}
		return plan, nil
	}
	split := func(r rune) bool { return r == ';' || r == '\n' }
	for _, directive := range strings.FieldsFunc(input, split) {
		words := strings.Fields(directive)
		if len(words) == 0 {
			continue
		}
		verb, kv := words[0], map[string]string{}
		for _, w := range words[1:] {
			if w == "at" {
				continue
			}
			k, v, ok := strings.Cut(w, "=")
			if !ok {
				return nil, fmt.Errorf("fault: %q: expected key=value, got %q", verb, w)
			}
			if err := setKey(kv, verb, k, v); err != nil {
				return nil, err
			}
		}
		if err := plan.add(verb, kv); err != nil {
			return nil, err
		}
	}
	return plan, nil
}

// ParseFile loads a plan from a file (JSON or directive grammar,
// auto-detected as in Parse).
func ParseFile(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fault: %w", err)
	}
	return Parse(string(data))
}

// verb is one directive of the grammar: the keys it takes, and the
// function that reads them into plan entries.
type verb struct {
	keys  []string
	apply func(*Plan, *fields)
}

var verbs = map[string]verb{
	"crash":    {[]string{"rank", "marker"}, parseCrash},
	"delay":    {[]string{"rank", "ranks", "p", "prob", "jitter", "min", "max"}, parseDelay},
	"slow":     {[]string{"rank", "ranks", "factor"}, parseSlow},
	"pulse":    {[]string{"rank", "ranks", "at", "extra", "every", "count"}, parsePulse},
	"periodic": {[]string{"rank", "ranks", "start", "period", "extra", "count"}, parsePeriodic},
	"resonant": {[]string{"rank", "ranks", "base", "detune", "extra", "count", "start"}, parseResonant},
	"random":   {[]string{"rank", "ranks", "count", "window", "extra"}, parseRandom},
}

func lookupVerb(name string) (verb, error) {
	v, ok := verbs[name]
	if !ok {
		return verb{}, fmt.Errorf("fault: unknown directive %q (want crash, delay, slow, pulse, periodic, resonant, or random)", name)
	}
	return v, nil
}

// add appends the entries of one directive.
func (p *Plan) add(name string, kv map[string]string) error {
	v, err := lookupVerb(name)
	if err != nil {
		return err
	}
	for k := range kv {
		if !slices.Contains(v.keys, k) {
			return fmt.Errorf("fault: %s: unknown key %q", name, k)
		}
	}
	f := &fields{verb: name, kv: kv}
	v.apply(p, f)
	return f.err
}

func setKey(kv map[string]string, verb, k, v string) error {
	if _, dup := kv[k]; dup {
		return fmt.Errorf("fault: %s: duplicate key %q", verb, k)
	}
	kv[k] = v
	return nil
}

// readJSON adds the directives of the JSON form, in document order, as
// the (verb, key=value) pairs of the text form. A number stands for its
// literal text.
func (p *Plan) readJSON(input string) error {
	dec := json.NewDecoder(strings.NewReader(input))
	dec.UseNumber()
	token := func() (json.Token, error) {
		t, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("fault: bad JSON plan: %w", err)
		}
		return t, nil
	}
	expect := func(want json.Delim) error {
		t, err := token()
		if err == nil && t != want {
			err = fmt.Errorf("fault: bad JSON plan: want %v, got %v", want, t)
		}
		return err
	}
	if err := expect('{'); err != nil {
		return err
	}
	for dec.More() {
		t, err := token()
		if err != nil {
			return err
		}
		name := t.(string) // an object key
		if _, err := lookupVerb(name); err != nil {
			return err
		}
		if err := expect('['); err != nil {
			return err
		}
		for dec.More() {
			if err := expect('{'); err != nil {
				return err
			}
			kv := map[string]string{}
			for dec.More() {
				k, err := token()
				if err != nil {
					return err
				}
				v, err := token()
				if err != nil {
					return err
				}
				var text string
				switch v := v.(type) {
				case string:
					text = v
				case json.Number:
					text = v.String()
				default:
					return fmt.Errorf("fault: %s: %s must be a string or a number, got %v", name, k, v)
				}
				if err := setKey(kv, name, k.(string), text); err != nil {
					return err
				}
			}
			if err := expect('}'); err != nil {
				return err
			}
			if err := p.add(name, kv); err != nil {
				return err
			}
		}
		if err := expect(']'); err != nil {
			return err
		}
	}
	if err := expect('}'); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("fault: bad JSON plan: data after the plan")
	}
	return nil
}

// fields reads the keys of one directive. The first failure sticks:
// later reads return zero values, and err holds it.
type fields struct {
	verb string
	kv   map[string]string
	err  error
}

func (f *fields) fail(err error) {
	if f.err == nil {
		f.err = err
	}
}

// get returns the value of the first of keys present. A missing key is
// an error when need is set.
func (f *fields) get(need bool, keys ...string) (string, bool) {
	if f.err != nil {
		return "", false
	}
	for _, k := range keys {
		if v, ok := f.kv[k]; ok {
			return v, true
		}
	}
	if need {
		f.fail(fmt.Errorf("fault: %s: missing %s=", f.verb, keys[0]))
	}
	return "", false
}

func (f *fields) ranks() RankSet {
	v, ok := f.get(true, "ranks", "rank")
	if !ok {
		return RankSet{}
	}
	set, err := ParseRankSet(v)
	f.fail(err)
	return set
}

func (f *fields) duration(key string, need bool) vtime.Duration {
	v, ok := f.get(need, key)
	if !ok {
		return 0
	}
	d, err := parseDuration(v)
	f.fail(err)
	return d
}

// jitter reads "2ms" (fixed) or "2ms-4ms" (uniform range).
func (f *fields) jitter(key string) (min, max vtime.Duration) {
	v, ok := f.get(true, key)
	if !ok {
		return 0, 0
	}
	min, max, err := parseJitter(v)
	f.fail(err)
	return min, max
}

func (f *fields) integer(key string, need bool) int {
	v, ok := f.get(need, key)
	if !ok {
		return 0
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		f.fail(fmt.Errorf("fault: %s: bad %s %q", f.verb, key, v))
	}
	return n
}

// float reads the first of keys present, def when there is none.
func (f *fields) float(def float64, keys ...string) float64 {
	v, ok := f.get(false, keys...)
	if !ok {
		return def
	}
	x, err := strconv.ParseFloat(v, 64)
	if err != nil {
		f.fail(fmt.Errorf("fault: %s: bad %s %q", f.verb, keys[0], v))
	}
	return x
}

func parseCrash(plan *Plan, f *fields) {
	c := Crash{Rank: f.integer("rank", true), Marker: f.integer("marker", true)}
	if f.err == nil {
		plan.Crashes = append(plan.Crashes, c)
	}
}

func parseDelay(plan *Plan, f *fields) {
	d := Delay{Ranks: f.ranks(), P: f.float(1, "p", "prob")}
	if f.kv["jitter"] != "" {
		d.Min, d.Max = f.jitter("jitter")
	} else {
		d.Min, d.Max = f.duration("min", false), f.duration("max", false)
		if d.Max == 0 {
			d.Max = d.Min
		}
		if d.Min == 0 && d.Max == 0 {
			f.fail(fmt.Errorf("fault: delay: missing jitter= (or min=/max=)"))
		}
	}
	if f.err == nil {
		plan.Delays = append(plan.Delays, d)
	}
}

func parseSlow(plan *Plan, f *fields) {
	s := Slow{Ranks: f.ranks()}
	if v, ok := f.get(true, "factor"); ok {
		var err error
		if s.Factor, err = strconv.ParseFloat(strings.TrimSuffix(v, "x"), 64); err != nil {
			f.fail(fmt.Errorf("fault: slow: bad factor %q", v))
		}
	}
	if f.err == nil {
		plan.Slows = append(plan.Slows, s)
	}
}

func parsePulse(plan *Plan, f *fields) {
	pu := Pulse{
		Ranks: f.ranks(),
		At:    f.duration("at", false),
		Extra: f.duration("extra", true),
		Every: f.duration("every", false),
		Count: f.integer("count", false),
	}
	if f.err == nil {
		plan.Pulses = append(plan.Pulses, pu)
	}
}

// parseJitter parses "2ms" (fixed) or "2ms-4ms" (uniform range).
func parseJitter(s string) (min, max vtime.Duration, err error) {
	if lo, hi, ok := splitRange(s); ok {
		if min, err = parseDuration(lo); err != nil {
			return 0, 0, err
		}
		if max, err = parseDuration(hi); err != nil {
			return 0, 0, err
		}
		if max < min {
			return 0, 0, fmt.Errorf("fault: jitter range %q inverted", s)
		}
		return min, max, nil
	}
	if min, err = parseDuration(s); err != nil {
		return 0, 0, err
	}
	return min, min, nil
}

// splitRange splits "2ms-4ms" at the dash between two durations (the
// dash can never start a duration, so the first candidate wins).
func splitRange(s string) (lo, hi string, ok bool) {
	for i := 1; i < len(s)-1; i++ {
		if s[i] != '-' {
			continue
		}
		if _, err := parseDuration(s[:i]); err == nil {
			if _, err := parseDuration(s[i+1:]); err == nil {
				return s[:i], s[i+1:], true
			}
		}
	}
	return "", "", false
}

var durUnits = []struct {
	suffix string
	unit   vtime.Duration
}{
	{"ns", vtime.Nanosecond},
	{"us", vtime.Microsecond},
	{"µs", vtime.Microsecond},
	{"ms", vtime.Millisecond},
	{"s", vtime.Second},
}

func parseDuration(s string) (vtime.Duration, error) {
	s = strings.TrimSpace(s)
	for _, u := range durUnits {
		if !strings.HasSuffix(s, u.suffix) {
			continue
		}
		num := strings.TrimSuffix(s, u.suffix)
		// "s" also suffixes "ns"/"us"/"ms"; require the number to parse.
		v, err := strconv.ParseFloat(num, 64)
		if err != nil {
			continue
		}
		// ParseFloat accepts "NaN" and "Inf"; converting either to the
		// integer Duration is undefined behavior, so reject them here
		// (plan JSON is untrusted input — see FuzzPlanDecode).
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("fault: non-finite duration %q", s)
		}
		if v < 0 {
			return 0, fmt.Errorf("fault: negative duration %q", s)
		}
		if v*float64(u.unit) > float64(math.MaxInt64) {
			return 0, fmt.Errorf("fault: duration %q overflows", s)
		}
		return vtime.Duration(v * float64(u.unit)), nil
	}
	return 0, fmt.Errorf("fault: bad duration %q (want e.g. 500ns, 2us, 3ms, 1s)", s)
}
