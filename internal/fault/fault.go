// Package fault is the deterministic fault-injection subsystem of the
// simulated MPI runtime.
//
// A Plan describes what goes wrong during a run: crash-stop failures
// (a rank exits cleanly at a marker boundary), probabilistic delays
// (extra per-compute jitter), slowdowns (a multiplicative stretch of
// a rank's computation), and pulses (one-off or periodic noise
// injections anchored at a virtual time — the idle-wave sources of
// Afzal et al., see docs/OBSERVABILITY.md). Plans parse from a small
// text grammar or its JSON form (see Parse), whose generator directives
// build pulse trains (see noise.go). An Injector binds a validated plan
// to a seed and a rank count and answers the runtime's questions — how
// long does this compute really take, does this rank die at this
// marker, who is still alive after marker m — from pure functions of
// (plan, seed), so the same plan and seed reproduce the same perturbed
// run bit for bit.
//
// Crash-stop semantics follow the paper's marker discipline: markers are
// the only global synchronization points Chameleon owns, so crashes fire
// exactly there, and every surviving rank learns the new membership at
// the same marker. The injector doubles as the failure detector: because
// the crash schedule is shared, survivors need no timeout protocol (the
// ULFM "shrink" step collapses to a table lookup). Rank 0 may never
// crash — it holds the online trace.
package fault

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"chameleon/internal/vtime"
)

// Crash stops one rank at a marker boundary: the rank's goroutine exits
// cleanly (crash-stop, no Byzantine behavior) at its Marker-th marker
// barrier, before participating in it.
type Crash struct {
	Rank   int
	Marker int
}

// Delay adds jitter to matching ranks' computation: each Compute call
// independently draws Bernoulli(P); on success an extra duration uniform
// in [Min, Max] is added.
type Delay struct {
	Ranks RankSet
	P     float64
	Min   vtime.Duration
	Max   vtime.Duration
}

// Slow stretches matching ranks' computation by a constant factor
// (CPU degradation / a straggler node).
type Slow struct {
	Ranks  RankSet
	Factor float64
}

// Pulse injects a one-off (or periodic) noise burst anchored at a
// virtual time: the first Compute call on a matching rank at or past At
// is stretched by Extra. With Every > 0 the pulse re-fires each period;
// Count bounds the number of firings (0 = unbounded for periodic
// pulses, exactly one for one-shots). At most one firing lands per
// Compute call — periods that elapse while the rank is blocked in a
// receive are absorbed, not queued, which is exactly the idle-wave
// decay mechanism: noise hitting an already-waiting rank does no
// additional damage.
type Pulse struct {
	Ranks RankSet
	At    vtime.Duration
	Extra vtime.Duration
	Every vtime.Duration
	Count int
}

// Random is Count one-off pulses at uniform times in [0, Window) on
// ranks drawn uniformly from Ranks, each stretching a compute by a
// duration uniform in [Min, Max]. NewInjector draws them from its seed.
type Random struct {
	Ranks    RankSet
	Count    int
	Window   vtime.Duration
	Min, Max vtime.Duration
}

// maxRandomCount bounds the pulses one random directive expands to,
// each held once, by the rank it names.
const maxRandomCount = 1 << 12

// Plan is a complete fault schedule.
type Plan struct {
	Crashes []Crash
	Delays  []Delay
	Slows   []Slow
	Pulses  []Pulse
	Randoms []Random
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool {
	return p == nil || (len(p.Crashes) == 0 && len(p.Delays) == 0 &&
		len(p.Slows) == 0 && len(p.Pulses) == 0 && len(p.Randoms) == 0)
}

// HasCrashes reports whether the plan contains crash-stop failures
// (which require marker-instrumented runs to fire).
func (p *Plan) HasCrashes() bool { return p != nil && len(p.Crashes) > 0 }

// Validate checks the plan against a rank count. Rank 0 cannot crash:
// it folds the online trace, and the paper's protocol has no provision
// for re-homing it (a documented limitation, see docs/FAULTS.md).
func (p *Plan) Validate(nranks int) error {
	if p == nil {
		return nil
	}
	seen := make(map[int]bool, len(p.Crashes))
	for _, c := range p.Crashes {
		if c.Rank <= 0 || c.Rank >= nranks {
			if c.Rank == 0 {
				return fmt.Errorf("fault: rank 0 cannot crash (it holds the online trace)")
			}
			return fmt.Errorf("fault: crash rank %d out of range [1,%d)", c.Rank, nranks)
		}
		if c.Marker < 1 {
			return fmt.Errorf("fault: crash marker %d for rank %d (markers are 1-based)", c.Marker, c.Rank)
		}
		if seen[c.Rank] {
			return fmt.Errorf("fault: duplicate crash for rank %d", c.Rank)
		}
		seen[c.Rank] = true
	}
	for i, d := range p.Delays {
		if err := checkRanks("delay", i, d.Ranks, nranks); err != nil {
			return err
		}
		// The negated comparison also rejects NaN, which an ordered
		// check (d.P < 0 || d.P > 1) silently accepts.
		if !(d.P >= 0 && d.P <= 1) || math.IsNaN(d.P) || math.IsInf(d.P, 0) {
			return fmt.Errorf("fault: delay %d probability %g outside [0,1]", i, d.P)
		}
		if d.Min < 0 || d.Max < d.Min {
			return fmt.Errorf("fault: delay %d jitter range [%v,%v] invalid", i, d.Min, d.Max)
		}
	}
	for i, s := range p.Slows {
		if err := checkRanks("slow", i, s.Ranks, nranks); err != nil {
			return err
		}
		if !(s.Factor >= 1) || math.IsInf(s.Factor, 0) {
			return fmt.Errorf("fault: slow %d factor %g must be at least 1 and finite", i, s.Factor)
		}
	}
	for i, pu := range p.Pulses {
		if err := checkRanks("pulse", i, pu.Ranks, nranks); err != nil {
			return err
		}
		if pu.At < 0 {
			return fmt.Errorf("fault: pulse %d anchor %v negative", i, pu.At)
		}
		if pu.Extra <= 0 {
			return fmt.Errorf("fault: pulse %d extra %v must be positive", i, pu.Extra)
		}
		if pu.Every < 0 {
			return fmt.Errorf("fault: pulse %d period %v negative", i, pu.Every)
		}
		if pu.Count < 0 {
			return fmt.Errorf("fault: pulse %d count %d negative", i, pu.Count)
		}
	}
	for i, r := range p.Randoms {
		if err := checkRanks("random", i, r.Ranks, nranks); err != nil {
			return err
		}
		if r.Count < 1 || r.Count > maxRandomCount {
			return fmt.Errorf("fault: random %d count %d outside [1,%d]", i, r.Count, maxRandomCount)
		}
		if r.Window <= 0 {
			return fmt.Errorf("fault: random %d window %v must be positive", i, r.Window)
		}
		if r.Min < 0 || r.Max < r.Min {
			return fmt.Errorf("fault: random %d extra range [%v,%v] invalid", i, r.Min, r.Max)
		}
	}
	return nil
}

// checkRanks checks that directive i of its kind names ranks, all of
// them in [0, nranks).
func checkRanks(kind string, i int, set RankSet, nranks int) error {
	if set.Empty() {
		return fmt.Errorf("fault: %s %d has an empty rank set", kind, i)
	}
	if set.Max() >= nranks {
		return fmt.Errorf("fault: %s %d targets rank %d out of range [0,%d)", kind, i, set.Max(), nranks)
	}
	return nil
}

// rngState is one rank's splitmix64 state, padded so concurrent rank
// goroutines never share a cache line.
type rngState struct {
	s uint64
	_ [7]uint64
}

// Injector binds a validated plan to a seed and rank count. All methods
// except PerturbCompute are safe for concurrent use (they read immutable
// state); PerturbCompute(rank, ...) must be called only from rank's own
// goroutine, like every other per-rank runtime hook.
type Injector struct {
	// plan is the validated plan with its random directives expanded
	// into Pulses.
	plan *Plan
	n    int
	// crashAt[rank] is the 1-based crash marker, or -1.
	crashAt []int
	// slow[rank] is the combined multiplicative factor (1 = none).
	slow []float64
	// crashMarkers is the sorted multiset of crash markers (epoch math).
	crashMarkers []int
	rng          []rngState
	// pulses[rank] holds rank's own pulses, the plan's pulses whose
	// ranks include it, in plan order, each with how many of its firings
	// have been charged or absorbed on rank (each rank owns its own row).
	pulses [][]rankPulse
	// pulseFired / pulseAbsorbed count per-rank firings and absorptions.
	pulseFired    []uint64
	pulseAbsorbed []uint64
}

// rankPulse is one pulse of one rank, and its firings there so far.
type rankPulse struct {
	*Pulse
	fired int
}

// NewInjector validates the plan and builds an injector. An empty (or
// nil) plan returns (nil, nil): a nil *Injector is the zero-fault mode
// and every runtime hook treats it as "feature off", which is what makes
// zero-fault runs bit-identical to runs without this subsystem. Each
// random directive draws its pulses from seed, advanced once per random
// directive, so the plan and seed fix every draw of the run.
func NewInjector(p *Plan, seed uint64, nranks int) (*Injector, error) {
	if p.Empty() {
		return nil, nil
	}
	if err := p.Validate(nranks); err != nil {
		return nil, err
	}
	if len(p.Randoms) > 0 {
		expanded := *p
		expanded.Pulses = slices.Clip(p.Pulses)
		expanded.Randoms = nil
		s := seed
		for _, r := range p.Randoms {
			expanded.Pulses = append(expanded.Pulses, r.pulses(nranks, s)...)
			s = mix64(s + 0x9e3779b97f4a7c15)
		}
		p = &expanded
	}
	in := &Injector{
		plan:    p,
		n:       nranks,
		crashAt: make([]int, nranks),
		slow:    make([]float64, nranks),
		rng:     make([]rngState, nranks),
	}
	for r := range in.crashAt {
		in.crashAt[r] = -1
		in.slow[r] = 1
		in.rng[r].s = mix64(seed ^ (uint64(r)+1)*0x9e3779b97f4a7c15)
	}
	if len(p.Pulses) > 0 {
		// Each rank's row is appended to on its own, so rank goroutines
		// never write into a shared backing array.
		in.pulses = make([][]rankPulse, nranks)
		in.pulseFired = make([]uint64, nranks)
		in.pulseAbsorbed = make([]uint64, nranks)
		for i := range p.Pulses {
			for _, r := range p.Pulses[i].Ranks.Ranks(nranks) {
				in.pulses[r] = append(in.pulses[r], rankPulse{Pulse: &p.Pulses[i]})
			}
		}
	}
	for _, c := range p.Crashes {
		in.crashAt[c.Rank] = c.Marker
		in.crashMarkers = append(in.crashMarkers, c.Marker)
	}
	sort.Ints(in.crashMarkers)
	for _, s := range p.Slows {
		for _, r := range s.Ranks.Ranks(nranks) {
			in.slow[r] *= s.Factor
		}
	}
	return in, nil
}

// Ranks returns the rank count the injector was built for.
func (in *Injector) Ranks() int { return in.n }

// CrashMarker returns the 1-based marker at which rank crashes, or -1.
func (in *Injector) CrashMarker(rank int) int {
	if rank < 0 || rank >= in.n {
		return -1
	}
	return in.crashAt[rank]
}

// AliveAfter returns the ranks still alive once marker m has fired
// (a rank with crash marker c is dead for every m >= c). The slice is
// freshly allocated and sorted; identical on every caller for a given m.
func (in *Injector) AliveAfter(m int) []int {
	alive := make([]int, 0, in.n)
	for r := 0; r < in.n; r++ {
		if c := in.crashAt[r]; c < 0 || c > m {
			alive = append(alive, r)
		}
	}
	return alive
}

// EpochAt returns the membership epoch at marker m: the number of
// crashes that have fired by then. Epoch 0 is full membership.
func (in *Injector) EpochAt(m int) int {
	return sort.SearchInts(in.crashMarkers, m+1)
}

// PerturbCompute maps a nominal compute duration for rank to its
// perturbed duration: slow factors multiply, each matching delay
// directive draws independently, and due pulses fire (now is the rank's
// virtual clock at the start of the compute, which anchors pulse
// firing). The draw sequence is a pure function of (seed, rank, call
// index), so runs are reproducible. Must be called from rank's own
// goroutine.
func (in *Injector) PerturbCompute(rank int, now vtime.Time, d vtime.Duration) vtime.Duration {
	out := d
	if f := in.slow[rank]; f != 1 {
		out = vtime.Duration(float64(out) * f)
	}
	for i := range in.plan.Delays {
		dl := &in.plan.Delays[i]
		if !dl.Ranks.Contains(rank) {
			continue
		}
		if in.rand01(rank) >= dl.P {
			continue
		}
		extra := dl.Min
		if span := dl.Max - dl.Min; span > 0 {
			extra += vtime.Duration(in.rand01(rank) * float64(span))
		}
		out += extra
	}
	if in.pulses != nil {
		out += in.firePulses(rank, now)
	}
	return out
}

// firePulses charges every pulse directive due on rank at virtual time
// now. A pulse fires at most once per call; periods that elapsed beyond
// the one being charged (the rank sat blocked through them) are
// absorbed and only counted.
func (in *Injector) firePulses(rank int, now vtime.Time) vtime.Duration {
	var extra vtime.Duration
	for i := range in.pulses[rank] {
		rp := &in.pulses[rank][i]
		pu := rp.Pulse
		limit := pu.Count
		if pu.Every <= 0 && (limit == 0 || limit > 1) {
			limit = 1 // a one-shot pulse fires exactly once
		}
		fired := rp.fired
		if limit > 0 && fired >= limit {
			continue
		}
		due := vtime.Time(pu.At) + vtime.Time(fired)*vtime.Time(pu.Every)
		if now < due {
			continue
		}
		extra += pu.Extra
		in.pulseFired[rank]++
		next := fired + 1
		if pu.Every > 0 {
			// Periods that already elapsed are absorbed: the rank was
			// waiting when they hit, so they add no further skew.
			elapsed := int((now-vtime.Time(pu.At))/vtime.Time(pu.Every)) + 1
			if limit > 0 && elapsed > limit {
				elapsed = limit
			}
			if elapsed > next {
				in.pulseAbsorbed[rank] += uint64(elapsed - next)
				next = elapsed
			}
		}
		rp.fired = next
	}
	return extra
}

// PulsesFired returns how many pulse firings rank has absorbed into its
// compute time so far (reads race with the rank's goroutine; call after
// the run, or from the rank itself).
func (in *Injector) PulsesFired(rank int) uint64 {
	if in.pulseFired == nil || rank < 0 || rank >= in.n {
		return 0
	}
	return in.pulseFired[rank]
}

// PulsesAbsorbed returns how many pulse periods elapsed unseen while
// rank was blocked (the idle-wave absorption count).
func (in *Injector) PulsesAbsorbed(rank int) uint64 {
	if in.pulseAbsorbed == nil || rank < 0 || rank >= in.n {
		return 0
	}
	return in.pulseAbsorbed[rank]
}

// rand01 draws a uniform float in [0,1) from rank's private stream.
func (in *Injector) rand01(rank int) float64 {
	st := &in.rng[rank]
	st.s += 0x9e3779b97f4a7c15
	return float64(mix64(st.s)>>11) / float64(1<<53)
}

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
