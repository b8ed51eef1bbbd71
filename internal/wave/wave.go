// Package wave reconstructs idle waves from the causal edge store.
//
// An idle wave (Afzal et al., PAPERS.md) is the signature of a one-off
// noise injection in a bulk-synchronous program: the disturbed rank
// finishes its compute late, its halo-exchange neighbors block waiting
// for it, their neighbors block one iteration later, and the excess wait
// travels outward at roughly one rank per iteration until it decays
// (noise landing on already-waiting ranks is absorbed) or hits a global
// synchronization. The causal layer already records exactly the raw
// material: every receiver-matched edge carries WaitVT, the blocked time
// attributable to the sender.
//
// Detect walks those edges and reconstructs each wave: it thresholds
// receiver wait times against a noise floor, clusters the significant
// wait points in (rank, virtual-time) space, finds each cluster's
// origins (local minima of the front), and fits per-wave kinematics —
// origin (rank, VT), propagation period per hop, amplitude, and decay
// length — plus interactions where two fronts meet. The detector is
// read-only and post-hoc: it never touches the runtime, so it can run
// against a live snapshot, a -edges-out file, or the archive sidecar.
package wave

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"chameleon/internal/obs"
)

// maxRankGap is the largest rank distance joined into one wave: halo
// neighbors.
const maxRankGap = 1

// Options describes the run to the detector. The significance floor and
// the clustering window are calibrated from the edges (the way Afzal et
// al. pick them); P is required.
type Options struct {
	// P is the rank count of the traced run (required).
	P int
	// Cols, when positive, interprets ranks as a row-major grid with
	// that many columns and measures rank distance as Manhattan
	// distance on the grid. Zero means linear rank distance |a-b|.
	Cols int
	// Reg receives detector counters (nil-safe, see Metrics in obs).
	Reg *obs.Registry
}

// Point is one significant wait observation: rank To blocked for Wait
// virtual nanoseconds in a receive that completed at VT.
type Point struct {
	Rank int   `json:"rank"`
	VT   int64 `json:"vt_ns"`
	Wait int64 `json:"wait_ns"`
}

// Wave is one fitted idle wave.
type Wave struct {
	ID         int   `json:"id"`
	OriginRank int   `json:"origin_rank"`
	OriginVT   int64 `json:"origin_vt_ns"`
	// AmplitudeNs is the excess wait at the origin — the injected
	// disturbance as seen by the first blocked neighbor.
	AmplitudeNs int64 `json:"amplitude_ns"`
	// PerHopNs is the fitted propagation period: virtual nanoseconds
	// for the front to advance one rank (≈ the halo-exchange period).
	PerHopNs float64 `json:"per_hop_ns"`
	// SpeedRanksPerMs is 1e6/PerHopNs, the conventional wave speed.
	SpeedRanksPerMs float64 `json:"speed_ranks_per_ms"`
	// DecayHops is the fitted e-folding distance of the amplitude in
	// hops; zero means no measurable decay over the observed front.
	DecayHops float64 `json:"decay_hops,omitempty"`
	// Decayed reports that the farthest observed front amplitude had
	// dropped below 1/e of the origin amplitude.
	Decayed bool `json:"decayed,omitempty"`
	// Ranks is how many distinct ranks the wave touched; Points counts
	// all significant wait observations assigned to it.
	Ranks  int   `json:"ranks"`
	Points int   `json:"points"`
	MinVT  int64 `json:"min_vt_ns"`
	MaxVT  int64 `json:"max_vt_ns"`
	// Front is the leading edge: the earliest significant wait per
	// rank, rank-sorted.
	Front []Point `json:"front"`
}

// Interaction is two wave fronts meeting.
type Interaction struct {
	Waves [2]int `json:"waves"`
	// Kind is "merge" when the meeting amplitude carries at least the
	// larger wave's local amplitude onward, "cancel" when the fronts
	// annihilate (the meeting amplitude collapses).
	Kind string `json:"kind"`
	Rank int    `json:"rank"`
	VT   int64  `json:"vt_ns"`
}

// Report is the full detector output for one trace.
type Report struct {
	P            int           `json:"p"`
	FloorNs      int64         `json:"floor_ns"`
	MaxGapNs     int64         `json:"max_gap_ns"`
	Edges        int           `json:"edges"`
	WaitPoints   int           `json:"wait_points"`
	Significant  int           `json:"significant"`
	Waves        []Wave        `json:"waves"`
	Interactions []Interaction `json:"interactions,omitempty"`
}

// Detect reconstructs idle waves from a causal edge slice. Only
// point-to-point application edges participate (collective hops carry a
// Ctx and synchronize globally — they end waves, they don't carry them).
func Detect(edges []obs.Edge, opts Options) (*Report, error) {
	if opts.P <= 0 {
		return nil, fmt.Errorf("wave: Options.P must be positive")
	}
	rep := &Report{P: opts.P, Edges: len(edges)}

	// Collect application wait points. A counting pass first: the point
	// and scratch slices are the detector's dominant memory traffic, so
	// they are allocated at exact size.
	n := 0
	for i := range edges {
		e := &edges[i]
		if e.Ctx == "" && e.To >= 0 && e.To < opts.P && e.WaitVT > 0 {
			n++
		}
	}
	pts := make([]Point, 0, n)
	for i := range edges {
		e := &edges[i]
		if e.Ctx != "" || e.To < 0 || e.To >= opts.P || e.WaitVT <= 0 {
			continue
		}
		pts = append(pts, Point{Rank: e.To, VT: e.RecvVT, Wait: e.WaitVT})
	}
	rep.WaitPoints = len(pts)

	// Significance floor in virtual nanoseconds, four medians of the
	// positive waits: well above the jitter-scale waits every
	// bulk-synchronous step produces, well below a real disturbance.
	waits := make([]int64, len(pts))
	for i := range pts {
		waits[i] = pts[i].Wait
	}
	floor := max(4*medianInt64(waits), 1)
	rep.FloorNs = floor

	nsig := 0
	for i := range pts {
		if pts[i].Wait >= floor {
			nsig++
		}
	}
	sig := make([]Point, 0, nsig)
	for _, p := range pts {
		if p.Wait >= floor {
			sig = append(sig, p)
		}
	}
	rep.Significant = len(sig)
	slices.SortFunc(sig, func(a, b Point) int {
		if a.VT != b.VT {
			return cmp.Compare(a.VT, b.VT)
		}
		return a.Rank - b.Rank
	})

	// Clustering window: significant points inside one wave are spaced
	// about one halo-exchange period apart; eight medians of slack
	// tolerates skipped ranks and jitter without bridging independent
	// waves emitted hundreds of periods apart.
	var gaps []int64
	for i := 1; i < len(sig); i++ {
		if d := sig[i].VT - sig[i-1].VT; d > 0 {
			gaps = append(gaps, d)
		}
	}
	maxGap := max(8*medianInt64(gaps), 1)
	rep.MaxGapNs = maxGap

	dist := func(a, b int) int { return rankDist(a, b, opts.Cols) }

	// Union-find over the time-sorted points: joinable when close in
	// both time and rank space.
	parent := make([]int, len(sig))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	for i := range sig {
		for j := i - 1; j >= 0 && sig[i].VT-sig[j].VT <= maxGap; j-- {
			if dist(sig[i].Rank, sig[j].Rank) <= maxRankGap {
				union(i, j)
			}
		}
	}

	clusters := map[int][]Point{}
	for i, p := range sig {
		r := find(i)
		clusters[r] = append(clusters[r], p)
	}
	roots := make([]int, 0, len(clusters))
	for r := range clusters {
		roots = append(roots, r)
	}
	// Deterministic wave order: by earliest point.
	sort.Slice(roots, func(i, j int) bool {
		a, b := clusters[roots[i]][0], clusters[roots[j]][0]
		if a.VT != b.VT {
			return a.VT < b.VT
		}
		return a.Rank < b.Rank
	})

	var lastVT int64
	for _, p := range sig {
		if p.VT > lastVT {
			lastVT = p.VT
		}
	}

	inflight := 0
	for _, root := range roots {
		cl := clusters[root]
		waves, inter := fitCluster(cl, len(rep.Waves), dist)
		for _, w := range waves {
			if !w.Decayed && lastVT-w.MaxVT <= maxGap {
				inflight++
			}
			rep.Waves = append(rep.Waves, w)
		}
		rep.Interactions = append(rep.Interactions, inter...)
	}

	if reg := opts.Reg; reg != nil {
		reg.Counter("wave_detected_total").Add(uint64(len(rep.Waves)))
		decayed := 0
		for _, w := range rep.Waves {
			if w.Decayed {
				decayed++
			}
		}
		reg.Counter("wave_decayed_total").Add(uint64(decayed))
		reg.Gauge("wave_fronts_inflight").Set(int64(inflight))
	}
	return rep, nil
}

// fitCluster turns one cluster of wait points into one or more waves.
// The front (earliest significant wait per rank) is scanned for local
// VT minima: each minimum is a wave origin, and every front point joins
// the origin reachable with the smallest hop count. Two origins in one
// cluster mean the fronts met — an interaction.
func fitCluster(cl []Point, firstID int, dist func(a, b int) int) ([]Wave, []Interaction) {
	front := map[int]Point{}
	byRank := map[int][]Point{}
	for _, p := range cl {
		if f, ok := front[p.Rank]; !ok || p.VT < f.VT {
			front[p.Rank] = p
		}
		byRank[p.Rank] = append(byRank[p.Rank], p)
	}
	ranks := make([]int, 0, len(front))
	for r := range front {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)

	// Origins: front points whose VT is no later than both rank
	// neighbors'. A plateau of equal VTs counts once, at its start.
	var origins []Point
	for i, r := range ranks {
		p := front[r]
		leftLater := i == 0 || front[ranks[i-1]].VT >= p.VT
		rightLater := i == len(ranks)-1 || front[ranks[i+1]].VT >= p.VT
		if leftLater && rightLater {
			if i > 0 && front[ranks[i-1]].VT == p.VT {
				continue // plateau continuation
			}
			origins = append(origins, p)
		}
	}
	if len(origins) == 0 { // can't happen, but never emit a cluster blind
		origins = append(origins, front[ranks[0]])
	}

	// Assign each front rank to the nearest origin (ties to the earlier
	// origin), building one wave per origin.
	assign := make(map[int]int, len(ranks))
	for _, r := range ranks {
		best, bestD := 0, math.MaxInt
		for oi, o := range origins {
			if d := dist(r, o.Rank); d < bestD {
				best, bestD = oi, d
			}
		}
		assign[r] = best
	}

	waves := make([]Wave, len(origins))
	for oi, o := range origins {
		w := &waves[oi]
		w.ID = firstID + oi
		w.OriginRank = o.Rank
		w.OriginVT = o.VT
		w.AmplitudeNs = o.Wait
		w.MinVT = math.MaxInt64
		for _, r := range ranks {
			if assign[r] != oi {
				continue
			}
			w.Front = append(w.Front, front[r])
			w.Ranks++
			for _, p := range byRank[r] {
				w.Points++
				if p.VT < w.MinVT {
					w.MinVT = p.VT
				}
				if p.VT > w.MaxVT {
					w.MaxVT = p.VT
				}
			}
		}
		sort.Slice(w.Front, func(i, j int) bool { return w.Front[i].Rank < w.Front[j].Rank })
		fitKinematics(w, dist)
	}

	// Interactions: adjacent origin pairs whose basins touch. The
	// meeting point is the latest front point on the boundary between
	// the two basins.
	var inter []Interaction
	for oi := 0; oi+1 < len(origins); oi++ {
		var meet Point
		found := false
		for i := 0; i+1 < len(ranks); i++ {
			a, b := assign[ranks[i]], assign[ranks[i+1]]
			if (a == oi && b == oi+1) || (a == oi+1 && b == oi) {
				// Boundary between the basins: take the later of the
				// two facing front points as the meeting event.
				pa, pb := front[ranks[i]], front[ranks[i+1]]
				meet = pa
				if pb.VT > pa.VT {
					meet = pb
				}
				found = true
			}
		}
		if !found {
			continue
		}
		kind := "cancel"
		// Merge when the amplitude at the meeting point still carries
		// at least half the smaller wave's origin amplitude — the
		// fronts reinforced rather than annihilated.
		small := origins[oi].Wait
		if origins[oi+1].Wait < small {
			small = origins[oi+1].Wait
		}
		if meet.Wait*2 >= small {
			kind = "merge"
		}
		inter = append(inter, Interaction{
			Waves: [2]int{waves[oi].ID, waves[oi+1].ID},
			Kind:  kind,
			Rank:  meet.Rank,
			VT:    meet.VT,
		})
	}
	return waves, inter
}

// fitKinematics fits propagation speed and decay from a wave's front.
func fitKinematics(w *Wave, dist func(a, b int) int) {
	// Through-origin least squares of (hop distance → arrival delay):
	// perHop = Σ(t·d)/Σ(d²), using only ranks the front actually hit.
	var std, sdd float64
	var maxD int
	var farWait int64 = -1
	for _, p := range w.Front {
		d := dist(p.Rank, w.OriginRank)
		if d == 0 {
			continue
		}
		t := float64(p.VT - w.OriginVT)
		std += t * float64(d)
		sdd += float64(d) * float64(d)
		if d > maxD {
			maxD, farWait = d, p.Wait
		}
	}
	if sdd > 0 && std > 0 {
		w.PerHopNs = std / sdd
		w.SpeedRanksPerMs = 1e6 / w.PerHopNs
	}

	// Decay: least squares of ln(amplitude) against hop distance. A
	// negative slope m gives the e-folding length -1/m.
	var sx, sy, sxx, sxy float64
	n := 0
	for _, p := range w.Front {
		if p.Wait <= 0 {
			continue
		}
		x := float64(dist(p.Rank, w.OriginRank))
		y := math.Log(float64(p.Wait))
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		n++
	}
	if n >= 2 {
		den := float64(n)*sxx - sx*sx
		if den > 0 {
			m := (float64(n)*sxy - sx*sy) / den
			if m < 0 {
				w.DecayHops = -1 / m
			}
		}
	}
	if maxD > 0 && farWait >= 0 {
		w.Decayed = float64(farWait) <= float64(w.AmplitudeNs)/math.E
	}
}

func rankDist(a, b, cols int) int {
	if cols <= 0 {
		if a > b {
			return a - b
		}
		return b - a
	}
	dr, dc := a/cols-b/cols, a%cols-b%cols
	if dr < 0 {
		dr = -dr
	}
	if dc < 0 {
		dc = -dc
	}
	return dr + dc
}

func medianInt64(v []int64) int64 {
	if len(v) == 0 {
		return 0
	}
	// Hoare selection with a median-of-three pivot: expected linear
	// time, and the medians here sit on Detect's hot path. Selection
	// reorders v; every caller passes scratch it owns.
	s := v
	k := len(s) / 2
	lo, hi := 0, len(s)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < s[lo] {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if s[hi] < s[lo] {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if s[hi] < s[mid] {
			s[hi], s[mid] = s[mid], s[hi]
		}
		pivot := s[mid]
		i, j := lo, hi
		for i <= j {
			for s[i] < pivot {
				i++
			}
			for s[j] > pivot {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return s[k]
		}
	}
	return s[k]
}
