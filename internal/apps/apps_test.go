package apps

import (
	"testing"

	"chameleon/internal/mpi"
	"chameleon/internal/vtime"
)

func TestRegistry(t *testing.T) {
	for _, name := range Names() {
		p := 16
		if name == "EMF" {
			p = 26
		}
		spec, err := Registry(name, ClassA, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if spec.Name == "" || spec.Iters <= 0 || spec.Freq <= 0 || spec.K <= 0 {
			t.Fatalf("%s: bad spec %+v", name, spec)
		}
		if spec.Make == nil {
			t.Fatalf("%s: no body", name)
		}
	}
	if _, err := Registry("NOPE", ClassA, 4); err == nil {
		t.Fatalf("unknown benchmark accepted")
	}
}

func TestParseClass(t *testing.T) {
	if ParseClass("A") != ClassA || ParseClass("b") != ClassB ||
		ParseClass("C") != ClassC || ParseClass("D") != ClassD {
		t.Fatalf("class parsing")
	}
	if ParseClass("weird") != ClassD {
		t.Fatalf("default class")
	}
	if !(ClassA.Scale < ClassB.Scale && ClassB.Scale < ClassC.Scale && ClassC.Scale < ClassD.Scale) {
		t.Fatalf("class scales not monotone")
	}
}

func TestGrid2D(t *testing.T) {
	cases := map[int][2]int{
		16: {4, 4}, 12: {3, 4}, 7: {1, 7}, 1: {1, 1}, 36: {6, 6}, 64: {8, 8},
	}
	for p, want := range cases {
		r, c := grid2D(p)
		if r != want[0] || c != want[1] {
			t.Fatalf("grid2D(%d) = %dx%d", p, r, c)
		}
		if r*c != p {
			t.Fatalf("grid2D(%d) does not cover", p)
		}
	}
}

func TestJitterBounded(t *testing.T) {
	for rank := 0; rank < 50; rank++ {
		for step := 0; step < 20; step++ {
			j := jitter(rank, step, 0.1)
			if j < 0.9 || j > 1.1 {
				t.Fatalf("jitter(%d,%d) = %v", rank, step, j)
			}
		}
	}
	if jitter(3, 7, 0.1) != jitter(3, 7, 0.1) {
		t.Fatalf("jitter not deterministic")
	}
}

func TestComputeTimeScaling(t *testing.T) {
	// Strong scaling: more ranks, less per-rank work.
	big := computeTime(8_000_000, ClassD, 16)
	small := computeTime(8_000_000, ClassD, 1024)
	if big <= small {
		t.Fatalf("strong scaling broken: %v vs %v", big, small)
	}
	// Larger class, more work.
	if computeTime(8_000_000, ClassA, 64) >= computeTime(8_000_000, ClassD, 64) {
		t.Fatalf("class scaling broken")
	}
	// Floor.
	if computeTime(1, ClassA, 1<<20) <= 0 {
		t.Fatalf("compute floor broken")
	}
}

func TestHaloBytesScaling(t *testing.T) {
	if haloBytes(2048, ClassD, 16) <= haloBytes(2048, ClassD, 1024) {
		t.Fatalf("halo scaling broken")
	}
	if haloBytes(1, ClassA, 1<<20) < 256 {
		t.Fatalf("halo floor broken")
	}
}

func TestMarkerAt(t *testing.T) {
	o := BodyOpts{Freq: 5, Markers: true}
	count := 0
	for it := 0; it < 20; it++ {
		if markerAt(o, it) {
			count++
		}
	}
	if count != 4 {
		t.Fatalf("marker count = %d", count)
	}
	if markerAt(BodyOpts{Freq: 5, Markers: false}, 4) {
		t.Fatalf("markers fired when disabled")
	}
	if markerAt(BodyOpts{Freq: 0, Markers: true}, 4) {
		t.Fatalf("freq 0 fired")
	}
}

// runSpec executes a spec body untraced on its rank count.
func runSpec(t *testing.T, spec Spec, markers bool) *mpi.Result {
	t.Helper()
	res, err := mpi.Run(mpi.Config{P: spec.P}, spec.Body(markers))
	if err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	return res
}

func TestBenchmarksRunToCompletion(t *testing.T) {
	// Every skeleton must run deadlock-free, with and without markers.
	type tc struct {
		name string
		p    int
	}
	for _, c := range []tc{{"BT", 16}, {"LU", 16}, {"SP", 16}, {"CG", 16},
		{"POP", 16}, {"S3D", 16}, {"LUW", 16}, {"EMF", 11}} {
		spec, err := Registry(c.name, ClassA, c.p)
		if err != nil {
			t.Fatal(err)
		}
		res := runSpec(t, spec, false)
		if res.Makespan <= 0 {
			t.Fatalf("%s: no virtual time", c.name)
		}
		resM := runSpec(t, spec, true)
		if resM.Makespan <= 0 {
			t.Fatalf("%s with markers: no virtual time", c.name)
		}
	}
}

func TestBenchmarksDeterministic(t *testing.T) {
	// Virtual makespans are bit-identical across runs (EMF included,
	// thanks to conservative wildcard matching).
	for _, name := range []string{"BT", "LU", "EMF"} {
		p := 16
		if name == "EMF" {
			p = 11
		}
		spec, err := Registry(name, ClassA, p)
		if err != nil {
			t.Fatal(err)
		}
		first := runSpec(t, spec, false).Makespan
		for i := 0; i < 2; i++ {
			if got := runSpec(t, spec, false).Makespan; got != first {
				t.Fatalf("%s nondeterministic: %v vs %v", name, got, first)
			}
		}
	}
}

func TestLUModified(t *testing.T) {
	spec := LUModified(ClassA, 16, 3)
	if spec.Name != "LU*" {
		t.Fatalf("name = %s", spec.Name)
	}
	res := runSpec(t, spec, true)
	if res.Makespan <= 0 {
		t.Fatalf("no time")
	}
}

func TestSweep3DWeak(t *testing.T) {
	// Weak scaling keeps per-rank work constant: aggregate app time per
	// rank should not shrink as P grows.
	small, err := mpi.Run(mpi.Config{P: 4}, Sweep3DWeak(4).Body(false))
	if err != nil {
		t.Fatal(err)
	}
	big, err := mpi.Run(mpi.Config{P: 16}, Sweep3DWeak(16).Body(false))
	if err != nil {
		t.Fatal(err)
	}
	// The wavefront's pipeline-fill depth grows with the grid diameter,
	// so weak-scaled sweeps legitimately slow down somewhat — but far
	// less than the 4x a strong-scaled fixed problem would shrink.
	ratio := float64(big.Makespan) / float64(small.Makespan)
	if ratio < 0.8 || ratio > 3.5 {
		t.Fatalf("weak scaling makespan ratio = %v", ratio)
	}
}

func TestEMFTaskDivision(t *testing.T) {
	// The paper's EMF process counts divide the task pool evenly.
	for _, p := range []int{126, 251, 501, 1001} {
		spec := EMF(p)
		if spec.Iters*(p-1) != emfTasks {
			t.Fatalf("P=%d: %d rounds x %d workers != %d tasks", p, spec.Iters, p-1, emfTasks)
		}
		if spec.Iters/spec.Freq != 9 {
			t.Fatalf("P=%d: %d calls, want 9", p, spec.Iters/spec.Freq)
		}
	}
}

func TestPopSolverItersVary(t *testing.T) {
	seen := map[int]bool{}
	for it := 0; it < 20; it++ {
		k := popSolverIters(it)
		if k < 20 || k >= 36 {
			t.Fatalf("solver iters out of range: %d", k)
		}
		seen[k] = true
	}
	if len(seen) < 3 {
		t.Fatalf("solver iterations do not vary: %v", seen)
	}
}

func TestTableIIParameters(t *testing.T) {
	// The specs must carry the paper's Table I/II parameters.
	expect := map[string][3]int{ // iters, freq, K
		"BT":  {250, 25, 3},
		"LU":  {300, 20, 9},
		"SP":  {500, 20, 3},
		"POP": {20, 1, 3},
		"S3D": {10, 1, 9},
		"LUW": {250, 25, 9},
	}
	for name, want := range expect {
		spec, err := Registry(name, ClassD, 16)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Iters != want[0] || spec.Freq != want[1] || spec.K != want[2] {
			t.Fatalf("%s: iters/freq/K = %d/%d/%d, want %v",
				name, spec.Iters, spec.Freq, spec.K, want)
		}
	}
	emf := EMF(126)
	if emf.K != 2 || emf.Iters != 288 || emf.Freq != 32 {
		t.Fatalf("EMF(126) = %+v", emf)
	}
}

func TestMGAndFT(t *testing.T) {
	for _, name := range []string{"MG", "FT"} {
		spec, err := Registry(name, ClassA, 16)
		if err != nil {
			t.Fatal(err)
		}
		res := runSpec(t, spec, true)
		if res.Makespan <= 0 {
			t.Fatalf("%s: no virtual time", name)
		}
		// Deterministic.
		if again := runSpec(t, spec, true).Makespan; again != res.Makespan {
			t.Fatalf("%s nondeterministic", name)
		}
	}
}

// TestCheckpointBurstIsGatheredVolume: in a fault-free STENCIL run that
// checkpoints every 10 timesteps, rank 0's IO burst at each checkpoint
// is the gathered volume, |alive| x block bytes at 1 byte/ns, on top of
// the compute of the same run without checkpoints. At P=64 that volume
// exceeds the one-compute-step floor, so a burst sized by anything
// else shows.
func TestCheckpointBurstIsGatheredVolume(t *testing.T) {
	const p, every = 64, 10
	spec := Stencil(ClassA, p)
	appTime := func(checkpointEvery int) vtime.Duration {
		res, err := mpi.Run(mpi.Config{P: p}, spec.Make(BodyOpts{Freq: spec.Freq, CheckpointEvery: checkpointEvery}))
		if err != nil {
			t.Fatal(err)
		}
		return res.Ledgers[0].Spent(vtime.CatApp)
	}
	block := 16 * haloBytes(4096, ClassA, p)
	burst := vtime.Duration(p * block)
	if floor := computeTime(800*vtime.Microsecond, ClassA, p); burst <= floor {
		t.Fatalf("burst %v does not exceed the floor %v: the test cannot tell them apart", burst, floor)
	}
	got := appTime(every) - appTime(0)
	if want := vtime.Duration(spec.Iters/every) * burst; got != want {
		t.Errorf("rank 0 checkpoint bursts took %v, want %d x %v", got, spec.Iters/every, burst)
	}
}
