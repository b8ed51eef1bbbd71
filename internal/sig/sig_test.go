package sig

import (
	"testing"
	"testing/quick"
)

// two distinct call sites for CaptureSite determinism tests.
func captureSiteA() Stack { return Sites.Signature(CaptureSite(0)) }
func captureSiteB() Stack { return Sites.Signature(CaptureSite(0)) }

func TestCaptureDeterministic(t *testing.T) {
	// Same source line (same return PCs) must always produce the same
	// signature — loop iterations are indistinguishable, like in C.
	var sigs [4]Stack
	for i := range sigs {
		sigs[i] = captureSiteA()
	}
	for _, s := range sigs[1:] {
		if s != sigs[0] {
			t.Fatalf("same call site produced different signatures: %x vs %x", sigs[0], s)
		}
	}
}

func TestCaptureDistinguishesCallSites(t *testing.T) {
	if captureSiteA() == captureSiteB() {
		t.Fatalf("distinct call sites share a signature")
	}
}

func TestCaptureDistinguishesCallers(t *testing.T) {
	via := func() Stack { return captureSiteA() }
	direct := captureSiteA()
	indirect := via()
	if direct == indirect {
		t.Fatalf("different call paths share a signature")
	}
}

func TestFromPCs(t *testing.T) {
	if FromPCs(nil) != 0 {
		t.Fatalf("empty backtrace should be zero")
	}
	a := FromPCs([]uintptr{0x1000, 0x2000})
	b := FromPCs([]uintptr{0x2000, 0x1000})
	if a != b {
		t.Fatalf("XOR fold should be order independent at frame level")
	}
	if a == FromPCs([]uintptr{0x1000}) {
		t.Fatalf("different frame sets collide")
	}
}

func TestMixSpreads(t *testing.T) {
	// Nearby inputs must differ substantially after mixing.
	if Mix(1) == Mix(2) {
		t.Fatalf("mix collision")
	}
	f := func(x uint64) bool { return Mix(x) == Mix(x) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCallPathOrderSensitivity(t *testing.T) {
	// The (seq%10)+1 multiplier makes permuted call sequences differ.
	var a, b CallPath
	s1, s2 := Stack(Mix(1)), Stack(Mix(2))
	a.Add(s1)
	a.Add(s2)
	b.Add(s2)
	b.Add(s1)
	if a.Value() == b.Value() {
		t.Fatalf("permuted sequences produced equal Call-Paths")
	}
	if a.Events() != 2 {
		t.Fatalf("events = %d", a.Events())
	}
}

func TestCallPathReset(t *testing.T) {
	var c CallPath
	c.Add(Stack(Mix(3)))
	c.Reset()
	if c.Value() != 0 || c.Events() != 0 {
		t.Fatalf("reset incomplete")
	}
}

func TestCallPathAddN(t *testing.T) {
	var a, b CallPath
	s := Stack(Mix(9))
	for i := 0; i < 5; i++ {
		a.Add(s)
	}
	b.AddN(s, 5)
	if a.Value() != b.Value() {
		t.Fatalf("AddN differs from repeated Add")
	}
}

func TestEndpointBiasPreservesDistance(t *testing.T) {
	var plus, minus Endpoint
	plus.Add(5)
	minus.Add(-5)
	if plus.Value() == minus.Value() {
		t.Fatalf("+5 and -5 collide")
	}
	d := plus.Value() - minus.Value()
	if d != 10 {
		t.Fatalf("distance +5/-5 = %d, want 10", d)
	}
}

func TestEndpointAverages(t *testing.T) {
	var e Endpoint
	e.Add(2)
	e.Add(4)
	want := (bias(2) + bias(4)) / 2
	if e.Value() != want {
		t.Fatalf("avg = %d, want %d", e.Value(), want)
	}
	if e.Count() != 2 {
		t.Fatalf("count = %d", e.Count())
	}
	e.Reset()
	if e.Count() != 0 {
		t.Fatalf("reset incomplete")
	}
}

func TestEndpointAddN(t *testing.T) {
	var a, b Endpoint
	for i := 0; i < 4; i++ {
		a.Add(-3)
	}
	b.AddN(-3, 4)
	if a.Value() != b.Value() || a.Count() != b.Count() {
		t.Fatalf("AddN mismatch")
	}
}

func TestDistance(t *testing.T) {
	a := Triple{CallPath: 1, Src: 100, Dest: 200}
	b := Triple{CallPath: 1, Src: 90, Dest: 230}
	if got := Distance(a, b); got != 10+30 {
		t.Fatalf("distance = %d", got)
	}
	if Distance(a, a) != 0 {
		t.Fatalf("self distance nonzero")
	}
	if Distance(a, b) != Distance(b, a) {
		t.Fatalf("distance not symmetric")
	}
}

func TestDistanceSymmetric(t *testing.T) {
	f := func(s1, d1, s2, d2 uint64) bool {
		a := Triple{Src: s1, Dest: d1}
		b := Triple{Src: s2, Dest: d2}
		return Distance(a, b) == Distance(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
