// Package sig implements the 64-bit signatures Chameleon clusters on.
//
// ScalaTrace distinguishes MPI events originating from different source
// locations by a "stack signature": a fold of the backtrace return
// addresses at the call site. Chameleon aggregates the stack signatures
// of all events observed between two markers into one 64-bit Call-Path
// signature: each event's stack signature is multiplied by
// (sequence_number mod 10) + 1 and XORed into the accumulator, so that
// permuted call sequences or recursion cannot cancel out. SRC and DEST
// signatures summarize the communication end-points of the same window
// with an overflow-safe running average.
package sig

import "chameleon/internal/stats"

// Stack is a 64-bit stack signature of an MPI call site.
type Stack uint64

// Mix is the package's 64-bit finalizer (splitmix64), exported for
// callers that fold auxiliary values (e.g. occurrence counts) into
// signatures with the same diffusion.
func Mix(x uint64) uint64 { return mix(x) }

// mix is a 64-bit finalizer (splitmix64) applied to each frame address so
// nearby PCs produce well-spread signatures before XOR folding.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// FromPCs folds a backtrace (as program counters) into a stack signature.
func FromPCs(pcs []uintptr) Stack {
	var s uint64
	for _, pc := range pcs {
		s ^= mix(uint64(pc))
	}
	return Stack(s)
}

// CallPath accumulates the Call-Path signature of an event window.
type CallPath struct {
	acc uint64
	seq uint64
}

// Add folds one event's stack signature into the Call-Path. The
// (seq%10)+1 multiplier is the paper's ordering term: it makes the
// signature sensitive to event order so interleaved or recursive call
// sequences cannot XOR-cancel.
func (c *CallPath) Add(s Stack) {
	c.seq++
	mult := c.seq%10 + 1
	c.acc ^= uint64(s) * mult
}

// AddN folds an event that the intra-node compressor observed n times
// (an RSD member with n iterations); the fold is applied per occurrence
// to preserve the sequence-number scaling.
func (c *CallPath) AddN(s Stack, n uint64) {
	for i := uint64(0); i < n; i++ {
		c.Add(s)
	}
}

// Value returns the 64-bit Call-Path signature.
func (c *CallPath) Value() uint64 { return c.acc }

// Events returns the number of events folded in.
func (c *CallPath) Events() uint64 { return c.seq }

// Reset clears the accumulator for the next marker window.
func (c *CallPath) Reset() { c.acc, c.seq = 0, 0 }

// Endpoint accumulates the SRC or DEST signature of a window: the
// overflow-safe average of the (relative) end-point parameters of the
// window's events.
type Endpoint struct {
	r stats.Running
}

// Add folds one end-point parameter (already relative-encoded, biased to
// be non-negative) into the signature.
func (e *Endpoint) Add(rel int) {
	e.r.Add(bias(rel))
}

// AddN folds an end-point observed n times.
func (e *Endpoint) AddN(rel int, n uint64) {
	e.r.AddN(bias(rel), n)
}

// bias maps a relative offset (which may be negative) onto uint64 while
// preserving distance: offsets -k and +k land 2k apart.
func bias(rel int) uint64 {
	const center = uint64(1) << 32
	if rel >= 0 {
		return center + uint64(rel)
	}
	return center - uint64(-rel)
}

// Value returns the 64-bit end-point signature.
func (e *Endpoint) Value() uint64 { return e.r.Sig() }

// Count returns the number of end-points folded in.
func (e *Endpoint) Count() uint64 { return e.r.Count() }

// Reset clears the accumulator.
func (e *Endpoint) Reset() { e.r = stats.Running{} }

// Triple is the (Call-Path, SRC, DEST) signature vector that one rank
// contributes to clustering. The paper found these three cover the other
// event parameters in practice.
type Triple struct {
	CallPath uint64
	Src      uint64
	Dest     uint64
}

// Distance is the clustering metric over SRC/DEST signatures (Call-Path
// equality partitions first; distance orders within a partition).
func Distance(a, b Triple) uint64 {
	return absDiff(a.Src, b.Src) + absDiff(a.Dest, b.Dest)
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}
