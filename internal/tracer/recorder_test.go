package tracer

import (
	"testing"
	"unsafe"

	"chameleon/internal/mpi"
	"chameleon/internal/sig"
	"chameleon/internal/stats"
	"chameleon/internal/trace"
	"chameleon/internal/vtime"
)

// withProc runs f on rank `rank` of a p-rank job and returns when the
// job completes.
func withProc(t *testing.T, p, rank int, f func(proc *mpi.Proc)) {
	t.Helper()
	_, err := mpi.Run(mpi.Config{P: p}, func(proc *mpi.Proc) {
		if proc.Rank() == rank {
			f(proc)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEncodeRelativeNormalization(t *testing.T) {
	withProc(t, 8, 2, func(proc *mpi.Proc) {
		r := NewRecorder(proc, SigFull, false)
		// Plain neighbor.
		ev := r.Encode(&mpi.CallInfo{Op: mpi.OpSend, Dest: 3, Src: mpi.NoPeer, Root: mpi.NoPeer}, 1)
		if ev.Dest.Kind != trace.EPRelative || ev.Dest.Off != 1 {
			t.Errorf("dest = %v", ev.Dest)
		}
		// Torus wrap: rank 2 sending to rank 7 is offset -3 mod 8.
		ev = r.Encode(&mpi.CallInfo{Op: mpi.OpSend, Dest: 7, Src: mpi.NoPeer, Root: mpi.NoPeer}, 1)
		if ev.Dest.Off != -3 {
			t.Errorf("wrap offset = %v", ev.Dest)
		}
		// Receive sources encode the same way.
		ev = r.Encode(&mpi.CallInfo{Op: mpi.OpRecv, Dest: mpi.NoPeer, Src: 1, Root: mpi.NoPeer}, 1)
		if ev.Src.Kind != trace.EPRelative || ev.Src.Off != -1 {
			t.Errorf("src = %v", ev.Src)
		}
	})
}

func TestEncodeWildcardAndReply(t *testing.T) {
	withProc(t, 4, 0, func(proc *mpi.Proc) {
		r := NewRecorder(proc, SigFull, false)
		// Wildcard receive.
		ci := &mpi.CallInfo{Op: mpi.OpRecv, Dest: mpi.NoPeer, Src: mpi.AnySource, Root: mpi.NoPeer, MatchedSrc: 2}
		ev := r.Encode(ci, 1)
		if ev.Src.Kind != trace.EPAnySource {
			t.Errorf("wildcard src = %v", ev.Src)
		}
		r.Record(ci, 0, 0)
		// The reply to the matched source uses the ReplyToLast encoding.
		ev = r.Encode(&mpi.CallInfo{Op: mpi.OpSend, Dest: 2, Src: mpi.NoPeer, Root: mpi.NoPeer}, 1)
		if ev.Dest.Kind != trace.EPReplyToLast {
			t.Errorf("reply dest = %v", ev.Dest)
		}
		// A send elsewhere stays relative.
		ev = r.Encode(&mpi.CallInfo{Op: mpi.OpSend, Dest: 1, Src: mpi.NoPeer, Root: mpi.NoPeer}, 1)
		if ev.Dest.Kind != trace.EPRelative {
			t.Errorf("other dest = %v", ev.Dest)
		}
	})
}

func TestEncodeCollectiveRoot(t *testing.T) {
	withProc(t, 4, 1, func(proc *mpi.Proc) {
		r := NewRecorder(proc, SigFull, false)
		ev := r.Encode(&mpi.CallInfo{Op: mpi.OpBcast, Dest: mpi.NoPeer, Src: mpi.NoPeer, Root: 2}, 1)
		if ev.Dest.Kind != trace.EPAbsolute || ev.Dest.Off != 2 {
			t.Errorf("root = %v", ev.Dest)
		}
		ev = r.Encode(&mpi.CallInfo{Op: mpi.OpBarrier, Dest: mpi.NoPeer, Src: mpi.NoPeer, Root: mpi.NoPeer}, 1)
		if ev.Dest.Kind != trace.EPNone {
			t.Errorf("barrier dest = %v", ev.Dest)
		}
	})
}

func TestRecorderDisabledKeepsSignatures(t *testing.T) {
	withProc(t, 2, 0, func(proc *mpi.Proc) {
		r := NewRecorder(proc, SigFull, false)
		r.Enabled = false
		ci := &mpi.CallInfo{Op: mpi.OpSend, Dest: 1, Src: mpi.NoPeer, Root: mpi.NoPeer, Comm: mpi.CommWorld}
		r.Record(ci, 0, 0)
		if r.Events != 0 || len(r.Comp.Seq) != 0 || r.AllocBytes != 0 {
			t.Errorf("disabled recorder built trace state")
		}
		if r.Observed != 1 || r.Win.Events() != 1 {
			t.Errorf("disabled recorder lost signature state: obs=%d win=%d", r.Observed, r.Win.Events())
		}
	})
}

func TestRecorderDeltaTimes(t *testing.T) {
	withProc(t, 2, 0, func(proc *mpi.Proc) {
		r := NewRecorder(proc, SigFull, false)
		ci := &mpi.CallInfo{Op: mpi.OpSend, Dest: 1, Src: mpi.NoPeer, Root: mpi.NoPeer, Comm: mpi.CommWorld}
		r.Record(ci, proc.Clock.Now(), 0)
		proc.Compute(3 * vtime.Millisecond)
		r.Record(ci, proc.Clock.Now(), 0)
		// Folded into one leaf (same call site in the Record loop), the
		// second occurrence carries the 3ms delta.
		if len(r.Comp.Seq) == 0 {
			t.Fatalf("nothing recorded")
		}
		var maxDelta int64
		for _, n := range r.Comp.Seq {
			if !n.IsLoop() && n.Delta != nil && n.Delta.Max > maxDelta {
				maxDelta = n.Delta.Max
			}
			if n.IsLoop() {
				for _, b := range n.Body {
					if b.Delta != nil && b.Delta.Max > maxDelta {
						maxDelta = b.Delta.Max
					}
				}
			}
		}
		if maxDelta < int64(3*vtime.Millisecond) {
			t.Errorf("delta not captured: %d", maxDelta)
		}
	})
}

func TestWindowFullVsFiltered(t *testing.T) {
	mkEv := func(site int) trace.Event {
		return trace.Event{Op: mpi.OpSend, Stack: sig.Stack(sig.Mix(uint64(site)))}
	}
	// Same call-site sets, different occurrence counts.
	fullA, fullB := NewWindow(SigFull), NewWindow(SigFull)
	filtA, filtB := NewWindow(SigFiltered), NewWindow(SigFiltered)
	for i := 0; i < 5; i++ {
		fullA.Add(mkEv(1))
		filtA.Add(mkEv(1))
	}
	for i := 0; i < 7; i++ {
		fullB.Add(mkEv(1))
		filtB.Add(mkEv(1))
	}
	if fullA.Triple().CallPath == fullB.Triple().CallPath {
		t.Fatalf("full mode ignored occurrence counts")
	}
	if filtA.Triple().CallPath != filtB.Triple().CallPath {
		t.Fatalf("filtered mode sensitive to counts")
	}
}

func TestWindowDistinguishesCallSites(t *testing.T) {
	mkEv := func(site int) trace.Event {
		return trace.Event{Op: mpi.OpSend, Stack: sig.Stack(sig.Mix(uint64(site)))}
	}
	a, b := NewWindow(SigFull), NewWindow(SigFull)
	a.Add(mkEv(1))
	a.Add(mkEv(2))
	b.Add(mkEv(1))
	b.Add(mkEv(3))
	if a.Triple().CallPath == b.Triple().CallPath {
		t.Fatalf("different call-site sets share a Call-Path")
	}
	if a.DistinctSites() != 2 {
		t.Fatalf("distinct sites = %d", a.DistinctSites())
	}
}

func TestWindowOrderSensitivity(t *testing.T) {
	mkEv := func(site int) trace.Event {
		return trace.Event{Op: mpi.OpSend, Stack: sig.Stack(sig.Mix(uint64(site)))}
	}
	a, b := NewWindow(SigFull), NewWindow(SigFull)
	a.Add(mkEv(1))
	a.Add(mkEv(2))
	b.Add(mkEv(2))
	b.Add(mkEv(1))
	if a.Triple().CallPath == b.Triple().CallPath {
		t.Fatalf("permuted first-seen order produced equal Call-Paths")
	}
}

func TestWindowReset(t *testing.T) {
	w := NewWindow(SigFull)
	w.Add(trace.Event{Op: mpi.OpSend, Stack: 1, Dest: trace.Relative(1)})
	w.Reset()
	if w.Events() != 0 || w.Triple().CallPath != 0 || w.Triple().Src != 0 {
		t.Fatalf("reset incomplete")
	}
}

// A window is sized, at its first event, for every site interned so far,
// so a later event on any of them does not grow it: the last interned
// site's ID is sig.Sites.Len(), as IDs start at 1.
func TestWindowSizedForEveryInternedSite(t *testing.T) {
	first := sig.Sites.InternSig(sig.Stack(sig.Mix(0x5123_0001)))
	sig.Sites.InternSig(sig.Stack(sig.Mix(0x5123_0002)))
	w := NewWindow(SigFull)
	w.Add(trace.Event{Op: mpi.OpSend, Stack: sig.Sites.Signature(first), Site: first})
	if last := sig.Sites.Len(); len(w.pos) <= last {
		t.Fatalf("the window holds %d slots, the last interned site is %d", len(w.pos), last)
	}
}

func TestWindowRepetitiveStability(t *testing.T) {
	// Two windows observing the same repetitive pattern must produce the
	// identical triple — the property Algorithm 1's vote depends on.
	build := func() sig.Triple {
		w := NewWindow(SigFull)
		for i := 0; i < 25; i++ {
			w.Add(trace.Event{Op: mpi.OpSend, Stack: sig.Stack(sig.Mix(1)), Dest: trace.Relative(1)})
			w.Add(trace.Event{Op: mpi.OpRecv, Stack: sig.Stack(sig.Mix(2)), Src: trace.Relative(-1)})
		}
		return w.Triple()
	}
	if build() != build() {
		t.Fatalf("repetitive windows differ")
	}
}

func TestMergeOverTree(t *testing.T) {
	const P = 9
	var got []*trace.Node
	_, err := mpi.Run(mpi.Config{P: P}, func(p *mpi.Proc) {
		r := NewRecorder(p, SigFull, false)
		// Every rank records the same two events plus one rank-specific
		// branch on rank 3.
		ci := &mpi.CallInfo{Op: mpi.OpSend, Comm: mpi.CommWorld, Dest: (p.Rank() + 1) % P, Src: mpi.NoPeer, Root: mpi.NoPeer, Tag: 1}
		r.Record(ci, 0, 0)
		if p.Rank() == 3 {
			ci2 := &mpi.CallInfo{Op: mpi.OpBarrier, Comm: mpi.CommWorld, Dest: mpi.NoPeer, Src: mpi.NoPeer, Root: mpi.NoPeer, Tag: 2}
			r.Record(ci2, 0, 0)
		}
		members := make([]int, P)
		for i := range members {
			members[i] = i
		}
		merged := MergeOverTree(p, members, r.TakePartial(), false, MergeTag(7), vtime.CatInterComp)
		if p.Rank() == 0 {
			got = merged
		} else if merged != nil {
			t.Errorf("rank %d received merged trace", p.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("root received nothing")
	}
	// The shared send merges into one leaf covering all ranks; rank 3's
	// barrier stays separate.
	var send, barrier *trace.Node
	for _, n := range got {
		switch n.Ev.Op {
		case mpi.OpSend:
			send = n
		case mpi.OpBarrier:
			barrier = n
		}
	}
	if send == nil || send.Ranks.Size() != P {
		t.Fatalf("send coverage: %+v", send)
	}
	if barrier == nil || barrier.Ranks.Size() != 1 || !barrier.Ranks.Contains(3) {
		t.Fatalf("barrier coverage: %+v", barrier)
	}
}

func TestMergeOverTreeNonMember(t *testing.T) {
	_, err := mpi.Run(mpi.Config{P: 4}, func(p *mpi.Proc) {
		members := []int{0, 2} // ranks 1 and 3 sit out
		r := NewRecorder(p, SigFull, false)
		ci := &mpi.CallInfo{Op: mpi.OpBarrier, Comm: mpi.CommWorld, Dest: mpi.NoPeer, Src: mpi.NoPeer, Root: mpi.NoPeer}
		r.Record(ci, 0, 0)
		mine := r.TakePartial()
		out := MergeOverTree(p, members, mine, false, MergeTag(9), vtime.CatInterComp)
		switch p.Rank() {
		case 0:
			if out == nil || trace.LeafCount(out) != 1 {
				t.Errorf("root merge wrong")
			}
		case 2:
			if out != nil {
				t.Errorf("non-root member got result")
			}
		default:
			// Non-members get their own trace back unchanged.
			if len(out) != 1 {
				t.Errorf("non-member trace altered")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecordSteadyStateDoesNotAllocate: once a loop body has folded,
// recording one more iteration of it at warm call sites costs no heap
// allocation — no stack walk (the site cache answers), no CallInfo, no
// rank-list expansion in the compressor's leaf compare, no fresh node
// (the pool recycles the leaf the fold discards), and nothing in the
// hashed fold: hashing each appended leaf, the hash misses of the create
// scan (the second send differs from the first in its tag alone) and the
// hash hits plus full checks of the absorb that ends every iteration.
func TestRecordSteadyStateDoesNotAllocate(t *testing.T) {
	withProc(t, 4, 1, func(proc *mpi.Proc) {
		r := NewRecorder(proc, SigFull, false)
		send := &mpi.CallInfo{Op: mpi.OpSend, Dest: 2, Src: mpi.NoPeer, Root: mpi.NoPeer, Tag: 7, Bytes: 64}
		recv := &mpi.CallInfo{Op: mpi.OpRecv, Dest: mpi.NoPeer, Src: 0, Root: mpi.NoPeer, Tag: 7, Bytes: 64, MatchedSrc: 0}
		send2 := &mpi.CallInfo{Op: mpi.OpSend, Dest: 2, Src: mpi.NoPeer, Root: mpi.NoPeer, Tag: 8, Bytes: 64}
		iteration := func() {
			r.Record(send, proc.Clock.Now(), 0)
			r.Record(recv, proc.Clock.Now(), 0)
			r.Record(send2, proc.Clock.Now(), 0)
		}
		for i := 0; i < 50; i++ {
			iteration()
		}
		if got := len(r.Comp.Seq); got != 1 {
			t.Fatalf("warm-up left %d top-level nodes, want one folded loop", got)
		}
		compares := r.Comp.Compares
		if n := testing.AllocsPerRun(200, iteration); n != 0 {
			t.Errorf("Record at a warm site inside a folded loop: %v allocs per iteration, want 0", n)
		}
		if r.Events != 3*(50+201) {
			t.Errorf("recorded %d events, want %d", r.Events, 3*(50+201))
		}
		// The measured iterations did go through the fold search. They
		// reach Record through AllocsPerRun's own call site, so they fold
		// into a loop of their own: per iteration at least three create
		// candidates that miss and one absorb of three that hit.
		last := r.Comp.Seq[len(r.Comp.Seq)-1]
		if !last.IsLoop() || len(last.Body) != 3 || last.Iters != 200 || r.Comp.Compares-compares < 6*200 {
			t.Errorf("measured iterations ended in %s after %d compares, want a 200-trip loop of 3 and >= %d",
				trace.Format(r.Comp.Seq[len(r.Comp.Seq)-1:]), r.Comp.Compares-compares, 6*200)
		}
	})
}

// TestRecordPathSizeClasses holds the two objects every recorded event
// allocates (until the pool warms) to their allocator size classes. Go
// rounds a 144-byte Node up to nothing — 144 is a class — but a 152-byte
// one to 160; the 72-byte sparse Histogram takes the 80-byte class, where
// the 560-byte array form took 576. Growing either moves
// alloc_mb_per_job by several percent.
func TestRecordPathSizeClasses(t *testing.T) {
	if got := unsafe.Sizeof(trace.Node{}); got > 144 {
		t.Errorf("sizeof(trace.Node) = %d, over the 144-byte size class", got)
	}
	if got := unsafe.Sizeof(stats.Histogram{}); got > 80 {
		t.Errorf("sizeof(stats.Histogram) = %d, over the 80-byte size class", got)
	}
}
