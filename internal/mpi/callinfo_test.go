package mpi

import (
	"testing"

	"chameleon/internal/fault"
)

// seqHooks copies every CallInfo it is handed (the contract: valid until
// Post returns). From inside Post of a Bcast and Pre of a Reduce it
// issues a public Barrier of its own, then checks the CallInfo it was
// handed is untouched: the nested op must get its own scratch value.
type seqHooks struct {
	t         *testing.T
	p         *Proc
	pre, post []CallInfo
}

func (h *seqHooks) Pre(ci *CallInfo) {
	h.pre = append(h.pre, *ci)
	if ci.Op == OpReduce {
		h.nest(ci)
	}
}

func (h *seqHooks) Post(ci *CallInfo) {
	h.post = append(h.post, *ci)
	if ci.Op == OpBcast {
		h.nest(ci)
	}
}

func (h *seqHooks) nest(ci *CallInfo) {
	before := *ci
	h.p.World().Barrier()
	if *ci != before {
		h.t.Errorf("rank %d: nested Barrier rewrote its caller's CallInfo: %+v, was %+v", h.p.rank, *ci, before)
	}
}

func (h *seqHooks) Finalize() {}

// TestCallInfoFieldsAfterScratchReuse runs every public operation back to
// back on one rank's reused scratch CallInfo and holds what Pre and Post
// saw to a table: each op's own fields, nothing left over from the op
// before (MatchedSrc and Bytes are the ones Post-side code fills in).
func TestCallInfoFieldsAfterScratchReuse(t *testing.T) {
	const p = 4
	in, err := fault.NewInjector(&fault.Plan{Crashes: []fault.Crash{{Rank: 3, Marker: 2}}}, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	hooks := make([]*seqHooks, p)
	_, err = Run(Config{P: p, Fault: in, Hooks: func(pr *Proc) Interposer {
		hooks[pr.rank] = &seqHooks{t: t, p: pr}
		return hooks[pr.rank]
	}}, func(pr *Proc) {
		w, r := pr.World(), pr.Rank()
		next, prev := (r+1)%p, (r+p-1)%p
		w.Sendrecv(next, 1, 10, nil, prev, 1)
		w.Waitall(w.Isend(next, 2, 20, nil), w.Irecv(prev, 2))
		if r%2 == 0 {
			w.Send(next, 3, 30, nil)
			w.Recv(AnySource, 3)
		} else {
			w.Recv(AnySource, 3)
			w.Send(next, 3, 30, nil)
		}
		w.Barrier()
		w.Bcast(1, 40, nil)
		w.Reduce(2, 8, 1, OpSum)
		w.Allreduce(8, 1, OpSum)
		w.Gather(3, 16, nil)
		w.Allgather(16, nil)
		w.Scatter(1, 24, nil)
		w.Alltoall(32)
		pr.MarkerComm().Barrier() // marker 1: full membership
		pr.MarkerComm().Barrier() // marker 2: rank 3 crashes, survivors take the fault path
		pr.MarkerComm().Barrier() // marker 3: fault path again
	})
	if err != nil {
		t.Fatal(err)
	}

	// Rank 0's view: next = 1, prev = 3.
	const none = NoPeer
	type row struct {
		pre CallInfo
		// what the op filled in by the time Post ran
		bytes, matchedSrc int
	}
	ci := func(op OpCode, comm CommID, dest, src, root, tag, bytes int) CallInfo {
		return CallInfo{Op: op, Comm: comm, Dest: dest, Src: src, Root: root, Tag: tag, Bytes: bytes}
	}
	want := []row{
		{ci(OpSendrecv, CommWorld, 1, 3, none, 1, 10), 10, 3},
		{ci(OpIsend, CommWorld, 1, none, none, 2, 20), 20, 0},
		{ci(OpIrecv, CommWorld, none, 3, none, 2, 0), 0, 0},
		{ci(OpWait, CommWorld, none, none, none, 0, 0), 0, 0}, // the completed Isend
		{ci(OpWait, CommWorld, none, none, none, 0, 0), 20, 3},
		{ci(OpSend, CommWorld, 1, none, none, 3, 30), 30, 0},
		{ci(OpRecv, CommWorld, none, AnySource, none, 3, 0), 30, 3},
		{ci(OpBarrier, CommWorld, none, none, none, 0, 0), 0, 0},
		{ci(OpBcast, CommWorld, none, none, 1, 0, 40), 40, 0},
		{ci(OpBarrier, CommWorld, none, none, none, 0, 0), 0, 0}, // nested in Post(Bcast)
		{ci(OpReduce, CommWorld, none, none, 2, 0, 8), 8, 0},
		{ci(OpBarrier, CommWorld, none, none, none, 0, 0), 0, 0}, // nested in Pre(Reduce)
		{ci(OpAllreduce, CommWorld, none, none, 0, 0, 8), 8, 0},
		{ci(OpGather, CommWorld, none, none, 3, 0, 16), 16, 0},
		{ci(OpAllgather, CommWorld, none, none, 0, 0, 16), 16, 0},
		{ci(OpScatter, CommWorld, none, none, 1, 0, 24), 24, 0},
		{ci(OpAlltoall, CommWorld, none, none, none, 0, 32), 32, 0},
		{ci(OpBarrier, CommMarker, none, none, none, 0, 0), 0, 0},
		{ci(OpBarrier, CommMarker, none, none, none, 0, 0), 0, 0}, // fault-path marker barrier
		{ci(OpBarrier, CommMarker, none, none, none, 0, 0), 0, 0},
		{ci(OpFinalize, CommWorld, none, none, 0, 0, 0), 0, 0},
	}
	h := hooks[0]
	if len(h.pre) != len(want) || len(h.post) != len(want) {
		t.Fatalf("rank 0 saw %d Pre and %d Post calls, want %d each", len(h.pre), len(h.post), len(want))
	}
	// Post order differs from Pre order only around the op nested in
	// Pre(Reduce): the nested Barrier completes before the Reduce does.
	postOf := func(i int) int {
		switch {
		case want[i].pre.Op == OpReduce:
			return i + 1
		case i > 0 && want[i-1].pre.Op == OpReduce:
			return i - 1
		}
		return i
	}
	for i, w := range want {
		if h.pre[i] != w.pre {
			t.Errorf("op %d: Pre saw %+v, want %+v", i, h.pre[i], w.pre)
		}
		post := w.pre
		post.Bytes, post.MatchedSrc = w.bytes, w.matchedSrc
		if got := h.post[postOf(i)]; got != post {
			t.Errorf("op %d: Post saw %+v, want %+v", i, got, post)
		}
	}
	if got := len(hooks[3].post); got >= len(want) {
		t.Errorf("rank 3 crashed at marker 2 yet saw %d Post calls", got)
	}
}

// TestSendRecvDoNotAllocate: an untraced public Send, Recv or Sendrecv
// costs no heap allocation, whether the receive finds its message queued
// or parks and is handed it (the CallInfo is the rank's scratch value, a
// drained mailbox reuses its queue, and the hand-over slot and the
// parker are part of the mailbox).
func TestSendRecvDoNotAllocate(t *testing.T) {
	const runs = 200
	for _, tc := range []struct {
		name  string
		round func(w *Comm, rank, peer int)
	}{
		{"Send+Recv", func(w *Comm, rank, peer int) {
			if rank == 0 {
				w.Send(peer, 5, 64, nil)
				w.Recv(peer, 5)
			} else {
				w.Recv(peer, 5)
				w.Send(peer, 5, 64, nil)
			}
		}},
		{"Sendrecv", func(w *Comm, rank, peer int) {
			w.Sendrecv(peer, 5, 64, nil, peer, 5)
		}},
	} {
		var allocs float64
		run(t, 2, func(p *Proc) {
			w, peer := p.World(), 1-p.Rank()
			round := func() { tc.round(w, p.Rank(), peer) }
			for i := 0; i < 20; i++ {
				round() // size the mailboxes
			}
			if p.Rank() == 0 {
				allocs = testing.AllocsPerRun(runs, round)
			} else {
				for i := 0; i < runs+1; i++ { // AllocsPerRun warms up once
					round()
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%s under NopInterposer: %v allocs per round (both ranks), want 0", tc.name, allocs)
		}
	}
}
