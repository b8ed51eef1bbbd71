// Package replay reproduces ScalaReplay: it interprets a compressed
// application trace on-the-fly, re-issues the recorded MPI communication
// on the simulated runtime, and models computation as virtual sleeps of
// the recorded delta times.
//
// For clustered (Chameleon) traces, the trace of a single lead rank is
// replayed by *all* ranks of its cluster: each member walks the same
// nodes (its rank is in the cluster rank list), transposing relative
// end-point encodings to its own rank — possible because ScalaTrace's
// end-point encodings are location independent — while all other
// parameters are taken verbatim from the lead.
//
// A collective node runs on the world when its rank list covers the
// world, and otherwise on the communicator over that list (mpi.Group,
// one per distinct list), so a replay traced again records every
// collective it replays.
//
// Limitations: point-to-point traffic is issued on the world
// communicator (recorded communicator identities are not
// reconstructed), so traces whose sub-communicators reuse
// point-to-point tags across communicators could cross-match during
// replay; nonblocking receives are completed at their post point (Wait
// leaves are no-ops). The paper's workloads use neither pattern.
package replay

import (
	"fmt"

	"chameleon/internal/mpi"
	"chameleon/internal/ranklist"
	"chameleon/internal/trace"
	"chameleon/internal/vtime"
)

// replayTag offsets replayed point-to-point tags away from anything the
// tooling uses; recorded tags are preserved beneath it.
const replayTag = 1 << 30

// DeltaMode selects how replay draws computation times from the
// recorded delta histograms.
type DeltaMode int

// Delta modes.
const (
	// DeltaMean sleeps the histogram mean (the default; what the paper's
	// accuracy numbers use).
	DeltaMean DeltaMode = iota
	// DeltaMin sleeps the minimum — an optimistic lower bound.
	DeltaMin
	// DeltaMax sleeps the maximum — a pessimistic upper bound.
	DeltaMax
	// DeltaSampled draws deterministically from the histogram's bucket
	// distribution (probabilistic replay in the spirit of Wu et al.,
	// "Probabilistic communication and I/O tracing with deterministic
	// replay at scale").
	DeltaSampled
)

// Options configures a replay run.
type Options struct {
	// Model prices the simulated machine (vtime.Default() if zero).
	Model vtime.CostModel
	// Delta selects the computation-time draw (DeltaMean by default).
	Delta DeltaMode
}

// Result summarizes one replay.
type Result struct {
	// Time is the virtual makespan of the replay.
	Time vtime.Duration
	// Events is the number of dynamic events re-issued across ranks.
	Events uint64
	// Ledger aggregates per-category time across ranks.
	Ledger *vtime.Ledger
}

// Run replays the trace file on f.P simulated ranks with the default
// (mean-delta) options.
func Run(f *trace.File, model vtime.CostModel) (*Result, error) {
	return RunWith(f, Options{Model: model})
}

// RunWith replays the trace file under explicit options.
func RunWith(f *trace.File, opts Options) (*Result, error) {
	if (opts.Model == vtime.CostModel{}) {
		opts.Model = vtime.Default()
	}
	body, events, err := replayer(f, opts)
	if err != nil {
		return nil, err
	}
	res, err := mpi.Run(mpi.Config{P: f.P, Model: opts.Model}, body)
	if err != nil {
		return nil, err
	}
	var total uint64
	for _, e := range events {
		total += e
	}
	return &Result{Time: res.Makespan, Events: total, Ledger: res.AggregateLedger()}, nil
}

// Body returns the per-rank program RunWith replays f with, for a
// caller that runs it on f.P ranks of a runtime of its own (under a
// tracer or an observer). opts.Model is the caller's runtime's to set.
func Body(f *trace.File, opts Options) (func(*mpi.Proc), error) {
	body, _, err := replayer(f, opts)
	return body, err
}

// replayer validates f and builds its per-rank replay program, which
// leaves each rank's re-issued event count in the slice it returns
// beside it, one slot per rank.
func replayer(f *trace.File, opts Options) (func(*mpi.Proc), []uint64, error) {
	if len(f.Nodes) == 0 {
		return nil, nil, fmt.Errorf("replay: empty trace")
	}
	if err := f.Validate(); err != nil {
		return nil, nil, fmt.Errorf("replay: %w", err)
	}
	keys, members, err := numberGroups(f, mpi.GroupKeys)
	if err != nil {
		return nil, nil, err
	}
	events := make([]uint64, f.P)
	return func(p *mpi.Proc) {
		e := engine{
			p:          p,
			w:          p.World(),
			lastAnySrc: -1,
			mode:       opts.Delta,
			rng:        uint64(p.Rank())*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9,
			keys:       keys,
			members:    members,
			comms:      make([]*mpi.Comm, len(members)),
		}
		e.replaySeq(f.Nodes)
		events[p.Rank()] = e.events
	}, events, nil
}

// numberGroups numbers the rank lists of f's collective nodes over part
// of the world, once and before any rank runs: each distinct list is
// the key of one mpi.Group communicator, so every member builds the
// same one. It returns each such node's key and each key's ranks, and
// refuses a trace with more than limit lists.
func numberGroups(f *trace.File, limit int) (map[*trace.Node]int32, [][]int, error) {
	var tab ranklist.Table
	keys := make(map[*trace.Node]int32)
	var walk func(seq []*trace.Node)
	walk = func(seq []*trace.Node) {
		for _, n := range seq {
			switch {
			case n.IsLoop():
				walk(n.Body)
			case n.Ev.Op.IsCollective() && n.Ranks.Size() < f.P:
				keys[n] = tab.ID(n.Ranks, f.P)
			}
		}
	}
	walk(f.Nodes)
	if len(tab.Lists) > limit {
		return nil, nil, fmt.Errorf("replay: collectives over %d distinct rank lists, at most %d", len(tab.Lists), limit)
	}
	members := make([][]int, len(tab.Lists))
	for k, l := range tab.Lists {
		members[k] = l.Ranks()
	}
	return keys, members, nil
}

// engine is the per-rank trace interpreter.
type engine struct {
	p          *mpi.Proc
	w          *mpi.Comm
	lastAnySrc int
	events     uint64
	mode       DeltaMode
	rng        uint64
	// keys and members are numberGroups'; comms holds this rank's
	// Group communicators by key, each built at its first use.
	keys    map[*trace.Node]int32
	members [][]int
	comms   []*mpi.Comm
}

// comm returns the communicator node n replays on, the Group over n's
// rank list for a collective over part of the world and the world
// otherwise, and n's recorded root (a world rank) mapped into it: its
// position in the list, or 0 when it is not a member.
func (e *engine) comm(n *trace.Node) (*mpi.Comm, int) {
	root, _ := e.resolve(n.Ev.Dest)
	k, ok := e.keys[n]
	if !ok {
		return e.w, root
	}
	m := e.members[k]
	if e.comms[k] == nil {
		e.comms[k] = e.p.Group(int(k), m)
	}
	return e.comms[k], max(mpi.TreePos(m, root), 0)
}

// next is a deterministic per-rank pseudo-random step (splitmix64).
func (e *engine) next() uint64 {
	e.rng += 0x9e3779b97f4a7c15
	z := e.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// drawDelta picks the computation time for one event occurrence.
func (e *engine) drawDelta(n *trace.Node) vtime.Duration {
	h := n.Delta
	if h == nil || h.Count() == 0 {
		return 0
	}
	switch e.mode {
	case DeltaMin:
		return vtime.Duration(max(h.Min, 0))
	case DeltaMax:
		return vtime.Duration(max(h.Max, 0))
	case DeltaSampled:
		// Pick a bucket proportional to its count, then the geometric
		// middle of the bucket's value range, clamped to [min, max].
		target := e.next() % h.Count()
		v := h.Mean()
		var cum uint64
		h.EachBucket(func(i int, c uint64) bool {
			if cum += c; target >= cum {
				return true
			}
			v = 1
			if i > 0 {
				v = (int64(1) << uint(i-1)) + (int64(1)<<uint(i))/2
			}
			v = min(max(v, h.Min), h.Max)
			return false
		})
		return vtime.Duration(max(v, 0))
	default:
		return vtime.Duration(max(h.Mean(), 0))
	}
}

func (e *engine) replaySeq(seq []*trace.Node) {
	for _, n := range seq {
		e.replayNode(n)
	}
}

func (e *engine) replayNode(n *trace.Node) {
	if n.IsLoop() {
		iters := n.MeanIters()
		for i := uint64(0); i < iters; i++ {
			e.replaySeq(n.Body)
		}
		return
	}
	if !n.Ranks.Contains(e.p.Rank()) {
		return
	}
	// Simulate the computation that preceded the event.
	if d := e.drawDelta(n); d > 0 {
		e.p.Compute(d)
	}
	e.events++
	e.issue(n)
}

// resolve maps an end-point to a concrete peer rank for this replaying
// rank, clamped into the world group.
func (e *engine) resolve(ep trace.Endpoint) (int, bool) {
	switch ep.Kind {
	case trace.EPReplyToLast:
		if e.lastAnySrc >= 0 {
			return e.lastAnySrc, true
		}
		return 0, false
	case trace.EPAnySource:
		return mpi.AnySource, true
	}
	return ep.ResolveMod(e.p.Rank(), e.p.Size())
}

func (e *engine) issue(n *trace.Node) {
	ev := n.Ev
	tag := replayTag | ev.Tag
	c, root := e.comm(n)
	switch ev.Op {
	case mpi.OpSend, mpi.OpIsend:
		if dest, ok := e.resolve(ev.Dest); ok {
			e.w.Send(dest, tag, ev.Bytes, nil)
		}
	case mpi.OpRecv, mpi.OpIrecv:
		// Nonblocking receives are replayed at their post point; the
		// matching Wait leaf is a no-op.
		if src, ok := e.resolve(ev.Src); ok {
			msg := e.w.Recv(src, tag)
			if src == mpi.AnySource {
				e.lastAnySrc = msg.Source
			}
		}
	case mpi.OpWait:
		// Completed by the Irecv replay above.
	case mpi.OpSendrecv:
		dest, okD := e.resolve(ev.Dest)
		src, okS := e.resolve(ev.Src)
		if okD && okS {
			msg := e.w.Sendrecv(dest, tag, ev.Bytes, nil, src, tag)
			if src == mpi.AnySource {
				e.lastAnySrc = msg.Source
			}
		}
	case mpi.OpBarrier:
		c.Barrier()
	case mpi.OpBcast:
		c.Bcast(root, ev.Bytes, nil)
	case mpi.OpReduce:
		c.Reduce(root, ev.Bytes, 0, mpi.OpSum)
	case mpi.OpAllreduce:
		c.Allreduce(ev.Bytes, 0, mpi.OpSum)
	case mpi.OpGather:
		c.Gather(root, ev.Bytes, nil)
	case mpi.OpAllgather:
		c.Allgather(ev.Bytes, nil)
	case mpi.OpScatter:
		c.Scatter(root, ev.Bytes, nil)
	case mpi.OpAlltoall:
		c.Alltoall(ev.Bytes)
	}
}

// Accuracy is the paper's replay-accuracy metric: ACC = 1 − |t−t′|/t,
// where t is the reference time (unclustered replay or application) and
// t′ the clustered replay time.
func Accuracy(t, tPrime vtime.Duration) float64 {
	if t == 0 {
		return 0
	}
	d := t - tPrime
	if d < 0 {
		d = -d
	}
	return 1 - float64(d)/float64(t)
}
