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
// Limitations: all replayed traffic is issued on the world communicator
// (recorded communicator identities are not reconstructed), so traces
// whose sub-communicators reuse point-to-point tags across communicators
// could cross-match during replay; nonblocking receives are completed at
// their post point (Wait leaves are no-ops). The paper's workloads use
// neither pattern.
package replay

import (
	"fmt"
	"sort"

	"chameleon/internal/mpi"
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
	var events [1 << 12]uint64 // per-rank counters, bounded
	body, err := replayer(f, opts, events[:])
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
	return replayer(f, opts, nil)
}

// replayer validates f and builds its per-rank replay program, which
// leaves each rank's re-issued event count in events when it has a
// slot there.
func replayer(f *trace.File, opts Options, events []uint64) (func(*mpi.Proc), error) {
	if len(f.Nodes) == 0 {
		return nil, fmt.Errorf("replay: empty trace")
	}
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	// Preorder node identities, shared by all ranks: collective nodes
	// covering only part of the world (traces from runs with crashed
	// ranks) are replayed as group collectives over exactly their rank
	// list, and every member must derive the same tag for the same node
	// occurrence.
	ids := make(map[*trace.Node]int)
	var number func(seq []*trace.Node)
	number = func(seq []*trace.Node) {
		for _, n := range seq {
			ids[n] = len(ids)
			if n.IsLoop() {
				number(n.Body)
			}
		}
	}
	number(f.Nodes)
	return func(p *mpi.Proc) {
		e := engine{
			p:          p,
			w:          p.World(),
			lastAnySrc: -1,
			mode:       opts.Delta,
			rng:        uint64(p.Rank())*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9,
			ids:        ids,
			occ:        make(map[*trace.Node]int),
		}
		e.replaySeq(f.Nodes)
		if p.Rank() < len(events) {
			events[p.Rank()] = e.events
		}
	}, nil
}

// engine is the per-rank trace interpreter.
type engine struct {
	p          *mpi.Proc
	w          *mpi.Comm
	lastAnySrc int
	events     uint64
	mode       DeltaMode
	rng        uint64
	// ids assigns shared preorder identities; occ counts this rank's
	// replays per node. Members of a node's rank list replay it the same
	// number of times (loop counts are node-global), so (id, occ) derives
	// matching group-collective tags on every member.
	ids map[*trace.Node]int
	occ map[*trace.Node]int
}

// members returns the node's sorted rank list when it covers only part
// of the world (retired ranks), nil for full coverage.
func (e *engine) members(n *trace.Node) []int {
	if n.Ranks.Size() >= e.p.Size() {
		return nil
	}
	m := append([]int(nil), n.Ranks.Ranks()...)
	sort.Ints(m)
	return m
}

// groupTag derives this occurrence's tag block for a partial-coverage
// collective node (bits 0-1 left free for the helpers' sub-tags).
func (e *engine) groupTag(n *trace.Node) int {
	occ := e.occ[n]
	e.occ[n] = occ + 1
	return 1<<40 | e.ids[n]<<18 | (occ&0xffff)<<2
}

// rootFirst reorders members so the group helpers' root (position 0) is
// the recorded collective root.
func rootFirst(m []int, root int) []int {
	if mpi.TreePos(m, root) <= 0 {
		return m
	}
	out := make([]int, 0, len(m))
	out = append(out, root)
	for _, r := range m {
		if r != root {
			out = append(out, r)
		}
	}
	return out
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
		return vtime.Duration(max64(h.Min, 0))
	case DeltaMax:
		return vtime.Duration(max64(h.Max, 0))
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
			if v < h.Min {
				v = h.Min
			}
			if v > h.Max {
				v = h.Max
			}
			return false
		})
		return vtime.Duration(max64(v, 0))
	default:
		return vtime.Duration(max64(h.Mean(), 0))
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
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
		if m := e.members(n); m != nil {
			mpi.GroupAllreduceU64(e.p, m, e.groupTag(n), 0, mpi.OpSum)
		} else {
			e.w.Barrier()
		}
	case mpi.OpBcast:
		root, _ := e.resolve(ev.Dest)
		if m := e.members(n); m != nil {
			mpi.GroupBcastObj(e.p, rootFirst(m, root), e.groupTag(n), nil, ev.Bytes)
		} else {
			e.w.Bcast(root, ev.Bytes, nil)
		}
	case mpi.OpReduce:
		root, _ := e.resolve(ev.Dest)
		if m := e.members(n); m != nil {
			mpi.GroupReduceU64(e.p, rootFirst(m, root), e.groupTag(n), 0, mpi.OpSum)
		} else {
			e.w.Reduce(root, ev.Bytes, 0, mpi.OpSum)
		}
	case mpi.OpAllreduce:
		if m := e.members(n); m != nil {
			mpi.GroupAllreduceU64(e.p, m, e.groupTag(n), 0, mpi.OpSum)
		} else {
			e.w.Allreduce(ev.Bytes, 0, mpi.OpSum)
		}
	case mpi.OpGather:
		root, _ := e.resolve(ev.Dest)
		if m := e.members(n); m != nil {
			mpi.GroupGatherObj(e.p, rootFirst(m, root), e.groupTag(n), ev.Bytes, nil)
		} else {
			e.w.Gather(root, ev.Bytes, nil)
		}
	case mpi.OpAllgather:
		if m := e.members(n); m != nil {
			tag := e.groupTag(n)
			mpi.GroupGatherObj(e.p, m, tag, ev.Bytes, nil)
			mpi.GroupBcastObj(e.p, m, tag|1, nil, ev.Bytes*len(m))
		} else {
			e.w.Allgather(ev.Bytes, nil)
		}
	case mpi.OpScatter:
		root, _ := e.resolve(ev.Dest)
		if m := e.members(n); m != nil {
			mpi.GroupScatter(e.p, rootFirst(m, root), e.groupTag(n), ev.Bytes)
		} else {
			e.w.Scatter(root, ev.Bytes, nil)
		}
	case mpi.OpAlltoall:
		if m := e.members(n); m != nil {
			mpi.GroupAlltoall(e.p, m, e.groupTag(n), ev.Bytes)
		} else {
			e.w.Alltoall(ev.Bytes)
		}
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
