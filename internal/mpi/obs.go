package mpi

import (
	"strings"

	"chameleon/internal/obs"
	"chameleon/internal/vtime"
)

// opMetrics holds the runtime's pre-fetched metric handles so the
// per-operation hot path never touches the registry map. The handles
// are shared across ranks (they are atomics); the struct is built once
// per Run.
type opMetrics struct {
	calls [numOpCodes]*obs.Counter
	bytes [numOpCodes]*obs.Counter
	// blocked time (call entry to completion) split by op class.
	p2pBlocked  *obs.Histogram
	collBlocked *obs.Histogram
	// application compute.
	computeCalls *obs.Counter
	computeNs    *obs.Histogram
	// marker barriers (Chameleon's reserved communicator).
	markerBarriers *obs.Counter
	// fault injection: perturbation draws that fired and crash-stops.
	faultDelays  *obs.Counter
	faultDelayNs *obs.Histogram
	crashes      *obs.Counter
}

// newOpMetrics registers the mpi_* metric series. It always returns a
// usable struct: with metrics disabled every handle is nil, and nil
// handles absorb updates, so call sites never guard on the struct.
func newOpMetrics(o *obs.Observer) *opMetrics {
	m := &opMetrics{
		p2pBlocked:     o.Histogram("mpi_p2p_blocked_vtime_ns"),
		collBlocked:    o.Histogram("mpi_collective_blocked_vtime_ns"),
		computeCalls:   o.Counter("mpi_compute_calls_total"),
		computeNs:      o.Histogram("mpi_compute_vtime_ns"),
		markerBarriers: o.Counter("mpi_marker_barrier_total"),
		faultDelays:    o.Counter("mpi_fault_delays_total"),
		faultDelayNs:   o.Histogram("mpi_fault_delay_vtime_ns"),
		crashes:        o.Counter("mpi_fault_crashes_total"),
	}
	for op := OpCode(1); op < numOpCodes; op++ {
		name := strings.ToLower(op.String())
		m.calls[op] = o.Counter("mpi_" + name + "_calls_total")
		m.bytes[op] = o.Counter("mpi_" + name + "_bytes_total")
	}
	return m
}

// opBegin runs the Pre interposer hook and snapshots the clock; paired
// with opEnd it brackets every public operation. For traced collectives
// it also installs an op-derived causal context (saving any outer one)
// so every hop edge of the collective carries an instance name even when
// no layer above named it explicitly.
//
// The CallInfo handed to the hooks is the rank's scratch value for this
// nesting depth, so a public operation allocates nothing; a hook that
// itself issues a public op (AutoMarker's Post enters the marker
// barrier) gets the next slot, not the one its caller is still reading.
func (p *Proc) opBegin(call CallInfo) (*CallInfo, vtime.Time) {
	if p.opDepth == len(p.calls) {
		p.calls = append(p.calls, new(CallInfo))
	}
	ci := p.calls[p.opDepth]
	p.opDepth++
	*ci = call
	p.hooks.Pre(ci)
	if p.rt.causal != nil {
		p.opPrevName, p.opPrevSeq = p.ctxName, p.ctxSeq
		switch {
		case ci.Marker():
			p.ctxName, p.ctxSeq = "marker", p.markerSeq
		case ci.Op.IsCollective():
			p.ctxName, p.ctxSeq = strings.ToLower(ci.Op.String()), p.collSeq[ci.Comm]
		}
	}
	return ci, p.Clock.Now()
}

// opEnd records the operation into the observability layer (counts,
// bytes, blocked virtual time, a timeline span) and then runs the Post
// interposer hook. The span is taken before Post so tracing-layer work
// triggered by the hook (recording, marker processing) books onto its
// own spans rather than inflating the communication's.
func (p *Proc) opEnd(ci *CallInfo, start vtime.Time) {
	// Heartbeat for live telemetry: any completed operation proves the
	// rank is alive.
	p.rt.progress.Op(p.rank)
	if o := p.rt.obs; o != nil {
		end := p.Clock.Now()
		m := p.rt.met
		m.calls[ci.Op].Inc()
		if ci.Bytes > 0 {
			m.bytes[ci.Op].Add(uint64(ci.Bytes))
		}
		switch {
		case ci.Marker():
			m.markerBarriers.Inc()
		case ci.Op.IsCollective():
			m.collBlocked.Observe(int64(end - start))
		case ci.Op.IsPointToPoint():
			m.p2pBlocked.Observe(int64(end - start))
		}
		name, cat := ci.Op.String(), obs.CatP2P
		switch {
		case ci.Marker():
			name, cat = "marker", obs.CatMarker
		case ci.Op.IsCollective():
			cat = obs.CatColl
		}
		o.Span(p.rank, name, cat, start, end)
	}
	if p.rt.causal != nil {
		// Restore the outer context before Post so tracing-layer work the
		// hook triggers (marker processing, clustering) starts clean.
		p.ctxName, p.ctxSeq = p.opPrevName, p.opPrevSeq
	}
	p.hooks.Post(ci)
	p.opDepth--
}

// overheadSpan maps a ledger category to its timeline (name, cat) pair.
func overheadSpan(c vtime.Category) (string, string) {
	switch c {
	case vtime.CatMarker:
		return "vote", obs.CatMarker
	case vtime.CatCluster:
		return "cluster", obs.CatClustering
	default:
		return c.String(), obs.CatTracer
	}
}
