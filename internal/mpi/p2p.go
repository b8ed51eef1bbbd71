package mpi

import (
	"fmt"

	"chameleon/internal/obs"
	"chameleon/internal/vtime"
)

// Message is a received point-to-point message.
type Message struct {
	Source  int // communicator rank of the sender
	Tag     int
	Bytes   int
	Payload any
	// Arrive is the virtual time the message became available.
	Arrive vtime.Time
}

// --- raw (untraced) layer -------------------------------------------------

// rawSend deposits a message carrying payload in dest's mailbox.
func (c *Comm) rawSend(dest, tag, bytes int, payload any) {
	c.send(dest, tag, message{bytes: bytes, payload: payload})
}

// send deposits msg in dest's mailbox. The caller fills the body (bytes
// and the payload or scalar slot); send stamps every header field, so a
// received message can be forwarded as it is. Eager protocol: the sender
// is charged only its injection overhead (alpha); the transfer completes
// at sendTime + PtoP(bytes) on the receiver side.
func (c *Comm) send(dest, tag int, msg message) {
	if dest < 0 || dest >= len(c.group) {
		panic(fmt.Sprintf("mpi: rank %d send to invalid rank %d (comm %d)", c.self, dest, c.id))
	}
	rt := c.p.rt
	m := rt.model
	// The clock moves only after the deposit: until the message is
	// visible in the destination mailbox this rank reads as active at
	// its pre-send clock, whose influence bound (sendAt) cannot exceed
	// the message's arrival.
	sendAt := c.p.Clock.Now() + vtime.Time(m.Alpha)
	msg.comm, msg.source, msg.tag = c.id, c.self, tag
	msg.arrive = sendAt + vtime.Time(m.PtoP(msg.bytes)-m.Alpha)
	msg.origin, msg.seq, msg.sendVT = 0, 0, 0
	if rt.causal != nil {
		c.p.sendSeq++
		msg.origin = c.p.rank
		msg.seq = c.p.sendSeq
		msg.sendVT = sendAt
	}
	rt.tr.deposit(c.worldRank(dest), msg)
	c.p.Clock.Advance(m.Alpha)
}

// rawRecv blocks until a matching message is available and returns it
// with its value as an interface.
func (c *Comm) rawRecv(source, tag int) Message {
	msg := c.recv(source, tag)
	return Message{Source: msg.source, Tag: msg.tag, Bytes: msg.bytes, Payload: msg.value(), Arrive: msg.arrive}
}

// recv blocks until a matching message is available and advances the
// receiver clock to the message's arrival time. Wildcard receives match
// conservatively (see Runtime.takeAny) so virtual-time order does not
// depend on goroutine scheduling.
func (c *Comm) recv(source, tag int) message {
	if source != AnySource && (source < 0 || source >= len(c.group)) {
		panic(fmt.Sprintf("mpi: rank %d recv from invalid rank %d (comm %d)", c.self, source, c.id))
	}
	rt := c.p.rt
	self := c.worldRank(c.self)
	blockStart := c.p.Clock.Now()
	// The mailbox records the rank as blocked if it has to wait and
	// returns it active: there is no state to set on either side.
	want := pattern{c.id, source, tag}
	var msg message
	if source == AnySource {
		msg = rt.takeAny(self, rt.mailboxes[self], want)
	} else {
		msg = rt.mailboxes[self].take(want)
	}
	c.p.Clock.AdvanceTo(msg.arrive)
	c.p.Clock.Advance(rt.model.Alpha) // receive-side software overhead
	if rt.causal != nil && msg.seq != 0 {
		// The receiver records the full matched edge: the sender's
		// piggybacked stamp plus local wait accounting. Edges always land
		// in the receiver's own row, so the store needs no locking.
		wait := int64(msg.arrive - blockStart)
		if wait < 0 {
			wait = 0 // message was already buffered; no blocked time
		}
		rt.causal.Record(obs.Edge{
			From: msg.origin, To: self, Seq: msg.seq,
			SendVT: int64(msg.sendVT), ArriveVT: int64(msg.arrive), RecvVT: int64(c.p.Clock.Now()),
			WaitVT: wait, Bytes: msg.bytes, Comm: int32(msg.comm), Tag: msg.tag,
			Ctx: c.p.ctxName, CtxSeq: c.p.ctxSeq,
		})
	}
	return msg
}

// RawSend sends without interposition (tracing-layer internal traffic).
// It always travels on CommInternal so it can never match application
// receives.
func (c *Comm) RawSend(dest, tag, bytes int, payload any) {
	internal := Comm{p: c.p, id: CommInternal, group: c.group, self: c.self}
	internal.rawSend(dest, tag, bytes, payload)
}

// RawRecv receives tracing-layer internal traffic.
func (c *Comm) RawRecv(source, tag int) Message {
	internal := Comm{p: c.p, id: CommInternal, group: c.group, self: c.self}
	return internal.rawRecv(source, tag)
}

// --- public (traced) layer ------------------------------------------------

// Send sends bytes (payload optional) to dest with tag.
func (c *Comm) Send(dest, tag, bytes int, payload any) {
	ci, start := c.p.opBegin(CallInfo{Op: OpSend, Comm: c.id, Dest: dest, Src: NoPeer, Root: NoPeer, Tag: tag, Bytes: bytes})
	c.rawSend(dest, tag, bytes, payload)
	c.p.opEnd(ci, start)
}

// Recv blocks for a message from source (or AnySource) with tag (or
// AnyTag).
func (c *Comm) Recv(source, tag int) Message {
	ci, start := c.p.opBegin(CallInfo{Op: OpRecv, Comm: c.id, Dest: NoPeer, Src: source, Root: NoPeer, Tag: tag})
	msg := c.rawRecv(source, tag)
	ci.Bytes = msg.Bytes
	ci.MatchedSrc = msg.Source
	c.p.opEnd(ci, start)
	return msg
}

// Request is a handle on a nonblocking operation.
type Request struct {
	comm   *Comm
	op     OpCode
	source int
	tag    int
	done   bool
	msg    Message
}

// Isend starts a nonblocking send. The simulated runtime is eager, so
// the send completes immediately; Wait on the returned request is a
// no-op that exists for program-shape fidelity.
func (c *Comm) Isend(dest, tag, bytes int, payload any) *Request {
	ci, start := c.p.opBegin(CallInfo{Op: OpIsend, Comm: c.id, Dest: dest, Src: NoPeer, Root: NoPeer, Tag: tag, Bytes: bytes})
	c.rawSend(dest, tag, bytes, payload)
	c.p.opEnd(ci, start)
	return &Request{comm: c, op: OpIsend, done: true}
}

// Irecv posts a nonblocking receive; the match happens at Wait.
func (c *Comm) Irecv(source, tag int) *Request {
	ci, start := c.p.opBegin(CallInfo{Op: OpIrecv, Comm: c.id, Dest: NoPeer, Src: source, Root: NoPeer, Tag: tag})
	c.p.opEnd(ci, start)
	return &Request{comm: c, op: OpIrecv, source: source, tag: tag}
}

// Wait completes a request, returning the received message for Irecv.
func (c *Comm) Wait(r *Request) Message {
	ci, start := c.p.opBegin(CallInfo{Op: OpWait, Comm: c.id, Dest: NoPeer, Src: NoPeer, Root: NoPeer})
	if !r.done {
		r.msg = c.rawRecv(r.source, r.tag)
		r.done = true
		ci.Bytes = r.msg.Bytes
		ci.MatchedSrc = r.msg.Source
	}
	c.p.opEnd(ci, start)
	return r.msg
}

// Waitall completes a set of requests.
func (c *Comm) Waitall(rs ...*Request) {
	for _, r := range rs {
		c.Wait(r)
	}
}

// Sendrecv performs a combined send and receive (the classic halo
// exchange primitive).
func (c *Comm) Sendrecv(dest, sendTag, sendBytes int, payload any, source, recvTag int) Message {
	ci, start := c.p.opBegin(CallInfo{Op: OpSendrecv, Comm: c.id, Dest: dest, Src: source, Root: NoPeer, Tag: sendTag, Bytes: sendBytes})
	c.rawSend(dest, sendTag, sendBytes, payload)
	msg := c.rawRecv(source, recvTag)
	ci.MatchedSrc = msg.Source
	c.p.opEnd(ci, start)
	return msg
}
