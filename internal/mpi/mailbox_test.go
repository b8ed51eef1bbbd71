package mpi

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"chameleon/internal/vtime"
)

// testRuntime is a hand-built runtime hosting ranks 0..hosted-1 of a
// world of p on the in-process transport, all active at clock 0, with no
// rank goroutines: tests drive the mailboxes themselves.
func testRuntime(p, hosted int) *Runtime {
	rt := &Runtime{p: p, model: vtime.Default(), tr: &inProcTransport{},
		mailboxes: make([]*mailbox, p), procs: make([]*Proc, p)}
	rt.gcond = sync.NewCond(&rt.gmu)
	for r := 0; r < hosted; r++ {
		rt.local = append(rt.local, r)
		rt.mailboxes[r] = newMailbox(rt, r)
		rt.procs[r] = &Proc{rank: r, rt: rt, Clock: &vtime.Clock{}, Ledger: &vtime.Ledger{}}
	}
	return rt
}

// block puts a mailbox in the condition its rank leaves it in when a
// receive on want has to wait: parked for a specific source, blocked
// with its candidates queued for a wildcard.
func block(mb *mailbox, want pattern) {
	mb.mu.Lock()
	mb.state, mb.want, mb.parked = stateBlocked, want, want.source != AnySource
	mb.mu.Unlock()
}

// awaitBlocked yields until mb's rank reads as blocked (parked, when it
// waits on a specific source): the event the tests below wait on in
// place of a sleep.
func awaitBlocked(mb *mailbox) {
	for {
		mb.mu.Lock()
		ok := mb.state == stateBlocked && (mb.parked || mb.want.source == AnySource)
		mb.mu.Unlock()
		if ok {
			return
		}
		runtime.Gosched()
	}
}

// queued lists the payloads in mb's queue, in queue order.
func queued(mb *mailbox) []any {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	var out []any
	for i := range mb.msgs {
		out = append(out, mb.msgs[i].payload)
	}
	return out
}

// goTake runs fn (a take or takeAny) as the rank's goroutine would and
// delivers what it returned, or the value it panicked with.
func goTake(fn func() message) <-chan any {
	out := make(chan any, 1)
	go func() {
		defer func() {
			if e := recover(); e != nil {
				out <- e
			}
		}()
		out <- fn()
	}()
	return out
}

func msgOn(comm CommID, source, tag int, payload string) message {
	return message{comm: comm, source: source, tag: tag, payload: payload}
}

// TestMailboxProtocol is the deposit/take protocol as a table. A case
// queues `before`, then a rank takes `want`. If that parks it, each
// `miss` is deposited and must queue behind the others while the rank
// stays parked, and `hit` must be handed over: it is what take returns,
// and it never shows in the queue. `after` is deposited once take has
// returned, the rank active again; the takes in `then` are all queue
// hits; `left` is what the queue holds at the end, in order.
func TestMailboxProtocol(t *testing.T) {
	type next struct {
		want pattern
		get  string
	}
	cases := []struct {
		name   string
		before []message
		want   pattern
		miss   []message
		hit    *message
		get    string
		after  []message
		then   []next
		left   []any
	}{
		{
			name: "parked through deposits on another comm, source or tag",
			want: pattern{CommWorld, 1, 7},
			miss: []message{msgOn(CommInternal, 1, 7, "comm"), msgOn(CommWorld, 2, 7, "source"), msgOn(CommWorld, 1, 8, "tag")},
			hit:  &message{comm: CommWorld, source: 1, tag: 7, payload: "match"},
			get:  "match",
			left: []any{"comm", "source", "tag"},
		},
		{
			name:   "oldest queued match wins, the queue keeps the rest in order",
			before: []message{msgOn(CommWorld, 2, 7, "other"), msgOn(CommWorld, 1, 7, "first"), msgOn(CommWorld, 1, 7, "second")},
			want:   pattern{CommWorld, 1, 7},
			get:    "first",
			left:   []any{"other", "second"},
		},
		{
			name:  "same source and tag, first handed over: FIFO",
			want:  pattern{CommWorld, 1, 7},
			hit:   &message{comm: CommWorld, source: 1, tag: 7, payload: "first"},
			get:   "first",
			after: []message{msgOn(CommWorld, 1, 7, "second"), msgOn(CommWorld, 1, 7, "third")},
			then:  []next{{pattern{CommWorld, 1, 7}, "second"}},
			left:  []any{"third"},
		},
		{
			name:   "same source and tag, both queued: FIFO",
			before: []message{msgOn(CommWorld, 1, 7, "first"), msgOn(CommWorld, 1, 7, "second")},
			want:   pattern{CommWorld, 1, 7},
			get:    "first",
			then:   []next{{pattern{CommWorld, 1, 7}, "second"}},
		},
		{
			name:   "AnyTag with a specific source is handed over",
			before: []message{msgOn(CommWorld, 2, 5, "other source")},
			want:   pattern{CommWorld, 1, AnyTag},
			miss:   []message{msgOn(CommInternal, 1, 5, "other comm")},
			hit:    &message{comm: CommWorld, source: 1, tag: 5, payload: "any tag"},
			get:    "any tag",
			left:   []any{"other source", "other comm"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt := testRuntime(3, 1)
			mb := rt.mailboxes[0]
			for _, m := range tc.before {
				mb.deposit(m)
			}
			got := goTake(func() message { return mb.take(tc.want) })
			if tc.hit != nil {
				awaitBlocked(mb)
				for i, m := range tc.miss {
					mb.deposit(m)
					mb.mu.Lock()
					parked, n := mb.parked, len(mb.msgs)
					mb.mu.Unlock()
					if !parked || n != len(tc.before)+i+1 {
						t.Fatalf("after non-matching deposit %d: parked=%v with %d queued, want parked with %d", i, parked, n, len(tc.before)+i+1)
					}
				}
				select {
				case v := <-got:
					t.Fatalf("take returned %v before its match was deposited", v)
				default:
				}
				before := mb.pending()
				mb.deposit(*tc.hit)
				if n := mb.pending(); n != before {
					t.Fatalf("the matching deposit queued (%d -> %d): want it handed over", before, n)
				}
			}
			if m, ok := (<-got).(message); !ok || m.payload != tc.get {
				t.Fatalf("take returned %v, want payload %q", m, tc.get)
			}
			for _, m := range tc.after {
				mb.deposit(m)
			}
			for _, n := range tc.then {
				if m := mb.take(n.want); m.payload != n.get {
					t.Fatalf("next take returned %v, want payload %q", m.payload, n.get)
				}
			}
			if q := queued(mb); !reflect.DeepEqual(q, tc.left) {
				t.Fatalf("queue holds %v, want %v", q, tc.left)
			}
			mb.mu.Lock()
			state, parked := mb.state, mb.parked
			mb.mu.Unlock()
			if state != stateActive || parked {
				t.Fatalf("after its takes the rank reads state=%v parked=%v, want active", state, parked)
			}
		})
	}
}

// TestMailboxWildcardNeverHandedOver: a rank blocked in takeAny is not
// parked. Its candidate queues and stays queued for as long as the match
// is unsafe (rank 1, active at clock 0, could still send something
// earlier); once rank 1 is done, the matcher takes it itself.
func TestMailboxWildcardNeverHandedOver(t *testing.T) {
	rt := testRuntime(2, 2)
	mb := rt.mailboxes[0]
	want := pattern{CommWorld, AnySource, 3}
	got := goTake(func() message { return rt.takeAny(0, mb, want) })
	awaitBlocked(mb)
	rt.depositLocal(0, message{comm: CommWorld, source: 1, tag: 3, arrive: 1 << 30, payload: "late"})
	mb.mu.Lock()
	state, parked, n := mb.state, mb.parked, len(mb.msgs)
	mb.mu.Unlock()
	if state != stateBlocked || parked || n != 1 {
		t.Fatalf("after a matching deposit: state=%v parked=%v queued=%d, want blocked, not parked, 1 queued", state, parked, n)
	}
	select {
	case v := <-got:
		t.Fatalf("takeAny returned %v while rank 1 could still send an earlier message", v)
	default:
	}
	rt.setState(1, stateDone)
	if m, ok := (<-got).(message); !ok || m.payload != "late" {
		t.Fatalf("takeAny returned %v, want the queued message", m)
	}
	if mb.pending() != 0 {
		t.Fatalf("%d messages left queued", mb.pending())
	}
}

// TestMailboxAbort: an abort unwinds a parked rank with errAborted, and
// the token an abort leaves in the parker of a rank that was not parked
// costs the next take one extra look and nothing else.
func TestMailboxAbort(t *testing.T) {
	rt := testRuntime(2, 1)
	mb := rt.mailboxes[0]
	want := pattern{CommWorld, 1, 7}

	got := goTake(func() message { return mb.take(want) })
	awaitBlocked(mb)
	rt.abortLocal()
	if v := <-got; v != errAborted {
		t.Fatalf("parked take unwound with %v, want errAborted", v)
	}
	mb.mu.Lock()
	parked := mb.parked
	mb.mu.Unlock()
	if parked {
		t.Fatalf("the unwound rank still reads as parked: a later deposit would be handed to nobody")
	}
	if v := <-goTake(func() message { return mb.take(want) }); v != errAborted {
		t.Fatalf("take in an aborted run unwound with %v, want errAborted", v)
	}

	// A second abort with nobody parked leaves its token behind. (No real
	// run resumes after an abort; clearing the flag isolates the token.)
	rt.abortLocal()
	rt.aborted.Store(false)
	got = goTake(func() message { return mb.take(want) })
	awaitBlocked(mb)
	mb.deposit(msgOn(CommWorld, 1, 8, "other tag"))
	mb.deposit(msgOn(CommWorld, 1, 7, "match"))
	if m, ok := (<-got).(message); !ok || m.payload != "match" {
		t.Fatalf("take after a stale token returned %v, want the matching message", m)
	}
	// Whichever token woke that take, at most one is left: the next park
	// still waits for its own message.
	got = goTake(func() message { return mb.take(want) })
	awaitBlocked(mb)
	mb.deposit(msgOn(CommWorld, 1, 7, "again"))
	if m, ok := (<-got).(message); !ok || m.payload != "again" {
		t.Fatalf("second take after a stale token returned %v, want the matching message", m)
	}
	if q := queued(mb); !reflect.DeepEqual(q, []any{"other tag"}) {
		t.Fatalf("queue holds %v, want only the non-matching message", q)
	}
}

// TestInfluenceBoundConcurrentScans hammers the two ways a specific-
// source receive completes with bound scans from other goroutines, as
// wildcard matchers and peer bound requests make them. Rank 0, at clock
// 100, is the only rank that counts, so a scan answers "100+alpha"
// exactly when it reads rank 0 as active and "no bound" exactly when it
// reads it as blocked with nothing pending.
//
//   - A rank taking a queued message is never anything but active: no
//     scan may see it blocked, with the message pending (a bound of
//     900+alpha) or without.
//   - A parked rank is active from the critical section that hands it
//     its message: between that deposit returning and the rank being
//     told to receive again, no scan may find it blocked with nothing
//     pending — the assertion PR 16 added for a rank whose message has
//     arrived. It trips if the receiver is left to store the state once
//     it wakes; and state being a plain field under the mailbox lock,
//     moving either store (deposit's or takeAny's) after the unlock is a
//     data race that -race reports here.
func TestInfluenceBoundConcurrentScans(t *testing.T) {
	const rounds, scanners = 2000, 4
	rt := testRuntime(2, 2)
	rt.setState(1, stateDone)
	rt.procs[0].Clock.AdvanceTo(100)
	active := 100 + vtime.Time(rt.model.Alpha)
	mb, want := rt.mailboxes[0], pattern{CommWorld, 1, 7}
	msg := message{comm: CommWorld, source: 1, tag: 7, arrive: 900}

	// delivered is odd while rank 0 must read as active; scans counts
	// completed scans so a phase is held until some fell inside it.
	var delivered, scans atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < scanners; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				phase := delivered.Load()
				b, ok := rt.influenceBound(-1)
				if ok && b != active {
					t.Errorf("scan saw rank 0 bounded by %v: blocked with its message pending", b)
					return
				}
				if !ok && phase%2 == 1 && delivered.Load() == phase {
					t.Errorf("scan saw rank 0 blocked with nothing pending after its message was delivered")
					return
				}
				scans.Add(1)
			}
		}()
	}
	hold := func() { // until a scan has run start to end inside this phase
		for n := scans.Load(); scans.Load() < n+2 && !t.Failed(); {
			runtime.Gosched()
		}
	}

	delivered.Store(1) // queue hits: active throughout
	for i := 0; i < rounds; i++ {
		mb.deposit(msg)
		mb.take(want)
	}
	hold()

	for i := 0; i < rounds/10 && !t.Failed(); i++ {
		delivered.Add(1) // even: the rank parks, "no bound" is the truth
		got := goTake(func() message { return mb.take(want) })
		awaitBlocked(mb)
		mb.deposit(msg)
		delivered.Add(1) // odd: handed over
		hold()
		<-got
	}
	close(stop)
	wg.Wait()
}
