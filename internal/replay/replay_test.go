package replay

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"chameleon/internal/mpi"
	"chameleon/internal/ranklist"
	"chameleon/internal/sig"
	"chameleon/internal/trace"
	"chameleon/internal/tracegen"
	"chameleon/internal/vtime"
)

// runDeadline bounds a replay's wall time. It is a deadline, not a
// deadlock detector: a replay that has not finished by then fails the
// test with every goroutine's stack, so a replay that deadlocks (two
// ranks at different collectives) reads as a failure naming the waits
// instead of go test's ten-minute timeout.
const runDeadline = 20 * time.Second

// runWithin replays f under RunWith and fails the test with every
// goroutine's stack if the replay has not returned within runDeadline.
// The stuck replay's goroutines are left behind; the test binary is
// failing anyway.
func runWithin(t testing.TB, f *trace.File, opts Options) (*Result, error) {
	t.Helper()
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := RunWith(f, opts)
		done <- outcome{res, err}
	}()
	timer := time.NewTimer(runDeadline)
	defer timer.Stop()
	select {
	case o := <-done:
		return o.res, o.err
	case <-timer.C:
		buf := make([]byte, 1<<20)
		for {
			n := runtime.Stack(buf, true)
			if n < len(buf) {
				buf = buf[:n]
				break
			}
			buf = make([]byte, 2*len(buf))
		}
		t.Fatalf("replay did not finish within %v; goroutines:\n%s", runDeadline, buf)
		return nil, nil
	}
}

func mkEvent(op mpi.OpCode, site int) trace.Event {
	return trace.Event{
		Op:    op,
		Stack: sig.Stack(sig.Mix(uint64(site))),
		Comm:  mpi.CommWorld,
		Tag:   site,
		Bytes: 64,
	}
}

func TestReplayEmptyTrace(t *testing.T) {
	if _, err := runWithin(t, &trace.File{P: 2}, Options{}); err == nil {
		t.Fatalf("empty trace accepted")
	}
}

func TestReplayRingExchange(t *testing.T) {
	// A ring sendrecv loop, all ranks covered by one leaf: replay must
	// terminate (pairing is consistent) and re-issue P*iters events.
	const P = 6
	ev := mkEvent(mpi.OpSendrecv, 1)
	ev.Dest = trace.Relative(1)
	ev.Src = trace.Relative(-1)
	f := &trace.File{
		P: P,
		Nodes: []*trace.Node{
			trace.NewLoop(10, []*trace.Node{trace.NewLeaf(ev, tracegen.Span(0, P), int64(vtime.Millisecond))}),
		},
	}
	res, err := runWithin(t, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != P*10 {
		t.Fatalf("events = %d", res.Events)
	}
	// 10 iterations with 1ms compute each.
	if res.Time < 10*vtime.Millisecond {
		t.Fatalf("time = %v", res.Time)
	}
}

func TestReplayRanksFiltered(t *testing.T) {
	// Point-to-point nodes covering disjoint rank pairs: each rank
	// replays only the nodes whose rank list contains it.
	const P = 4
	send01 := mkEvent(mpi.OpSend, 1)
	send01.Dest = trace.Relative(1)
	recv01 := mkEvent(mpi.OpRecv, 1)
	recv01.Src = trace.Relative(-1)
	f := &trace.File{
		P: P,
		Nodes: []*trace.Node{
			trace.NewLeaf(send01, ranklist.FromRanks([]int{0, 2}), 0),
			trace.NewLeaf(recv01, ranklist.FromRanks([]int{1, 3}), 0),
		},
	}
	res, err := runWithin(t, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != 4 {
		t.Fatalf("events = %d, want 4", res.Events)
	}
}

func TestReplayCollectives(t *testing.T) {
	const P = 4
	ranks := tracegen.Span(0, P)
	bcast := mkEvent(mpi.OpBcast, 1)
	bcast.Dest = trace.Absolute(0)
	reduce := mkEvent(mpi.OpReduce, 2)
	reduce.Dest = trace.Absolute(2)
	allred := mkEvent(mpi.OpAllreduce, 3)
	gather := mkEvent(mpi.OpGather, 4)
	gather.Dest = trace.Absolute(0)
	allgather := mkEvent(mpi.OpAllgather, 5)
	alltoall := mkEvent(mpi.OpAlltoall, 6)
	barrier := mkEvent(mpi.OpBarrier, 7)
	scatter := mkEvent(mpi.OpScatter, 8)
	scatter.Dest = trace.Absolute(0)
	var nodes []*trace.Node
	for _, ev := range []trace.Event{bcast, reduce, allred, gather, allgather, alltoall, barrier, scatter} {
		nodes = append(nodes, trace.NewLeaf(ev, ranks, 1000))
	}
	f := &trace.File{P: P, Nodes: nodes}
	res, err := runWithin(t, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != uint64(P*len(nodes)) {
		t.Fatalf("events = %d", res.Events)
	}
}

// TestReplayPartialCollectives: collective nodes over part of the
// world replay on the communicator over their rank list, each node's
// recorded root mapped to its position there (or to the list's first
// rank when it is not a member), and nodes over equal lists share one.
func TestReplayPartialCollectives(t *testing.T) {
	const P = 5
	lists := []ranklist.List{ranklist.FromRanks([]int{1, 2, 3}), ranklist.FromRanks([]int{0, 4}), ranklist.FromRanks([]int{1, 2, 3})}
	var nodes []*trace.Node
	for i, l := range lists {
		for op := mpi.OpBarrier; op <= mpi.OpAlltoall; op++ {
			if !op.IsCollective() {
				continue
			}
			ev := mkEvent(op, 10*i+int(op))
			ev.Dest = trace.Absolute([]int{2, 4, 0}[i]) // at position 1, at position 1, not a member
			nodes = append(nodes, trace.NewLeaf(ev, l, 1000))
		}
	}
	f := &trace.File{P: P, Nodes: []*trace.Node{trace.NewLoop(3, nodes)}}
	_, members, err := numberGroups(f, mpi.GroupKeys)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]int{{1, 2, 3}, {0, 4}}; !reflect.DeepEqual(members, want) {
		t.Fatalf("numbered lists %v, want %v", members, want)
	}
	res, err := runWithin(t, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(3 * 8 * (3 + 2 + 3)); res.Events != want { // trips × collectives × members
		t.Fatalf("events = %d, want %d", res.Events, want)
	}
}

// TestReplayRefusesTooManyGroups: a trace whose collectives cover more
// distinct partial lists than there are Group keys is refused before
// any rank runs (a key space of 2 stands in for mpi.GroupKeys).
func TestReplayRefusesTooManyGroups(t *testing.T) {
	const P = 4
	var nodes []*trace.Node
	for i, ranks := range [][]int{{0, 1}, {2, 3}, {1, 2}, {0, 1}} {
		nodes = append(nodes, trace.NewLeaf(mkEvent(mpi.OpAllreduce, i), ranklist.FromRanks(ranks), 0))
	}
	f := &trace.File{P: P, Nodes: nodes}
	if _, _, err := numberGroups(f, 2); err == nil {
		t.Fatal("3 partial lists numbered with 2 keys")
	}
	if _, _, err := numberGroups(f, 3); err != nil {
		t.Fatal(err)
	}
	res, err := runWithin(t, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != 8 {
		t.Fatalf("events = %d, want 8", res.Events)
	}
}

// TestReplayCountsEveryRank: Result.Events counts the events of every
// rank, however many there are.
func TestReplayCountsEveryRank(t *testing.T) {
	const P = 4097
	f := &trace.File{P: P, Nodes: []*trace.Node{trace.NewLeaf(mkEvent(mpi.OpBarrier, 1), tracegen.Span(0, P), 0)}}
	res, err := runWithin(t, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != P {
		t.Fatalf("events = %d, want %d", res.Events, P)
	}
}

func TestReplayMasterWorker(t *testing.T) {
	// Wildcard receive + reply-to-last + absolute worker endpoints: the
	// clustered master/worker shape.
	const P = 4
	const rounds = 15
	recvAny := mkEvent(mpi.OpRecv, 1)
	recvAny.Src = trace.Endpoint{Kind: trace.EPAnySource}
	reply := mkEvent(mpi.OpSend, 2)
	reply.Dest = trace.Endpoint{Kind: trace.EPReplyToLast}
	request := mkEvent(mpi.OpSend, 3)
	request.Dest = trace.Absolute(0)
	request.Tag = 1 // must match the master's recv tag
	taskRecv := mkEvent(mpi.OpRecv, 4)
	taskRecv.Src = trace.Absolute(0)
	taskRecv.Tag = 2
	reply.Tag = 2

	workers := ranklist.FromRanks([]int{1, 2, 3})
	f := &trace.File{
		P:         P,
		Clustered: true,
		Nodes: []*trace.Node{
			trace.NewLoop(rounds*(P-1), []*trace.Node{
				trace.NewLeaf(recvAny, ranklist.SingleRank(0), 0),
				trace.NewLeaf(reply, ranklist.SingleRank(0), 0),
			}),
			trace.NewLoop(rounds, []*trace.Node{
				trace.NewLeaf(request, workers, int64(vtime.Millisecond)),
				trace.NewLeaf(taskRecv, workers, 0),
			}),
		},
	}
	res, err := runWithin(t, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(rounds*(P-1)*2 + rounds*(P-1)*2)
	if res.Events != want {
		t.Fatalf("events = %d, want %d", res.Events, want)
	}
}

func TestReplayModuloResolution(t *testing.T) {
	// A torus shift recorded as -1 must wrap for rank 0.
	const P = 4
	ev := mkEvent(mpi.OpSendrecv, 1)
	ev.Dest = trace.Relative(-1)
	ev.Src = trace.Relative(1)
	f := &trace.File{P: P, Nodes: []*trace.Node{trace.NewLeaf(ev, tracegen.Span(0, P), 0)}}
	res, err := runWithin(t, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != P {
		t.Fatalf("events = %d", res.Events)
	}
}

func TestReplayIrecvWait(t *testing.T) {
	const P = 2
	send := mkEvent(mpi.OpIsend, 1)
	send.Dest = trace.Relative(1)
	send.Tag = 5
	irecv := mkEvent(mpi.OpIrecv, 2)
	irecv.Src = trace.Relative(-1)
	irecv.Tag = 5
	wait := mkEvent(mpi.OpWait, 3)
	f := &trace.File{P: P, Nodes: []*trace.Node{
		trace.NewLeaf(send, ranklist.SingleRank(0), 0),
		trace.NewLeaf(irecv, ranklist.SingleRank(1), 0),
		trace.NewLeaf(wait, ranklist.SingleRank(1), 0),
	}}
	res, err := runWithin(t, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != 3 {
		t.Fatalf("events = %d", res.Events)
	}
}

func TestReplayUsesItersMean(t *testing.T) {
	// A filtered loop replays its histogram-mean trip count.
	const P = 2
	ev := mkEvent(mpi.OpAllreduce, 1)
	loop := trace.NewLoop(10, []*trace.Node{trace.NewLeaf(ev, tracegen.Span(0, P), 0)})
	other := trace.NewLoop(20, []*trace.Node{trace.NewLeaf(ev, tracegen.Span(0, P), 0)})
	trace.MergeInto(loop, other, true) // iters histogram {10,20} -> mean 15
	f := &trace.File{P: P, Filter: true, Nodes: []*trace.Node{loop}}
	res, err := runWithin(t, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != 15*P {
		t.Fatalf("events = %d, want %d", res.Events, 15*P)
	}
}

func TestAccuracyMetric(t *testing.T) {
	if got := Accuracy(100, 90); got != 0.9 {
		t.Fatalf("acc = %v", got)
	}
	if got := Accuracy(100, 110); got != 0.9 {
		t.Fatalf("acc = %v (overshoot)", got)
	}
	if got := Accuracy(100, 100); got != 1 {
		t.Fatalf("acc = %v", got)
	}
	if got := Accuracy(0, 50); got != 0 {
		t.Fatalf("acc = %v (zero ref)", got)
	}
}

func TestReplayDeterministic(t *testing.T) {
	const P = 5
	ev := mkEvent(mpi.OpSendrecv, 1)
	ev.Dest = trace.Relative(1)
	ev.Src = trace.Relative(-1)
	f := &trace.File{P: P, Nodes: []*trace.Node{
		trace.NewLoop(20, []*trace.Node{trace.NewLeaf(ev, tracegen.Span(0, P), 5000)}),
	}}
	first, err := runWithin(t, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := runWithin(t, f, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if again.Time != first.Time {
			t.Fatalf("nondeterministic replay: %v vs %v", again.Time, first.Time)
		}
	}
}

func TestReplayDeltaModes(t *testing.T) {
	// A histogram with spread: min 1ms, max 9ms, mean 5ms.
	const P = 2
	ev := mkEvent(mpi.OpSendrecv, 1)
	ev.Dest = trace.Relative(1)
	ev.Src = trace.Relative(-1)
	n := trace.NewLeaf(ev, tracegen.Span(0, P), int64(vtime.Millisecond))
	n.Delta.Add(int64(9 * vtime.Millisecond))
	f := &trace.File{P: P, Nodes: []*trace.Node{trace.NewLoop(10, []*trace.Node{n})}}

	times := map[DeltaMode]vtime.Duration{}
	for _, mode := range []DeltaMode{DeltaMin, DeltaMean, DeltaMax, DeltaSampled} {
		res, err := runWithin(t, f, Options{Delta: mode})
		if err != nil {
			t.Fatal(err)
		}
		times[mode] = res.Time
	}
	if !(times[DeltaMin] < times[DeltaMean] && times[DeltaMean] < times[DeltaMax]) {
		t.Fatalf("mode ordering violated: %v", times)
	}
	if times[DeltaSampled] < times[DeltaMin] || times[DeltaSampled] > times[DeltaMax] {
		t.Fatalf("sampled time out of bounds: %v", times)
	}
	// Sampled replay is deterministic too.
	again, err := runWithin(t, f, Options{Delta: DeltaSampled})
	if err != nil {
		t.Fatal(err)
	}
	if again.Time != times[DeltaSampled] {
		t.Fatalf("sampled replay nondeterministic")
	}
}
