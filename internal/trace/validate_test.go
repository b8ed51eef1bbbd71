package trace

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"chameleon/internal/mpi"
	"chameleon/internal/ranklist"
)

func validFile() *File {
	send := leaf(1)
	recv := leaf(2)
	recv.Ev.Op = mpi.OpRecv
	recv.Ev.Dest = NoEndpoint
	recv.Ev.Src = Relative(-1)
	return &File{P: 4, Nodes: []*Node{
		send,
		NewLoop(3, []*Node{recv}),
	}}
}

func TestValidateOK(t *testing.T) {
	if err := validFile().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatches(t *testing.T) {
	cases := map[string]func(f *File){
		"invalid rank count":         func(f *File) { f.P = 0 },
		"invalid rank count 1048577": func(f *File) { f.P = maxRankExpansion + 1 },
		"zero iterations": func(f *File) {
			f.Nodes[1].Iters = 0
		},
		"empty loop body": func(f *File) {
			f.Nodes[1].Body = []*Node{}
		},
		"empty rank list": func(f *File) {
			f.Nodes[0].Ranks = ranklist.List{}
		},
		"outside": func(f *File) {
			f.Nodes[0].Ranks = ranklist.SingleRank(99)
		},
		"unknown operation": func(f *File) {
			f.Nodes[0].Ev.Op = mpi.OpNone
		},
		"negative byte count": func(f *File) {
			f.Nodes[0].Ev.Bytes = -1
		},
		"send without destination": func(f *File) {
			f.Nodes[0].Ev.Dest = NoEndpoint
		},
		"receive without source": func(f *File) {
			f.Nodes[1].Body[0].Ev.Src = NoEndpoint
		},
		"absolute rank": func(f *File) {
			f.Nodes[0].Ev.Dest = Absolute(7)
		},
		"unknown end-point kind": func(f *File) {
			f.Nodes[0].Ev.Dest = Endpoint{Kind: 99}
		},
		"nil node": func(f *File) {
			f.Nodes = append(f.Nodes, nil)
		},
	}
	for wantSubstr, corrupt := range cases {
		f := validFile()
		corrupt(f)
		err := f.Validate()
		if err == nil {
			t.Fatalf("%q not caught", wantSubstr)
		}
		if !strings.Contains(err.Error(), wantSubstr) {
			t.Fatalf("%q: got %v", wantSubstr, err)
		}
	}
}

func TestValidateFilteredLoop(t *testing.T) {
	// A filtered loop may carry Iters=0 if its histogram has samples.
	f := validFile()
	loop := f.Nodes[1]
	loop.Iters = 0
	other := NewLoop(4, []*Node{loop.Body[0].Clone()})
	loop.ItersHist = nil
	MergeInto(loop, other, true)
	if err := f.Validate(); err != nil {
		t.Fatalf("filtered loop rejected: %v", err)
	}
}

func TestValidateDeepNesting(t *testing.T) {
	inner := []*Node{leaf(1)}
	for i := 0; i < maxBinaryDepth+2; i++ {
		inner = []*Node{NewLoop(2, inner)}
	}
	f := &File{P: 4, Nodes: inner}
	if err := f.Validate(); err == nil {
		t.Fatalf("deep nesting accepted")
	}
}

func TestTracersProduceValidTraces(t *testing.T) {
	// Round-trip guard: traces from the real pipeline validate cleanly
	// (checked again at the facade level in the integration tests).
	f := validFile()
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Validate bounds a rank list without expanding it: 64 barriers on
// distinct lists of 2^20 - 64 ranks each, inside P = 2^20, validate in
// under 50 ms and 1 MB. Expanding every list took 1.0 s and 537 MB. A
// list that crosses P is named by its last rank, which is outside.
func TestValidateWideListsCostsTheirDescriptors(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what a call allocates")
	}
	const p = 1 << 20
	f := &File{P: p}
	for i := 0; i < 64; i++ {
		f.Nodes = append(f.Nodes, NewLeaf(Event{Op: mpi.OpBarrier}, normalList(ranklist.Range(i, p-64, 1)), 0))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := f.Validate()
	took := time.Since(start)
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("Validate of 64 lists of %d ranks: %v, %d B allocated", p-64, took, alloc)
	if err != nil {
		t.Fatal(err)
	}
	if took > 50*time.Millisecond || alloc > 1<<20 {
		t.Fatalf("Validate of the wide lists took %v and allocated %d B; want < 50 ms, 1 MB", took, alloc)
	}
	f.Nodes[63].Ranks = normalList(ranklist.Range(63, p-62, 1))
	if err := f.Validate(); err == nil || !strings.Contains(err.Error(), "rank 1048576 outside [0,1048576)") {
		t.Fatalf("a list crossing P: %v", err)
	}
}
