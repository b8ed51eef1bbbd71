package scalatrace

import (
	"testing"

	"chameleon/internal/mpi"
	"chameleon/internal/trace"
	"chameleon/internal/tracegen"
	"chameleon/internal/vtime"
)

func TestGlobalTraceCoverage(t *testing.T) {
	const P = 8
	col := NewCollector(P)
	res, err := mpi.Run(mpi.Config{P: P, Hooks: New(col, Options{})}, tracegen.Ring(50))
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Global) == 0 {
		t.Fatalf("no global trace")
	}
	// All ranks' events merge into a single loop covering everyone.
	for r := 0; r < P; r++ {
		if !tracegen.Covers(col.Global, r) {
			t.Fatalf("rank %d missing from global trace", r)
		}
	}
	if col.Events != P*50 {
		t.Fatalf("events = %d", col.Events)
	}
	// Every rank allocated trace space (no clustering savings here).
	for r, b := range col.AllocBytes {
		if b <= 0 {
			t.Fatalf("rank %d allocated %d", r, b)
		}
	}
	// Inter-node compression cost was charged.
	agg := res.AggregateLedger()
	if agg.Spent(vtime.CatInterComp) <= 0 {
		t.Fatalf("no intercomp cost")
	}
	if agg.Spent(vtime.CatCluster) != 0 {
		t.Fatalf("baseline charged clustering")
	}
}

func TestIgnoresMarkers(t *testing.T) {
	const P = 4
	col := NewCollector(P)
	_, err := mpi.Run(mpi.Config{P: P, Hooks: New(col, Options{})}, func(p *mpi.Proc) {
		p.World().Barrier()
		p.MarkerComm().Barrier() // must not be recorded
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := trace.DynamicEvents(col.Global); got != 1 {
		t.Fatalf("events = %d, want 1 (the world barrier only)", got)
	}
}

func TestFilePackaging(t *testing.T) {
	col := NewCollector(2)
	if _, err := mpi.Run(mpi.Config{P: 2, Hooks: New(col, Options{})}, tracegen.Ring(5)); err != nil {
		t.Fatal(err)
	}
	f := col.File(2, "RING", false)
	if f.P != 2 || f.Tracer != "scalatrace" || f.Clustered || f.Benchmark != "RING" {
		t.Fatalf("file metadata: %+v", f)
	}
}
