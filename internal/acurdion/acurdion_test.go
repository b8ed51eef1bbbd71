package acurdion

import (
	"testing"

	"chameleon/internal/cluster"
	"chameleon/internal/mpi"
	"chameleon/internal/tracegen"
	"chameleon/internal/tracer"
	"chameleon/internal/vtime"
)

func TestFinalizeClustering(t *testing.T) {
	const P = 8
	col := NewCollector(P)
	res, err := mpi.Run(mpi.Config{P: P, Hooks: New(col, tracer.Options{K: 3, Algo: cluster.KFarthest})}, tracegen.Ring(40))
	if err != nil {
		t.Fatal(err)
	}
	if len(col.LeadRanks) != 3 {
		t.Fatalf("leads = %v", col.LeadRanks)
	}
	if len(col.Global) == 0 {
		t.Fatalf("no global trace")
	}
	// Cluster rank lists cover every rank.
	for r := 0; r < P; r++ {
		if !tracegen.Covers(col.Global, r) {
			t.Fatalf("rank %d not covered", r)
		}
	}
	// ACURDION pays clustering once but full tracing everywhere: every
	// rank allocated trace space (Table IV's comparison point).
	for r, b := range col.AllocBytes {
		if b <= 0 {
			t.Fatalf("rank %d allocated %d", r, b)
		}
	}
	agg := res.AggregateLedger()
	if agg.Spent(vtime.CatCluster) <= 0 || agg.Spent(vtime.CatInterComp) <= 0 {
		t.Fatalf("cost categories empty: %v %v",
			agg.Spent(vtime.CatCluster), agg.Spent(vtime.CatInterComp))
	}
}
