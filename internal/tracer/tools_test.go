package tracer_test

import (
	"testing"

	"chameleon/internal/acurdion"
	"chameleon/internal/core"
	"chameleon/internal/mpi"
	"chameleon/internal/scalatrace"
	"chameleon/internal/trace"
	"chameleon/internal/tracer"
)

// TestToolsShareTheSkeleton runs every tool over a body that enters the
// marker barrier between two world barriers. No tool records the marker
// barrier or MPI_Finalize: the global trace holds the two world
// barriers only, each covering every rank. Each tool's File carries its
// name and whether it clusters.
func TestToolsShareTheSkeleton(t *testing.T) {
	const P = 4
	for _, tc := range []struct {
		name      string
		tool      string
		clustered bool
		hooks     func(tracer.Options) (func(*mpi.Proc) mpi.Interposer, *tracer.Result)
	}{
		{"scalatrace", "scalatrace", false, func(opt tracer.Options) (func(*mpi.Proc) mpi.Interposer, *tracer.Result) {
			col := scalatrace.NewCollector(P)
			return scalatrace.New(col, opt), col
		}},
		{"acurdion", "acurdion", true, func(opt tracer.Options) (func(*mpi.Proc) mpi.Interposer, *tracer.Result) {
			col := acurdion.NewCollector(P)
			return acurdion.New(col, opt), col
		}},
		{"chameleon", "chameleon", true, func(opt tracer.Options) (func(*mpi.Proc) mpi.Interposer, *tracer.Result) {
			col := core.NewCollector(P)
			return core.New(col, opt), col.Result
		}},
		{"chameleon-auto", "chameleon", true, func(opt tracer.Options) (func(*mpi.Proc) mpi.Interposer, *tracer.Result) {
			col := core.NewCollector(P)
			return core.NewAuto(col, opt), col.Result
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hooks, res := tc.hooks(tracer.Options{K: 2})
			_, err := mpi.Run(mpi.Config{P: P, Hooks: hooks}, func(p *mpi.Proc) {
				p.World().Barrier()
				p.MarkerComm().Barrier()
				p.World().Barrier()
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := trace.DynamicEvents(res.Global); got != 2 {
				t.Errorf("events = %d, want 2 (the world barriers only)", got)
			}
			for _, n := range res.Global {
				if n.IsLoop() || n.Ev.Op != mpi.OpBarrier || n.Ev.Comm != mpi.CommWorld || n.Ranks.Size() != P {
					t.Errorf("recorded %+v over %v, want a world barrier over every rank", n.Ev, n.Ranks)
				}
			}
			f := res.File(P, "RING", false)
			if f.P != P || f.Benchmark != "RING" || f.Tracer != tc.tool || f.Clustered != tc.clustered {
				t.Errorf("file metadata: P %d %q tracer %q clustered %v", f.P, f.Benchmark, f.Tracer, f.Clustered)
			}
		})
	}
}
