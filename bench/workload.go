package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"chameleon"
)

// runConfig is one invocation: one workload, one seed, one mode.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	toy      bool
	// workDir holds the archives of this run; outDir receives the span
	// file of a traced run.
	workDir, outDir string
}

// setupReps is how many times the end-to-end run sets up, so that
// setup_s is a median and not one draw.
func (c runConfig) setupReps() int {
	if c.toy || c.traced {
		return 1
	}
	return 3
}

func (c runConfig) minJobs() int {
	if c.toy {
		return 1
	}
	return 3
}

// runWorkload dispatches on the workload name.
func runWorkload(c runConfig) (*report, error) {
	if err := os.MkdirAll(c.workDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(c.workDir)
	if c.workload == "archive_mixed" {
		return runArchive(c)
	}
	for _, s := range jobSpecs(c.toy) {
		if s.name == c.workload {
			return runJobs(c, s)
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", c.workload, workloadNames)
}

// jobSetup is the state set-up leaves behind for the measured jobs.
type jobSetup struct {
	fl      *fleet
	ref     *reference
	cold    jobTimes
	acked   int64 // Σ RawBytes acknowledged by fl
	elapsed []float64
}

// setUpJobs starts the mesh and runs the reference job, c.setupReps()
// times over; the last mesh is the one the measured jobs use. For the
// fleet workload it also runs the in-process twin whose trace the
// fleet's must equal.
func setUpJobs(c runConfig, s jobSpec, rng *rand.Rand) (_ *jobSetup, err error) {
	su := &jobSetup{}
	defer func() {
		if err != nil && su.fl != nil {
			su.fl.Close()
		}
	}()
	for rep := 0; rep < c.setupReps(); rep++ {
		start := time.Now()
		if su.fl != nil {
			su.fl.Close()
		}
		su.fl, err = startFleet(filepath.Join(c.workDir, fmt.Sprintf("mesh%d", rep)), meshPeers, c.traced)
		if err != nil {
			return nil, err
		}
		var inproc []byte
		if s.members != nil {
			tr, err := s.inProcess().traceStage(s.tracer, nil)
			if err != nil {
				return nil, fmt.Errorf("in-process twin: %w", err)
			}
			if inproc, err = encodeUnlabelled(tr.out.Trace); err != nil {
				return nil, err
			}
		}
		jt, err := s.runJob(su.fl, rng, fmt.Sprintf("%s/s%d/setup%d", s.name, c.seed, rep), su.ref, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("reference job: %w", err)
		}
		su.acked = jt.run.RawBytes
		if su.ref == nil {
			su.cold, su.ref = jt, newReference(jt)
		}
		if inproc != nil && !bytes.Equal(inproc, su.ref.payload) {
			return nil, fmt.Errorf("fleet member 0's trace differs from the in-process run's (%d vs %d bytes)",
				len(su.ref.payload), len(inproc))
		}
		su.elapsed = append(su.elapsed, time.Since(start).Seconds())
	}
	return su, nil
}

// runJobs measures one pipeline workload.
func runJobs(c runConfig, s jobSpec) (*report, error) {
	rep := newReport(c.workload, c.traced)
	rng := rand.New(rand.NewSource(c.seed))
	su, err := setUpJobs(c, s, rng)
	if err != nil {
		return nil, err
	}
	defer su.fl.Close()

	var lt *layerTimer
	var sp *spans
	if c.traced {
		lt, sp = &layerTimer{}, newSpans()
	}
	var plain, timed []jobTimes
	var gcBefore runtime.MemStats
	runtime.ReadMemStats(&gcBefore)
	need := c.minJobs()
	if c.traced {
		need *= 2
	}
	deadline := time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
	for n := 0; n < need || time.Now().Before(deadline); n++ {
		runtime.GC()
		label := fmt.Sprintf("%s/s%d/j%06d", s.name, c.seed, n)
		// The traced run alternates plain and timed jobs, so that the
		// cost of tracing is read off two sets taken side by side.
		jlt, jsp := lt, sp
		if c.traced && n%2 == 0 {
			jlt, jsp = nil, nil
		}
		rep.attempted++
		jt, err := s.runJob(su.fl, rng, label, su.ref, jlt, jsp)
		if err != nil {
			rep.fail(fmt.Errorf("job %d: %w", n, err))
			if rep.failed >= 3 {
				break
			}
			continue
		}
		su.acked += jt.run.RawBytes
		if jlt != nil {
			timed = append(timed, jt)
		} else {
			plain = append(plain, jt)
		}
	}
	if len(plain) == 0 || (c.traced && len(timed) == 0) {
		rep.print(os.Stderr) //nolint:errcheck
		return nil, fmt.Errorf("%s: no job completed", s.name)
	}

	if !c.traced {
		rep.setMedian("setup_s", su.elapsed, 1)
		jobMetrics(rep, s, su, plain)
		return rep, nil
	}
	if err := layerMetrics(c, rep, s, su, plain, timed, lt, sp, &gcBefore); err != nil {
		return nil, err
	}
	return rep, nil
}

// column reads one number off every job.
func column(jobs []jobTimes, f func(jobTimes) float64) []float64 {
	xs := make([]float64, len(jobs))
	for i, j := range jobs {
		xs[i] = f(j)
	}
	return xs
}

// jobMetrics derives the end-to-end metrics of a pipeline workload.
func jobMetrics(rep *report, s jobSpec, su *jobSetup, jobs []jobTimes) {
	events := float64(su.ref.events)
	rep.setMedian("job_wall_s", column(jobs, func(j jobTimes) float64 { return j.wall.Seconds() }), 1)
	rep.set("allocs_per_event", median(column(jobs, func(j jobTimes) float64 { return float64(j.mallocs) }))/events)
	rep.setMedian("alloc_mb_per_job", column(jobs, func(j jobTimes) float64 { return float64(j.allocBytes) }), 1e-6)

	// The virtual clock and the trace must repeat exactly: any job that
	// disagrees with the reference run is a failed job.
	for i, j := range jobs {
		if j.out.Overhead != su.cold.out.Overhead || j.out.Time != su.cold.out.Time ||
			j.out.OverheadBy["intercomp"] != su.cold.out.OverheadBy["intercomp"] {
			rep.fail(fmt.Errorf("job %d: virtual time moved: overhead %v makespan %v, reference %v %v",
				i, j.out.Overhead, j.out.Time, su.cold.out.Overhead, su.cold.out.Time))
		}
	}
	out := su.cold.out
	rep.set("vt_overhead_ratio", float64(out.Overhead)/(float64(s.p)*float64(out.Time)))
	rep.set("vt_intercomp_vms", float64(out.OverheadBy["intercomp"])/float64(chameleon.Millisecond))
	rep.set("trace_bytes", float64(len(su.ref.payload)))

	disk, err := su.fl.diskBytes()
	if err != nil {
		rep.fail(err)
	}
	rep.set("disk_bytes_per_raw_byte", float64(disk)/float64(su.acked))
}

// runArchive measures archive_mixed.
func runArchive(c runConfig) (*report, error) {
	rep := newReport(c.workload, c.traced)
	sc := archiveScaleFor(c.toy)
	rng := rand.New(rand.NewSource(c.seed))

	var ar *archiveRun
	var setups, genMallocs []float64
	for r := 0; r < c.setupReps(); r++ {
		start := time.Now()
		if ar != nil {
			ar.fl.Close()
		}
		cp, err := makeCorpus(sc.p)
		if err != nil {
			return nil, err
		}
		if ar != nil {
			for i, p := range cp.payloads {
				if !bytes.Equal(p, ar.corpus.payloads[i]) {
					return nil, fmt.Errorf("corpus trace %d differs between two generations", i)
				}
			}
		}
		fl, err := startFleet(filepath.Join(c.workDir, fmt.Sprintf("mesh%d", r)), meshPeers, c.traced)
		if err != nil {
			return nil, err
		}
		ar = &archiveRun{sc: sc, fl: fl, corpus: cp, seed: c.seed}
		if err := ar.preload(rng); err != nil {
			fl.Close()
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		genMallocs = append(genMallocs, float64(cp.mallocs))
	}
	defer ar.fl.Close()

	// The traced run prices replication at the preloaded size, before
	// the measured sequence grows the archive.
	var replication float64
	if c.traced {
		lab, err := newLabeller(ar.corpus)
		if err != nil {
			return nil, err
		}
		var acked []stored
		if replication, acked, err = probeReplication(c, ar.fl, lab, sc.preload); err != nil {
			return nil, err
		}
		ar.acked = append(ar.acked, acked...)
	}

	nOps := max(sc.minOps, int(c.seconds*float64(sc.opsPerS)))
	nOps -= nOps % (sc.batch * sc.clients)
	ops := opSequence(rng, nOps, len(ar.fl.urls), len(ar.corpus.payloads), sc.preload)
	var sp *spans
	if c.traced {
		sp = newSpans()
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	ar.execute(ops, start.Add(time.Duration(3*c.seconds+30)*time.Second), sp)
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)

	checked, verrs := ar.verify()
	rep.attempted = ar.done + checked
	rep.fail(ar.errs...)
	rep.fail(verrs...)
	if ar.done < len(ops) {
		rep.fail(fmt.Errorf("only %d of %d ops ran before the guard deadline", ar.done, len(ops)))
	}
	if len(ar.batches) == 0 || len(ar.lat[opPutCold]) == 0 || len(ar.lat[opStats]) == 0 {
		rep.print(os.Stderr) //nolint:errcheck
		return nil, fmt.Errorf("archive_mixed: too few ops completed")
	}

	if c.traced {
		if err := archiveLayerMetrics(c, rep, ar, replication, sp, wall, &m0); err != nil {
			return nil, err
		}
		return rep, nil
	}

	cp := ar.corpus
	events := float64(cp.events)
	rep.setMedian("setup_s", setups, 1)
	rep.setMedian("job_wall_s", ar.batches, 1)
	rep.set("allocs_per_event", median(genMallocs)/events)
	rep.set("alloc_mb_per_job", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6/float64(len(ar.batches)))
	rep.set("vt_overhead_ratio", float64(cp.overhead)/float64(cp.rankTime))
	rep.set("vt_intercomp_vms", float64(cp.intercomp)/float64(chameleon.Millisecond))
	rep.set("trace_bytes", float64(cp.traceBytes))
	disk, err := ar.fl.diskBytes()
	if err != nil {
		rep.fail(err)
	}
	var raw int64
	for _, st := range ar.acked {
		raw += st.rawBytes
	}
	rep.set("disk_bytes_per_raw_byte", float64(disk)/float64(raw))
	return rep, nil
}
