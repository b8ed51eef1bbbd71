package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"chameleon/internal/cluster"
	"chameleon/internal/ranklist"
	"chameleon/internal/sig"
	"chameleon/internal/store"
	"chameleon/internal/trace"
	"chameleon/internal/zan"
)

// A probe replays inputs captured from the workload through one
// exported function of one layer, in a loop, and reports the median
// cost of a call. Probes run in the traced run only.

const probeReps = 15

// timeReps returns the median duration of fn over probeReps calls.
func timeReps(fn func()) time.Duration {
	xs := make([]float64, probeReps)
	for i := range xs {
		start := time.Now()
		fn()
		xs[i] = float64(time.Since(start))
	}
	return time.Duration(median(xs))
}

func analyze(f *trace.File) (*zan.Report, error) { return zan.Analyze(f, zan.Options{}) }

var probeSink sig.SiteID

// probeSigIntern prices sig.CaptureSite at a site that is already
// interned: the stack walk plus the table hit every traced event pays.
func probeSigIntern() float64 {
	const n = 20_000
	return float64(timeReps(func() {
		for i := 0; i < n; i++ {
			probeSink = sig.CaptureSite(0)
		}
	})) / n
}

// rankEvents expands the merged trace into the event stream one rank
// issued, up to limit events: the input the intra-node compressor saw.
func rankEvents(seq []*trace.Node, rank, limit int, into []trace.Event) []trace.Event {
	for _, n := range seq {
		if len(into) >= limit {
			break
		}
		if !n.IsLoop() {
			if n.Ranks.Contains(rank) {
				into = append(into, n.Ev)
			}
			continue
		}
		for it := uint64(0); it < n.Iters && len(into) < limit; it++ {
			before := len(into)
			into = rankEvents(n.Body, rank, limit, into)
			if len(into) == before {
				break // the rank takes no part in this loop
			}
		}
	}
	return into
}

// compress folds an event stream the way tracer.Recorder does: a pooled
// leaf per event into a compressor that recycles what it discards.
func compress(events []trace.Event, rank int) []*trace.Node {
	var pool trace.Pool
	comp := trace.Compressor{Pool: &pool}
	ranks := ranklist.SingleRank(rank)
	for _, ev := range events {
		comp.AppendLeaf(pool.Leaf(ev, ranks, 1000))
	}
	return comp.Seq
}

// probeCompress prices Compressor.AppendLeaf per event on rank 0's
// stream.
func probeCompress(events []trace.Event) float64 {
	if len(events) == 0 {
		return 0
	}
	return float64(timeReps(func() { compress(events, 0) })) / float64(len(events))
}

// probeMergePair prices one Owned Merger.Merge of two ranks' partial
// traces, the step the radix tree repeats P-1 times at finalize under
// ScalaTrace and K-1 times per flush under Chameleon.
func probeMergePair(events []trace.Event, p int) float64 {
	if len(events) == 0 {
		return 0
	}
	a, b := compress(events, 0), compress(events, 1)
	xs := make([]float64, probeReps)
	for i := range xs {
		ca, cb := trace.CloneSeq(a), trace.CloneSeq(b)
		m := trace.Merger{P: p, Owned: true}
		start := time.Now()
		m.Merge(ca, cb)
		xs[i] = float64(time.Since(start))
	}
	return median(xs) / 1e3
}

// probeCodec prices File.WriteBinary and ReadBinary of the merged trace.
func probeCodec(f *trace.File) (encodeMs, decodeMs float64, err error) {
	var buf bytes.Buffer
	enc := timeReps(func() {
		buf.Reset()
		if e := f.WriteBinary(&buf); e != nil {
			err = e
		}
	})
	payload := buf.Bytes()
	dec := timeReps(func() {
		if _, e := trace.ReadBinary(bytes.NewReader(payload)); e != nil {
			err = e
		}
	})
	return float64(enc) / 1e6, float64(dec) / 1e6, err
}

// probeAnalyze prices zan.Analyze, the work behind GET /runs/{id}/stats.
func probeAnalyze(f *trace.File) (us float64, storedNodes int, err error) {
	var rep *zan.Report
	d := timeReps(func() {
		if rep, err = analyze(f); err != nil {
			return
		}
	})
	if err != nil {
		return 0, 0, err
	}
	return float64(d) / 1e3, rep.StoredNodes, nil
}

// probeSelectLeads prices cluster.SelectLeads over the P first-window
// signature triples the timing interposer captured, at the workload's K.
func probeSelectLeads(triples []sig.Triple, k int) float64 {
	if len(triples) == 0 {
		return 0
	}
	items := make([]cluster.Item, len(triples))
	return float64(timeReps(func() {
		for i, t := range triples {
			items[i] = cluster.Item{Lead: i, Ranks: ranklist.SingleRank(i), Sig: t}
		}
		cluster.SelectLeads(items, k, cluster.ParseAlgorithm(""))
	})) / 1e3
}

// probeOwners prices Ring.Owners, the placement decision of every PUT
// and proxied GET.
func probeOwners(fl *fleet, id string) float64 {
	const n = 50_000
	return float64(timeReps(func() {
		for i := 0; i < n; i++ {
			fl.ring.Owners(id, meshReplicas)
		}
	})) / n
}

// localStore is what the probes on a plain store.Open archive yield.
type localStore struct {
	ingestN0, ingestN, dedup, get float64 // ms
}

// probeLocalStore prices Archive.Ingest on an empty archive and on one
// holding n runs, the dedup path and Archive.Get, with no HTTP and no
// mesh in the way. payloads are unlabelled traces; each ingest gets a
// distinct label.
func probeLocalStore(dir string, payloads [][]byte, n int) (localStore, error) {
	var ls localStore
	files := make([]*trace.File, len(payloads))
	for i, p := range payloads {
		f, err := trace.ReadBinary(bytes.NewReader(p))
		if err != nil {
			return ls, err
		}
		files[i] = f
	}
	a, err := store.Open(dir, store.Options{})
	if err != nil {
		return ls, err
	}
	defer os.RemoveAll(dir)
	defer a.Close()

	serial := 0
	var last *trace.File
	var lastID string
	ingest := func() (float64, error) {
		f := files[serial%len(files)]
		f.Benchmark = fmt.Sprintf("probe/%06d", serial)
		serial++
		start := time.Now()
		run, created, err := a.Ingest(f)
		d := time.Since(start)
		if err != nil || !created {
			return 0, fmt.Errorf("local ingest %s: created=%v: %v", f.Benchmark, created, err)
		}
		last, lastID = f, run.ID
		return float64(d) / 1e6, nil
	}
	series := func() (float64, error) {
		xs := make([]float64, probeReps)
		for i := range xs {
			if xs[i], err = ingest(); err != nil {
				return 0, err
			}
		}
		return median(xs), nil
	}
	if ls.ingestN0, err = series(); err != nil {
		return ls, err
	}
	for a.Len() < n {
		if _, err = ingest(); err != nil {
			return ls, err
		}
	}
	if ls.ingestN, err = series(); err != nil {
		return ls, err
	}
	ls.dedup = float64(timeReps(func() {
		if _, created, e := a.Ingest(last); e != nil || created {
			err = fmt.Errorf("local dedup: created=%v: %v", created, e)
		}
	})) / 1e6
	ls.get = float64(timeReps(func() {
		if _, _, e := a.Get(lastID); e != nil {
			err = e
		}
	})) / 1e6
	return ls, err
}

// probeReplication prices what federation adds to a cold PUT: the
// median of n sequential writes through an edge of fl against the same
// writes to a single unfederated peer holding as many runs. It returns
// the runs it left on fl.
func probeReplication(c runConfig, fl *fleet, lab *labeller, preload int) (float64, []stored, error) {
	dir := filepath.Join(c.workDir, "single")
	single, err := startFleet(dir, 1, false)
	if err != nil {
		return 0, nil, err
	}
	defer os.RemoveAll(dir)
	defer single.Close()
	serial := 0
	var last stored
	put := func(base string) (float64, error) {
		last = stored{corpus: serial % len(lab.files), label: fmt.Sprintf("%s/repl%06d", c.workload, serial)}
		serial++
		payload, id, err := lab.payload(last.corpus, last.label)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		run, created, err := store.PushBytes(base, payload, false)
		d := time.Since(start)
		if err != nil || !created || run.ID != id {
			return 0, fmt.Errorf("replication probe: created=%v id=%s want %s: %v", created, run.ID, id, err)
		}
		last.id, last.rawBytes = id, run.RawBytes
		return float64(d) / 1e6, nil
	}
	for i := 0; i < preload; i++ {
		if _, err := put(single.urls[0]); err != nil {
			return 0, nil, err
		}
	}
	var acked []stored
	one, three := make([]float64, probeReps), make([]float64, probeReps)
	for i := range one {
		if one[i], err = put(single.urls[0]); err != nil {
			return 0, nil, err
		}
		if three[i], err = put(fl.urls[i%len(fl.urls)]); err != nil {
			return 0, nil, err
		}
		acked = append(acked, last)
	}
	return median(three) / median(one), acked, nil
}
