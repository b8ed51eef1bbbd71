package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"chameleon"
	"chameleon/internal/store"
	"chameleon/internal/trace"
)

// archiveScale sizes the archive_mixed workload.
type archiveScale struct {
	p       int // rank count of the corpus traces
	preload int // distinct runs pushed through the edge in set-up
	opsPerS int // ops of the measured sequence per second of --seconds
	minOps  int
	batch   int // consecutive ops of one client that make one "job"
	clients int
}

// Every PUT rewrites its owners' manifests (write-temp + rename, which
// ext4 flushes for real), so the bytes a run writes grow with the square
// of the archive size: 600 preloaded runs and 1500 ops wrote 1.1 GB a
// run, enough to exhaust the disk's burst allowance over a driver's set
// of runs and double every wall metric, and 300 + 600 (0.25 GB) still
// slowed by a third over ten runs. 200 + 400 writes about 0.1 GB and
// still takes local ingest from ~1 ms to ~2.5 ms.
func archiveScaleFor(toy bool) archiveScale {
	if toy {
		return archiveScale{p: 16, preload: 8, minOps: 40, batch: 10, clients: 2}
	}
	return archiveScale{p: 64, preload: 200, opsPerS: 40, minOps: 200, batch: 20, clients: 2}
}

// corpusSpecs are the traces the archive holds: four clustered
// Chameleon traces of different shapes and one unclustered ScalaTrace
// trace, so payload size and stats cost vary from op to op.
var corpusSpecs = []struct {
	bench  string
	tracer chameleon.Tracer
}{
	{"BT", chameleon.TracerChameleon},
	{"LU", chameleon.TracerChameleon},
	{"SP", chameleon.TracerChameleon},
	{"CG", chameleon.TracerChameleon},
	{"LU", chameleon.TracerScalaTrace},
}

// corpus is the generated input of archive_mixed plus what generating
// it cost, which is this workload's trace stage.
type corpus struct {
	payloads   [][]byte // unlabelled canonical encodings
	events     uint64   // dynamic events across ranks, all traces
	wall       time.Duration
	mallocs    uint64
	overhead   chameleon.Duration
	rankTime   chameleon.Duration // Σ P·makespan
	intercomp  chameleon.Duration
	traceBytes int
}

func makeCorpus(p int) (*corpus, error) {
	c := &corpus{}
	var m0, m1 runtime.MemStats
	for _, cs := range corpusSpecs {
		runtime.ReadMemStats(&m0)
		start := time.Now()
		out, err := chameleon.RunBenchmark(cs.bench, "A", p, cs.tracer, nil)
		if err != nil {
			return nil, fmt.Errorf("corpus %s/%s: %w", cs.bench, cs.tracer, err)
		}
		c.wall += time.Since(start)
		runtime.ReadMemStats(&m1)
		c.mallocs += m1.Mallocs - m0.Mallocs
		payload, err := encodeUnlabelled(out.Trace)
		if err != nil {
			return nil, err
		}
		c.payloads = append(c.payloads, payload)
		c.traceBytes += len(payload)
		c.overhead += out.Overhead
		c.rankTime += chameleon.Duration(p) * out.Time
		c.intercomp += out.OverheadBy["intercomp"]
		rep, err := analyze(out.Trace)
		if err != nil {
			return nil, err
		}
		c.events += rep.Events
	}
	return c, nil
}

// labeller turns corpus traces into distinct runs. Each client owns one
// (trace.File is mutated to set the label), decoded from the corpus
// bytes.
type labeller struct {
	files []*trace.File
}

func newLabeller(c *corpus) (*labeller, error) {
	l := &labeller{}
	for _, p := range c.payloads {
		f, err := trace.ReadBinary(bytes.NewReader(p))
		if err != nil {
			return nil, err
		}
		l.files = append(l.files, f)
	}
	return l, nil
}

func (l *labeller) payload(idx int, label string) ([]byte, string, error) {
	f := l.files[idx]
	f.Benchmark = label
	return store.Encode(f)
}

type opKind uint8

const (
	opPutCold opKind = iota
	opPutDedup
	opStats
	opGet
	opList
	numOpKinds
)

var opNames = [numOpKinds]string{"put_cold", "put_dedup", "stats", "get", "list"}

// archiveOp is one step of the seeded sequence. target indexes the
// preloaded runs (reads and dedup writes) or the corpus (cold writes).
type archiveOp struct {
	kind   opKind
	edge   int
	target int
}

// opMix is the share of each op kind in ten ops: 50% cold PUT, 10%
// dedup PUT, 20% stats, 10% get, 10% list.
var opMix = [numOpKinds]int{opPutCold: 5, opPutDedup: 1, opStats: 2, opGet: 1, opList: 1}

// opSequence lays out n ops in exactly the mix above, cold writes
// cycling through the corpus, and shuffles them with the seed. The seed
// thus moves the order, the edges and the read targets, but not how much
// work of each kind a run does. Reads and dedup writes aim at preloaded
// runs, so no op depends on how far another client has got.
func opSequence(rng *rand.Rand, n, edges, corpusLen, preload int) []archiveOp {
	ops := make([]archiveOp, 0, n)
	for i := 0; len(ops) < n; i++ {
		for kind, share := range opMix {
			for j := 0; j < share && len(ops) < n; j++ {
				op := archiveOp{kind: opKind(kind), edge: rng.Intn(edges)}
				switch op.kind {
				case opPutCold:
					op.target = (i*share + j) % corpusLen
				case opPutDedup, opStats, opGet:
					op.target = rng.Intn(preload)
				}
				ops = append(ops, op)
			}
		}
	}
	rng.Shuffle(len(ops), func(a, b int) { ops[a], ops[b] = ops[b], ops[a] })
	return ops
}

// stored is one acknowledged write: what the archive must still hold,
// byte for byte, when the run ends.
type stored struct {
	id       string
	corpus   int
	label    string
	rawBytes int64
}

// archiveRun is the mutable state of one archive_mixed pass.
type archiveRun struct {
	sc     archiveScale
	fl     *fleet
	corpus *corpus
	seed   int64

	mu      sync.Mutex
	acked   []stored // preload first, then cold writes in completion order
	lat     [numOpKinds][]float64
	batches []float64
	errs    []error
	done    int
}

// preload pushes sc.preload distinct runs through the edges from
// sc.clients closed-loop clients.
func (ar *archiveRun) preload(rng *rand.Rand) error {
	type item struct {
		corpus, edge int
		label        string
	}
	items := make([]item, ar.sc.preload)
	for i := range items {
		items[i] = item{i % len(ar.corpus.payloads), rng.Intn(len(ar.fl.urls)), fmt.Sprintf("am/s%d/pre%06d", ar.seed, i)}
	}
	acked := make([]stored, len(items))
	errs := make([]error, ar.sc.clients)
	var wg sync.WaitGroup
	for c := 0; c < ar.sc.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lab, err := newLabeller(ar.corpus)
			if err != nil {
				errs[c] = err
				return
			}
			for i := c; i < len(items); i += ar.sc.clients {
				it := items[i]
				payload, id, err := lab.payload(it.corpus, it.label)
				if err != nil {
					errs[c] = err
					return
				}
				run, created, err := store.PushBytes(ar.fl.urls[it.edge], payload, false)
				if err != nil || !created || run.ID != id {
					errs[c] = fmt.Errorf("preload %s: created=%v id=%s want %s: %v", it.label, created, run.ID, id, err)
					return
				}
				acked[i] = stored{id: id, corpus: it.corpus, label: it.label, rawBytes: run.RawBytes}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	ar.acked = acked
	return nil
}

// execute runs the op sequence: op i belongs to client i mod clients,
// and each client issues its ops one after another. sp, when non-nil,
// receives one root span per op. The deadline is a guard against a
// stalled archive, not the stop rule: the op count is fixed so that the
// archive grows identically on both sides of a comparison.
func (ar *archiveRun) execute(ops []archiveOp, deadline time.Time, sp *spans) {
	preloaded := ar.acked[:ar.sc.preload:ar.sc.preload]
	var wg sync.WaitGroup
	for c := 0; c < ar.sc.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lab, err := newLabeller(ar.corpus)
			if err != nil {
				ar.fail(err)
				return
			}
			inBatch, batchStart := 0, time.Now()
			for i := c; i < len(ops); i += ar.sc.clients {
				if time.Now().After(deadline) {
					return
				}
				op := ops[i]
				base := ar.fl.urls[op.edge]
				var err error
				var ack *stored
				var d time.Duration
				switch op.kind {
				case opPutCold, opPutDedup:
					st := stored{corpus: op.target, label: fmt.Sprintf("am/s%d/op%06d", ar.seed, i)}
					if op.kind == opPutDedup {
						st = preloaded[op.target]
					}
					var payload []byte
					payload, st.id, err = lab.payload(st.corpus, st.label)
					if err != nil {
						break
					}
					s := sp.begin(opNames[op.kind], nil)
					start := time.Now()
					run, created, perr := store.PushBytes(base, payload, false)
					d = time.Since(start)
					s.end()
					switch {
					case perr != nil:
						err = perr
					case run.ID != st.id:
						err = fmt.Errorf("archive address %s != local %s", run.ID, st.id)
					case created != (op.kind == opPutCold):
						err = fmt.Errorf("%s %s: created=%v", opNames[op.kind], st.label, created)
					case op.kind == opPutCold:
						st.rawBytes = run.RawBytes
						ack = &st
					}
				case opStats:
					want := preloaded[op.target]
					s := sp.begin(opNames[op.kind], nil)
					start := time.Now()
					rep, serr := store.FetchStats(base, want.id)
					d = time.Since(start)
					s.end()
					if err = serr; err == nil && (rep.ID != want.id || rep.Report == nil || rep.Report.P != ar.sc.p) {
						err = fmt.Errorf("stats of %s answered for %s", want.id, rep.ID)
					}
				case opGet:
					want := preloaded[op.target]
					s := sp.begin(opNames[op.kind], nil)
					start := time.Now()
					got, _, gerr := store.FetchBytes(base + "/runs/" + want.id)
					d = time.Since(start)
					s.end()
					if err = gerr; err == nil && contentAddress(got) != want.id {
						err = fmt.Errorf("get %s: payload hashes to %s", want.id, contentAddress(got))
					}
				case opList:
					s := sp.begin(opNames[op.kind], nil)
					start := time.Now()
					lr, lerr := store.FetchRuns(base, "", 100, 0)
					d = time.Since(start)
					s.end()
					if err = lerr; err == nil && (lr.Total < ar.sc.preload || len(lr.Runs) != min(100, lr.Total)) {
						err = fmt.Errorf("list: total %d, page %d", lr.Total, len(lr.Runs))
					}
				}
				ar.mu.Lock()
				ar.done++
				if err != nil {
					ar.errs = append(ar.errs, fmt.Errorf("op %d (%s): %w", i, opNames[op.kind], err))
				} else {
					ar.lat[op.kind] = append(ar.lat[op.kind], float64(d)/1e6)
				}
				if ack != nil {
					ar.acked = append(ar.acked, *ack)
				}
				ar.mu.Unlock()
				if inBatch++; inBatch == ar.sc.batch {
					now := time.Now()
					ar.mu.Lock()
					ar.batches = append(ar.batches, now.Sub(batchStart).Seconds())
					ar.mu.Unlock()
					inBatch, batchStart = 0, now
				}
			}
		}(c)
	}
	wg.Wait()
}

func (ar *archiveRun) fail(err error) {
	ar.mu.Lock()
	ar.errs = append(ar.errs, err)
	ar.mu.Unlock()
}

// verify reads every acknowledged write back from the disk of each of
// its owners and checks the listing total. It returns the number of
// checks that failed.
func (ar *archiveRun) verify() (checked int, errs []error) {
	for _, st := range ar.acked {
		owners := ar.fl.owners(st.id)
		if len(owners) != min(meshReplicas, len(ar.fl.urls)) {
			errs = append(errs, fmt.Errorf("run %s has %d owners", st.id, len(owners)))
		}
		for _, o := range owners {
			checked++
			payload, _, err := ar.fl.archives[o].Payload(st.id)
			if err != nil {
				errs = append(errs, fmt.Errorf("owner %d lost %s (%s): %w", o, st.id[:12], st.label, err))
			} else if contentAddress(payload) != st.id {
				errs = append(errs, fmt.Errorf("owner %d holds other bytes for %s", o, st.id[:12]))
			}
		}
	}
	checked++
	lr, err := store.FetchRuns(ar.fl.urls[0], "", 1, 0)
	if err != nil {
		errs = append(errs, err)
	} else if lr.Total != len(ar.acked) {
		errs = append(errs, fmt.Errorf("list total %d, acknowledged writes %d", lr.Total, len(ar.acked)))
	}
	return checked, errs
}

func contentAddress(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}
