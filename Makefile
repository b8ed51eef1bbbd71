GO ?= go

.PHONY: all check test test-race test-faults test-store test-live test-transport test-wave test-zan test-fed fuzz-trace fuzz-frame bench bench-causal bench-faults bench-refactor bench-store bench-live bench-wave bench-zan bench-fed clean

all: check test

# check: everything must build, vet clean, and be gofmt'd. bench/ is its
# own module (the frozen benchmark harness), so ./... never reaches it:
# vet and test it by name, or an API change it compiles against first
# fails at the benchmark gate.
check:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) -C bench vet .
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then \
		echo "gofmt needed on:"; echo "$$fmt"; exit 1; fi

test:
	$(GO) test ./...
	$(GO) -C bench test .

# test-race: the observability registry is hammered from 64 goroutines
# and the causal store is appended from every rank concurrently; the
# full suite (including internal/causal) runs under the race detector.
test-race:
	$(GO) test -race ./...

# bench: price the observability layer on the stencil workload and
# write BENCH_obs.json (ns/op enabled vs disabled, makespan overhead).
bench:
	BENCH_OBS_OUT=$(CURDIR)/BENCH_obs.json $(GO) test -run TestObsBenchReport -v .
	$(GO) test -bench 'BenchmarkObsOverhead' -benchmem .

# bench-causal: price per-edge causal capture on top of the enabled
# observability layer; writes BENCH_causal.json (ns/op causal on vs
# off, edges captured, makespan overhead — must be zero).
bench-causal:
	BENCH_CAUSAL_OUT=$(CURDIR)/BENCH_causal.json $(GO) test -run TestCausalBenchReport -v .
	$(GO) test -bench 'BenchmarkCausalOverhead' -benchmem .

# bench-refactor: price the interned hot path (record -> compress ->
# merge pipeline on PHASE and STENCIL) against the pre-refactor baseline
# recorded in bench_refactor_test.go; writes BENCH_refactor.json and
# fails unless allocs/op dropped by at least 30%.
bench-refactor:
	BENCH_REFACTOR_OUT=$(CURDIR)/BENCH_refactor.json $(GO) test -run TestRefactorBenchReport -v .
	$(GO) test -bench 'BenchmarkRecordCompressMerge' -benchmem .

# test-store: the trace-archive suite under the race detector — the
# 64-goroutine mixed ingest/query/compaction storm, the chamd HTTP
# handlers, and the end-to-end push/fetch/diff round trip.
test-store:
	$(GO) test -race ./internal/store/
	$(GO) test -race -run 'TestStore' .

# test-live: the live-telemetry suite under the race detector — the
# delta shipper, chamd's session tracker and detectors, the
# 64-goroutine concurrent-pusher storm, and the end-to-end in-flight
# straggler test (chamrun -live -> chamd -> chamtop -follow).
test-live:
	$(GO) test -race -run 'TestLive|TestShipper|TestJournalRing|TestProgress' ./internal/obs/ ./internal/store/
	$(GO) test -race -run 'TestLiveSlowRankFlaggedInFlight|TestLiveCrashRankDeparts' .

# bench-live: price the live telemetry shipper against a no -live run
# of the same workload; writes BENCH_live.json (wall-clock overhead
# percent — budget 5%, the report fails beyond it — and wire bytes per
# shipped delta).
bench-live:
	BENCH_LIVE_OUT=$(CURDIR)/BENCH_live.json $(GO) test -run TestLiveBenchReport -v .
	$(GO) test -run '^$$' -bench 'BenchmarkNilObserver|BenchmarkNilProgress' -benchmem ./internal/obs/

# fuzz-trace: a short fuzz smoke over the binary trace decoder (the
# archive ingests untrusted payloads through it). CI runs this; local
# deep fuzzing just raises -fuzztime.
fuzz-trace:
	$(GO) test -run '^$$' -fuzz FuzzReadBinary -fuzztime=10s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzReadAny -fuzztime=5s ./internal/trace/

# bench-store: price archive ingest (cold and dedup), fetch, and query
# on real benchmark traces; writes BENCH_store.json with throughput and
# the gzip storage ratio.
bench-store:
	BENCH_STORE_OUT=$(CURDIR)/BENCH_store.json $(GO) test -run TestStoreBenchReport -v .
	$(GO) test -bench 'BenchmarkStore' -benchmem .

# test-transport: the TCP multi-process transport suite under the race
# detector. In internal/mpi: the layer tables over net.Pipe (link
# framing, rendezvous coordinator and handshake, consistent-cut sweeps),
# the one-influence-bound-rule test, the in-test fleet tests — two of
# which run a second time with every connection on a seeded adversarial
# net.Conn (short writes, delays, stalled reader); -count=3 gives that
# wire three different seeds — and the frame-decoder corpus. Then the
# link's coalescing writer alone (queue order, control behind data,
# liveness, high-water mark, close, write failure, zero allocations)
# twenty more times, so each run draws twenty fresh chaos seeds against
# it. Then the fleet codecs, and the cross-process e2e: cross-backend
# determinism (2x4 and P=64 split four ways), the 2-process x 4-rank
# subprocess run byte-compared against in-process, and the
# crash-failover run where one member's process kills itself mid-run.
test-transport:
	$(GO) test -race -count=3 ./internal/mpi/
	$(GO) test -race -count=20 -run 'Link|Chaos' ./internal/mpi/
	$(GO) test -race ./internal/fleet/
	$(GO) test -race -run 'TestTransport' -v .

# fuzz-frame: a short fuzz smoke over the TCP frame decoder (every mesh
# byte passes through it). CI runs the poison corpus as a plain test;
# local deep fuzzing just raises -fuzztime.
fuzz-frame:
	$(GO) test -run '^$$' -fuzz FuzzFrameDecode -fuzztime=10s ./internal/mpi/

# test-zan: the compressed-domain analysis suite — the engine's unit
# tests, the analysis guards and oracle, and the property test proving
# the closed-form metrics against the expansion oracle and the replayer
# on every application skeleton (see docs/ANALYSIS.md).
test-zan:
	$(GO) test ./internal/zan/ ./internal/analysis/
	$(GO) test -run 'TestCompressedMetrics' -v .

# bench-zan: price the compressed-domain walk against the replay-based
# reference on PHASE and SWEEP3D traces at 1x and 100x their recorded
# iteration counts; writes BENCH_zan.json and fails unless zan is >=10x
# faster and >=10x lighter on allocations at 100x while staying flat
# across the scaling.
bench-zan:
	BENCH_ZAN_OUT=$(CURDIR)/BENCH_zan.json $(GO) test -run TestZanBenchReport -v -timeout 20m .

# test-faults: the fault-injection suite, including the
# crash-at-every-marker sweep over the PHASE and STENCIL examples
# (see docs/FAULTS.md).
test-faults:
	$(GO) test -run 'TestZeroFaultIdentity|TestFault|TestPhaseLeadCrashFailover|TestStencilLeadPromotion|TestConcurrentCrashDuringClustering|TestReplayFaultedCollectiveTrace|TestCrashSweep|TestJournalGoldenLeadFailover' -v .
	$(GO) test ./internal/fault/

# bench-faults: measure perturbed-vs-clean virtual makespan and the
# lead-failover overhead; writes BENCH_fault.json.
bench-faults:
	BENCH_FAULT_OUT=$(CURDIR)/BENCH_fault.json $(GO) test -run TestFaultBenchReport -v .

# test-wave: the idle-wave suite — noise-plan generators, the wave
# detector (fitting edge cases: single rank, crashed rank, two origins,
# P=1), the archive edges/waves endpoints, the golden seeded-pulse
# scenario, and the live in-flight desync detection e2e
# (see docs/OBSERVABILITY.md, "Idle waves").
test-wave:
	$(GO) test -race ./internal/wave/
	$(GO) test -race -run 'TestNoise|TestExampleNoisePlans|TestPulse' ./internal/fault/
	$(GO) test -race -run 'TestEdgesAndWavesEndpoints|TestLiveDesync' ./internal/store/
	$(GO) test -race -run 'TestWaveGoldenScenario|TestLiveDesyncFlaggedInFlight' .

# bench-wave: price wave detection against replaying the same trace;
# writes BENCH_wave.json (detector ns/op at 1x/4x/16x edge counts —
# budget 5% of replay time, the report fails beyond it) and checks the
# nil-registry counter path stays allocation-free.
bench-wave:
	BENCH_WAVE_OUT=$(CURDIR)/BENCH_wave.json $(GO) test -run TestWaveBenchReport -v .
	$(GO) test -run '^$$' -bench BenchmarkNilWaveCounters -benchmem ./internal/wave/

# test-fed: the federation suite under the race detector — the
# consistent-hash ring and mesh node units, the continuous-query
# engine, the in-process 3-peer mesh tests (replication placement,
# scatter-gather pagination, tenancy/quota/rate limits, conditional
# GETs, CQ gates, anti-entropy, dead-owner fallback), the concurrent-
# pusher storm (64 workers under -race, 1024 in plain builds), and the
# subprocess peer-death e2e (push through A, SIGKILL B, byte-identical
# reads from the survivors, sweep-repaired B after restart).
test-fed:
	$(GO) test -race ./internal/mesh/ ./internal/cq/
	$(GO) test -race -run 'TestFed' ./internal/store/
	$(GO) test -race -run 'TestFedPeerDeathAndAntiEntropyRecovery' -v .

# bench-fed: price federated ingest against a single unfederated peer
# (same traces, same HTTP edge); writes BENCH_fed.json with the
# replication overhead ratio, warm fan-out cost, and scatter-gather
# list latency on a 3-peer R=2 mesh.
bench-fed:
	BENCH_FED_OUT=$(CURDIR)/BENCH_fed.json $(GO) test -run TestFedBenchReport -v -timeout 20m .

clean:
	rm -f BENCH_obs.json BENCH_causal.json BENCH_fault.json \
		BENCH_refactor.json BENCH_store.json BENCH_live.json \
		BENCH_zan.json BENCH_wave.json \
		BENCH_fed.json \
		chameleon.journal.jsonl chameleon.trace.json chameleon.edges.jsonl
