GO ?= go

.PHONY: all check test test-race test-transport fuzz clean

all: check test

# check: everything must build, vet clean, and be gofmt'd. bench/ is its
# own module (the frozen benchmark harness), so ./... never reaches it:
# vet and test it by name, or an API change it compiles against first
# fails at the benchmark gate. internal/sig walks frame pointers in an
# amd64 assembly stub (vet's asmdecl checks it against its declaration)
# and every other GOARCH takes the portable full walk: cross-building
# and vetting for arm64, which needs no network, keeps that file
# compiling. internal/tracegen (the fuzzers' trace generator) is for
# tests only: no tool and no library package may import it.
check:
	$(GO) build ./...
	$(GO) vet ./...
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/sig/
	$(GO) -C bench vet .
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then \
		echo "gofmt needed on:"; echo "$$fmt"; exit 1; fi
	@if $(GO) list -deps ./cmd/... . | grep -qx chameleon/internal/tracegen; then \
		echo "chameleon/internal/tracegen is for tests only, and a binary imports it:"; \
		$(GO) list -deps -f '{{.ImportPath}}{{range .Imports}}{{if eq . "chameleon/internal/tracegen"}} imports it{{end}}{{end}}' ./cmd/... . | grep 'imports it$$'; exit 1; fi

# test: every suite, cost budgets included (virtual-time and allocation
# assertions). One subsystem: name its packages, `go test ./internal/store/`.
test:
	$(GO) test ./...
	$(GO) -C bench test .

# test-race: the observability registry is hammered from 64 goroutines
# and the causal store is appended from every rank concurrently; the
# full suite (including internal/causal) runs under the race detector.
# Then the tests that drive a clock.Fake (clock.Every, the live
# tracker's watches and heartbeat, the rate limiter, the CQ long poll,
# the shipper's period and backoff) twenty more times: each hands the
# clock between its own goroutine and the code's, and a wait armed
# after the test advances, or a wake-up lost, shows only on some
# interleavings. The federated listing's model, edge-independence,
# partial and recount tests join them: each of its two fan-outs fills
# one slot per peer from that peer's goroutine. So does its lending
# test: a listing holds index records past the lock while deletes,
# re-ingests, compactions and sweeps replace them. So do the crash-failover tests: every rank
# holds the broadcast cluster table by reference, and a survivor that
# wrote into it while folding a crash would race with the other ranks'
# reads on only some schedules. So do the DistributedSelect tests: a
# parent reads the working set a child handed it by RawSend, and the
# child must not write it again. So do the archive's request-bound
# tests: serve waits for a handler on a goroutine of its own and answers
# 503 at the deadline, and a reply the handler gives after that (a
# relayed peer body) must be dropped by the handler's goroutine alone.
# So do the request-body lifetime tests: a PUT body is shared by
# reference count between serve, the handler's goroutine and the
# transport's readers, and a holder let go too early shows only when
# the pool hands the buffer on, on some interleavings. So do the marker
# vote's tests: every rank leaves its vote in its own CallInfo and reads
# the sum the barrier returned into it, and the oracle's survivors vote
# over a shrunken group. So do the survivors' marker barrier and the
# auto-marked crash: each rank swaps its marker communicator's group to
# the survivors at the crash marker while the others barrier on theirs.
# So do the evaluated collectives' tests (Alltoall, Barrier and
# Allreduce): members meet at a shared slot, and the last to arrive
# writes every waiter's clock, hands it the reduced word and wakes it,
# a hand-off that can race the waiter's own park, and recycles the slot
# while the waiters wake. So do the tree
# collectives' fuzz seeds, over the same shared groups and tags, and
# the Group collectives' against the helpers they replaced. The oracle
# repeats only its STENCIL and PHASE
# runs (both call frequencies, phase changes and the lead crash): its LU
# and EMF runs take the same code paths at ten times the cost under the
# race detector, and they run once in the full-suite pass above.
test-race:
	$(GO) test -race ./...
	$(GO) test -race -count=20 -run 'TestEvery|TestFake|TestLiveWatch|TestLiveMissedHeartbeat|TestLiveEviction|RateLimit|TestWatchLongPoll|TestShipper|TestScatterList(Model|EdgeIndependence|Partial|RecountsDisputed|LendsRecords)$$|TestDeparturesLeaveSharedTableAlone|TestPhaseLeadCrashFailover|TestStencilLeadPromotion|TestConcurrentCrashDuringClustering|TestJournalGoldenLeadFailover|TestAutoMarkerFiresCrashDirective|TestDistributedSelect(MatchesSequentialTree|ObjectsPerRank)?$$|TestStuckHandlerAnsweredAtDeadline|TestSlowBodyAnsweredAtDeadline|TestDroppedRelayClosesPeerBody|TestOverCapBodyClosesConnection|TestPutDroppedAtDeadlineKeepsItsBytes|TestForwardAnsweredBeforeBodyReadKeepsItsBytes' ./internal/clock/ ./internal/store/ ./internal/cq/ ./internal/obs/ ./internal/core/ ./internal/cluster/ .
	$(GO) test -race -count=20 -run 'TestMarkerWordCostsNothing|TestSurvivorsMarkerIsAWorldMarker|FuzzAlltoallEvalMatchesEnacted|FuzzAllreduceEvalMatchesEnacted|FuzzTreeCollectivesMatchReference|FuzzGroupMatchesReference|TestWildcardBesideEvaluated(Alltoall|Barrier)' ./internal/mpi/
	$(GO) test -race -count=20 -run 'TestVoteMatchesTwoCollectiveOracle/(STENCIL|PHASE)/' ./internal/core/

# fuzz: a short fuzz smoke over every decoder that parses bytes from
# outside the program: the binary trace decoder (the archive ingests
# untrusted payloads through it) alone and against the pre-change
# decoder kept in a test file (accept/reject and decoded file must
# agree), the PUT path's canonical-payload scan against decoding and
# re-encoding (it accepts exactly the bytes that re-encode to themselves,
# and summarizes them as the decoded file), the walk over the bytes
# against decoding and then visiting the tree (it fails exactly when the
# decoder does, and makes the same callbacks), the consuming inter-node
# merge against the cloning one kept in a test file (the same nodes and
# cost, and the reference's inputs untouched), the intra-node fold
# against the reference fold kept in a test file (the same sequence,
# size and Compares after every append), the sparse histogram
# every decoded leaf holds against the pre-change array one (any op
# sequence must read the same), the TCP frame decoder (every fleet
# byte passes through it), the fault-plan decoder (-faults input, text
# and JSON) and its generator directives against the noise-spec parser
# kept in a test file (the same specs accepted, the same pulses), the
# manifest-log replay decoder (whatever a crash left on
# disk) and the federated listing's merge of peer answers (whatever a
# peer's first- or second-round body says, and, when the answers are
# honest, against a brute-force union and the Rest-list protocol kept
# in a test file), the edge-sidecar decoder every PUT of a run's edges
# meets at the edge and on each peer (an accepted stream re-encodes and
# reads back equal, a refusal names its line), the rank-list compactor against the pre-change one kept
# in a test file (every descriptor must agree), the rank-list
# normal-form check against expanding and re-compacting with that
# compactor, the rank-class cutter against expanding its lists (every
# rank in exactly one class, of the lists that cover it), every door a
# rank list enters by (FromRanks, Union, the binary and JSON decoders)
# against its normal form, with Shift and Classes giving disjoint
# pieces, and the clustering
# step's selection against the pre-change one kept in a test file
# (every lead, descriptor and distance count must agree), and the
# compressed-domain analysis against the pre-change one kept in a test
# file over generated programs (the whole report must agree), and the
# trace readers (summary, volumes, matrix, critical path, diff) against
# the per-rank ones kept in a test file over generated pairs of traces
# (every field must agree); those two draw their programs from one
# generator, internal/tracegen, so both meet the same shapes. Beside
# the decoders, the in-process Alltoall's evaluator is fuzzed against
# the enacted message exchange (every rank's clock and ledger must
# agree, over the world, member subsets and two groups sharing a tag),
# and so are the Barrier's and Allreduce's (clocks, ledgers and the
# returned words, five instances back to back),
# and the tree collectives that walk TreePeer against the pre-change
# ones kept in a test file (the same clocks, ledgers and values, over
# the same cases with a drawn root), and the collectives of a Group
# communicator against the member-list helpers they replaced, kept in
# a test file (the same clocks, ledgers and values). The seed and poison
# corpora run as plain tests in `make test`; the readers' 2000 seeds do
# too, but under -fuzz that target starts from 64 of them, since the
# fuzzer replays every seed before it tries a new input;
# CI runs this for the fuzzing time on top, and local deep fuzzing just
# raises -fuzztime. Each target minimizes a new input for at most 2 s:
# minimizing is unbounded by default and runs at no execs/s, so without
# the bound a target that finds one late can spend its whole -fuzztime
# on it.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzReadBinary -fuzztime=10s -fuzzminimizetime=2s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzReadAny -fuzztime=5s -fuzzminimizetime=2s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzRankListsNormal -fuzztime=10s -fuzzminimizetime=2s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzDecodeMatchesReference -fuzztime=10s -fuzzminimizetime=2s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzScanMatchesDecode -fuzztime=10s -fuzzminimizetime=2s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzWalkMatchesAccept -fuzztime=10s -fuzzminimizetime=2s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzMergeMatchesReference -fuzztime=10s -fuzzminimizetime=2s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzFoldMatchesReference -fuzztime=10s -fuzzminimizetime=2s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzHistogramMatchesReference -fuzztime=10s -fuzzminimizetime=2s ./internal/stats/
	$(GO) test -run '^$$' -fuzz FuzzFrameDecode -fuzztime=10s -fuzzminimizetime=2s ./internal/mpi/
	$(GO) test -run '^$$' -fuzz FuzzAlltoallEvalMatchesEnacted -fuzztime=10s -fuzzminimizetime=2s ./internal/mpi/
	$(GO) test -run '^$$' -fuzz FuzzAllreduceEvalMatchesEnacted -fuzztime=10s -fuzzminimizetime=2s ./internal/mpi/
	$(GO) test -run '^$$' -fuzz FuzzTreeCollectivesMatchReference -fuzztime=10s -fuzzminimizetime=2s ./internal/mpi/
	$(GO) test -run '^$$' -fuzz FuzzGroupMatchesReference -fuzztime=10s -fuzzminimizetime=2s ./internal/mpi/
	$(GO) test -run '^$$' -fuzz FuzzPlanDecode -fuzztime=5s -fuzzminimizetime=2s ./internal/fault/
	$(GO) test -run '^$$' -fuzz FuzzGeneratorsMatchReference -fuzztime=5s -fuzzminimizetime=2s ./internal/fault/
	$(GO) test -run '^$$' -fuzz FuzzManifestLog -fuzztime=5s -fuzzminimizetime=2s ./internal/store/
	$(GO) test -run '^$$' -fuzz FuzzScatterMerge -fuzztime=5s -fuzzminimizetime=2s ./internal/store/
	$(GO) test -run '^$$' -fuzz FuzzReadEdges -fuzztime=5s -fuzzminimizetime=2s ./internal/obs/
	$(GO) test -run '^$$' -fuzz FuzzUnionMatchesReference -fuzztime=10s -fuzzminimizetime=2s ./internal/ranklist/
	$(GO) test -run '^$$' -fuzz FuzzNormalFormCheck -fuzztime=10s -fuzzminimizetime=2s ./internal/ranklist/
	$(GO) test -run '^$$' -fuzz FuzzRankClasses -fuzztime=10s -fuzzminimizetime=2s ./internal/ranklist/
	$(GO) test -run '^$$' -fuzz FuzzSelectMatchesReference -fuzztime=10s -fuzzminimizetime=2s ./internal/cluster/
	$(GO) test -run '^$$' -fuzz FuzzAnalyzeMatchesReference -fuzztime=10s -fuzzminimizetime=2s ./internal/zan/
	$(GO) test -run '^$$' -fuzz FuzzReadersMatchReference -fuzztime=10s -fuzzminimizetime=2s ./internal/analysis/

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
# it, with the waits a clock.Fake drives (the formation and reply
# deadlines, the cut's repoll pause: each hands the clock between the
# test and the transport's goroutines); and the mailbox protocol with
# its concurrent bound scans twenty more times, because a lost wake-up
# or a state store outside the lock shows only on some interleavings. Then the fleet codecs, and the cross-process e2e: cross-backend
# determinism (2x4 and P=64 split four ways), the fleet under
# perturbation plans (a delay+slow plan on PHASE 2x4 and a periodic
# pulse on STENCIL 2x4, byte-compared against in-process), the
# 2-process x 4-rank subprocess run byte-compared against in-process,
# and the crash-failover run where one member's process kills itself
# mid-run. The e2e children are cli.Main re-execs: the test binary
# started with CHAMELEON_TOOL=chamrun is chamrun (the root TestMain, in
# e2e_test.go), so no Test* function is a child body and -run
# 'TestTransport' selects tests only.
test-transport:
	$(GO) test -race -count=3 ./internal/mpi/
	$(GO) test -race -count=20 -run 'Link|Chaos|Formation|Reply|Repoll' ./internal/mpi/
	$(GO) test -race -count=20 -run 'Mailbox|InfluenceBound' ./internal/mpi/
	$(GO) test -race ./internal/fleet/
	$(GO) test -race -run 'TestTransport' -v .

clean:
	rm -f chameleon.journal.jsonl chameleon.trace.json chameleon.edges.jsonl
