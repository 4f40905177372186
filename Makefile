GO ?= go

.PHONY: build test race vet check bench bench-quick bench-sim bench-sim-guard bench-load bench-load-guard same-output fuzz-smoke chaos-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# vet also fails when gofmt -l . prints anything.
vet:
	@test -z "$$(gofmt -l .)" || { echo "gofmt -l . is not empty:"; gofmt -l .; exit 1; }
	$(GO) vet ./...

# check is the CI gate: everything must build, vet clean, and pass the
# race-enabled test suite.
check: vet build race

# bench runs the repository's one ruler (bench/README.md): six workloads
# end to end, their traced reps and the per-layer drivers (~6 min).
# bench-quick is its smoke run (1/50 sizes, one rep, no tracing). Both
# exit non-zero when the golden transcript, an audit, or the identity of
# a seed's reps on the virtual axis fails.
bench:
	$(GO) run ./bench

bench-quick:
	$(GO) run ./bench -quick

# bench-sim runs the discrete-event engine microbenchmarks: a full TCP
# request/response over the emulated network, the 8-client switch fan-in,
# the multi-hop 83 KiB bulk transfer, and the allocation-free
# steady-state packet hop.
SIM_BENCHES = BenchmarkRequestResponse|BenchmarkPacketSwitchingFanIn|BenchmarkBulkTransfer|BenchmarkPacketHop
bench-sim:
	$(GO) test -bench='$(SIM_BENCHES)' -benchtime=2s -benchmem -run=^$$ ./internal/netem/

# bench-sim-guard is the CI smoke gate: the steady-state packet hop must
# stay allocation-free, and the fan-in and bulk-transfer datapaths must
# hold their allocation ceilings (measured 84 and 11–12 allocs/op, gated
# with headroom for scheduling variance). allocs/op is deterministic, so
# the ceilings hold on shared runners. The (-[0-9]+)?$ tail keeps the
# gates matching on multi-core runners, where go test suffixes
# -GOMAXPROCS to the name.
bench-sim-guard:
	$(GO) test -bench='BenchmarkPacketHop|BenchmarkPacketSwitchingFanIn|BenchmarkBulkTransfer$$' -benchtime=100x -benchmem -run=^$$ ./internal/netem/ | \
		$(GO) run ./cmd/benchguard \
			-gate 'BenchmarkPacketHop(-[0-9]+)?$$=0' \
			-gate 'BenchmarkPacketSwitchingFanIn(-[0-9]+)?$$=96' \
			-gate 'BenchmarkBulkTransfer(-[0-9]+)?$$=16'

# bench-load runs the scale benchmarks: the streaming-telemetry record
# path, the O(1) Zipf alias draw, the event queue at one million pending
# timers (post/stop churn and firing drain), and the 250k-flow open-loop
# load engine end to end — sequential and sharded four ways.
bench-load:
	$(GO) test -bench='BenchmarkHistRecord' -benchtime=2s -benchmem -run=^$$ ./internal/metrics/
	$(GO) test -bench='BenchmarkZipfAlias' -benchtime=2s -benchmem -run=^$$ ./internal/testbed/
	$(GO) test -bench='BenchmarkMillionTimers' -benchtime=2s -benchmem -run=^$$ ./internal/vclock/
	$(GO) test -bench='BenchmarkOpenLoopLoad' -benchtime=1x -benchmem -run=^$$ .

# bench-load-guard gates three paths on allocation counts. One full
# 250k-flow / 500k-arrival open-loop run must hold its ceiling
# sequential and sharded (measured 5.64M allocs each, gated at 6.76M);
# one complete handover (link re-home, make-before-break re-steer, route
# convergence, and a verified session round) must stay under 64 allocs
# (measured 30); and one reconciler
# audit must stay at the 3.0 allocations per flow its desired specs cost
# at 1 k, 10 k and 100 k flows, converged or 1 % wrong (measured 3 019,
# 30 165 and 301 521 per audit, gated at +10 %; rendering flows to
# strings to compare them took 155 per flow). The zero-allocation
# ceilings are tier-1 tests, not make gates: TestHistRecordZeroAlloc
# (internal/metrics), TestZipfAliasZeroAlloc (internal/testbed) and
# TestQueueAllocs (internal/vclock). The (-\d+)?$ tail keeps the gates
# matching on multi-core runners, where go test suffixes -GOMAXPROCS.
bench-load-guard:
	$(GO) test -bench='BenchmarkOpenLoopLoad' -benchtime=1x -benchmem -run=^$$ . | \
		$(GO) run ./cmd/benchguard \
			-gate 'BenchmarkOpenLoopLoad(-[0-9]+)?$$=6760000' \
			-gate 'BenchmarkOpenLoopLoadSharded(-[0-9]+)?$$=6760000'
	$(GO) test -bench='BenchmarkHandover$$' -benchtime=200x -benchmem -run=^$$ . | \
		$(GO) run ./cmd/benchguard \
			-gate 'BenchmarkHandover(-[0-9]+)?$$=64'
	$(GO) test -bench='BenchmarkAudit' -benchtime=5x -benchmem -run=^$$ ./internal/core/ | \
		$(GO) run ./cmd/benchguard \
			-gate 'BenchmarkAudit/1k/=3320' \
			-gate 'BenchmarkAudit/10k/=33200' \
			-gate 'BenchmarkAudit/100k/=331700'

# same-output is the one same-output gate. Three checks, each a byte
# comparison of stdout:
#   - the canonical suite (-exp all -n 5 -seed 1) against the committed
#     golden file, at one P: with two Ps the fault replay's p99/max rows
#     move from run to run (bench/README.md, Observations 3). An
#     intentional output change regenerates
#     testdata/golden/exp_all_n5_seed1.txt in the same commit;
#   - the mobility experiment, session checksum included, at -parallel 1
#     against -parallel 4 (a broken session fails the run itself);
#   - the load experiment, fingerprint row included, sequential against
#     2, 4 and 8 shards (wall clock and heap go to stderr by design).
# Binary and transcripts live in a temporary directory removed on exit.
same-output:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/edgesim ./cmd/edgesim; \
	GOMAXPROCS=1 $$tmp/edgesim -exp all -n 5 -seed 1 > $$tmp/all.txt; \
	diff testdata/golden/exp_all_n5_seed1.txt $$tmp/all.txt; \
	echo "same-output: -exp all matches the golden file"; \
	$$tmp/edgesim -exp mobility -seed 1 -parallel 1 > $$tmp/mob-1.txt; \
	$$tmp/edgesim -exp mobility -seed 1 -parallel 4 > $$tmp/mob-4.txt; \
	diff $$tmp/mob-1.txt $$tmp/mob-4.txt; \
	echo "same-output: -exp mobility identical at -parallel 1 and 4"; \
	for n in 1 2 4 8; do $$tmp/edgesim -exp load -flows 50000 -shards $$n > $$tmp/load-$$n.txt; done; \
	for n in 2 4 8; do diff $$tmp/load-1.txt $$tmp/load-$$n.txt; done; \
	echo "same-output: -exp load identical at 1/2/4/8 shards"

# fuzz-smoke runs each native fuzz target for a short while from its
# checked-in corpus (testdata/fuzz/<target>/, which plain `go test`
# already replays as unit cases). One target per line: go test -fuzz
# takes exactly one. -fuzzminimizetime caps the minimiser, which
# otherwise may spend the whole budget shrinking the first new input.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzEventQueue -fuzztime 20s -fuzzminimizetime 1s ./internal/vclock/
	$(GO) test -run '^$$' -fuzz FuzzFlowMemory -fuzztime 20s -fuzzminimizetime 1s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzClassifier -fuzztime 20s -fuzzminimizetime 1s ./internal/openflow/

# chaos-check is the chaos-hardening gate: the full-trace chaos replay
# must hold its invariants (exit 0) under the race detector's build,
# and the seeded-random convergence property plus the multi-seed
# invariant suite must pass with -race.
chaos-check:
	$(GO) build -race -o /tmp/edgesim-chaos ./cmd/edgesim
	/tmp/edgesim-chaos -exp chaos -seed 1
	$(GO) test -race -run 'TestChaos' ./internal/testbed/
	@echo "chaos-check: invariants held"
