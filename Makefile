GO ?= go

.PHONY: build test race vet check bench bench-quick bench-sim bench-sim-guard bench-load bench-load-guard fastpath-diff fuzz-smoke shard-diff seed-diff mobility-diff chaos-check

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
# the multi-hop 83 KiB bulk transfer (with its per-hop baseline twin for
# the fast-path A/B ratio), and the allocation-free steady-state packet
# hop.
SIM_BENCHES = BenchmarkRequestResponse|BenchmarkPacketSwitchingFanIn|BenchmarkBulkTransfer|BenchmarkPacketHop
bench-sim:
	$(GO) test -bench='$(SIM_BENCHES)' -benchtime=2s -benchmem -run=^$$ ./internal/netem/

# bench-sim-guard is the CI smoke gate: the steady-state packet hop must
# stay allocation-free, and the fan-in and bulk-transfer datapaths must
# hold their allocation ceilings (measured 85 and 18 allocs/op, gated
# with headroom for scheduling variance). allocs/op is deterministic, so
# the ceilings hold on shared runners. The (-[0-9]+)?$ tail keeps the
# gates matching on multi-core runners, where go test suffixes
# -GOMAXPROCS to the name.
bench-sim-guard:
	$(GO) test -bench='BenchmarkPacketHop|BenchmarkPacketSwitchingFanIn|BenchmarkBulkTransfer$$' -benchtime=100x -benchmem -run=^$$ ./internal/netem/ | \
		$(GO) run ./cmd/benchguard \
			-gate 'BenchmarkPacketHop(-[0-9]+)?$$=0' \
			-gate 'BenchmarkPacketSwitchingFanIn(-[0-9]+)?$$=96' \
			-gate 'BenchmarkBulkTransfer(-[0-9]+)?$$=24'

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
# 250k-flow / 500k-arrival open-loop run must hold its measured ceiling
# sequential and sharded (6.14M allocs each with the event-driven
# packet-in path, gated at +10 %); one complete handover (link re-home,
# make-before-break re-steer, route convergence, and a verified session
# round) must stay under 64 allocs (measured 42); and one reconciler
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

# shard-diff verifies sharded execution is invisible: the load
# experiment's stdout — fingerprint row included — must be byte-
# identical whether the run is sequential or service-partitioned across
# 2, 4, or 8 clocks. Only stdout is compared: wall-clock, peak heap,
# and the shard count itself go to stderr by design.
shard-diff:
	$(GO) build -o /tmp/edgesim-shdiff ./cmd/edgesim
	/tmp/edgesim-shdiff -exp load -flows 50000 -shards 1 > /tmp/shdiff-1.txt
	/tmp/edgesim-shdiff -exp load -flows 50000 -shards 2 > /tmp/shdiff-2.txt
	/tmp/edgesim-shdiff -exp load -flows 50000 -shards 4 > /tmp/shdiff-4.txt
	/tmp/edgesim-shdiff -exp load -flows 50000 -shards 8 > /tmp/shdiff-8.txt
	diff /tmp/shdiff-1.txt /tmp/shdiff-2.txt
	diff /tmp/shdiff-1.txt /tmp/shdiff-4.txt
	diff /tmp/shdiff-1.txt /tmp/shdiff-8.txt
	@echo "shard-diff: load output byte-identical across 1/2/4/8 shards"

# seed-diff is the golden-output gate: the canonical experiment suite
# (-exp all -n 5 -seed 1) must be byte-identical to the committed
# golden file, with the fast path on and off. Any intentional output
# change must regenerate testdata/golden/exp_all_n5_seed1.txt in the
# same commit and justify itself in review.
seed-diff:
	$(GO) build -o /tmp/edgesim-golden ./cmd/edgesim
	/tmp/edgesim-golden -exp all -n 5 -seed 1 > /tmp/golden-on.txt
	/tmp/edgesim-golden -exp all -n 5 -seed 1 -no-fastpath > /tmp/golden-off.txt
	diff testdata/golden/exp_all_n5_seed1.txt /tmp/golden-on.txt
	diff testdata/golden/exp_all_n5_seed1.txt /tmp/golden-off.txt
	@echo "seed-diff: -exp all output matches the committed golden file (fast path on and off)"

# mobility-diff verifies the handover subsystem is deterministic and
# invisible to the execution knobs: the mobility experiment's output —
# session checksum included — must be byte-identical across worker
# counts and the fast path, and every session must survive
# every handover (zero continuity breaks is asserted by the run itself
# failing the final line otherwise).
mobility-diff:
	$(GO) build -o /tmp/edgesim-mob ./cmd/edgesim
	/tmp/edgesim-mob -exp mobility -seed 1 -parallel 1 > /tmp/mob-1.txt
	/tmp/edgesim-mob -exp mobility -seed 1 -parallel 4 > /tmp/mob-4.txt
	/tmp/edgesim-mob -exp mobility -seed 1 -no-fastpath > /tmp/mob-nofp.txt
	diff /tmp/mob-1.txt /tmp/mob-4.txt
	diff /tmp/mob-1.txt /tmp/mob-nofp.txt
	@echo "mobility-diff: mobility output byte-identical across -parallel, -no-fastpath"

# fastpath-diff verifies the datapath fast path is invisible: the full
# experiment suite must be byte-identical with the fast path on and off,
# sequentially and under parallel replications.
fastpath-diff:
	$(GO) build -o /tmp/edgesim-fpdiff ./cmd/edgesim
	/tmp/edgesim-fpdiff -exp all -n 5 -seed 1 > /tmp/fpdiff-on.txt
	/tmp/edgesim-fpdiff -exp all -n 5 -seed 1 -no-fastpath > /tmp/fpdiff-off.txt
	/tmp/edgesim-fpdiff -exp all -n 5 -seed 1 -parallel 4 > /tmp/fpdiff-on-par.txt
	/tmp/edgesim-fpdiff -exp all -n 5 -seed 1 -no-fastpath -parallel 4 > /tmp/fpdiff-off-par.txt
	diff /tmp/fpdiff-on.txt /tmp/fpdiff-off.txt
	diff /tmp/fpdiff-on.txt /tmp/fpdiff-on-par.txt
	diff /tmp/fpdiff-on.txt /tmp/fpdiff-off-par.txt
	@echo "fastpath-diff: experiment outputs byte-identical"

# fuzz-smoke runs each native fuzz target for a short while from its
# checked-in corpus (testdata/fuzz/<target>/, which plain `go test`
# already replays as unit cases). One target per line: go test -fuzz
# takes exactly one. -fuzzminimizetime caps the minimiser, which
# otherwise may spend the whole budget shrinking the first new input.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzEventQueue -fuzztime 20s -fuzzminimizetime 1s ./internal/vclock/
	$(GO) test -run '^$$' -fuzz FuzzFlowMemory -fuzztime 20s -fuzzminimizetime 1s ./internal/core/

# chaos-check is the chaos-hardening gate: the full-trace chaos replay
# must hold its invariants (exit 0) under the race detector's build,
# and the seeded-random convergence property plus the multi-seed
# invariant suite must pass with -race.
chaos-check:
	$(GO) build -race -o /tmp/edgesim-chaos ./cmd/edgesim
	/tmp/edgesim-chaos -exp chaos -seed 1
	$(GO) test -race -run 'TestChaos' ./internal/testbed/
	@echo "chaos-check: invariants held"
