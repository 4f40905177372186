GO ?= go

.PHONY: build test race vet check bench bench-quick same-output fuzz-smoke chaos-check

build:
	$(GO) build ./...

# test is tier 1. It also holds the deterministic allocation ceilings
# (TestDatapathAllocs, TestHandoverAllocs, TestRunLoadAllocsPerArrival,
# TestAuditAllocations, TestQueueAllocs and the zero-alloc tests beside
# them), which skip themselves under -race.
test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# vet also fails when gofmt -l . prints anything.
vet:
	@test -z "$$(gofmt -l .)" || { echo "gofmt -l . is not empty:"; gofmt -l .; exit 1; }
	$(GO) vet ./...

# check is the CI gate: everything must build, vet clean, and pass the
# test suite plain (for the allocation ceilings) and race-enabled.
check: vet build test race

# bench runs the repository's one ruler (bench/README.md): six workloads
# end to end, their traced reps and the per-layer drivers (~6 min).
# bench-quick is its smoke run (1/50 sizes, one rep, no tracing). Both
# exit non-zero when the golden transcript, an audit, or the identity of
# a seed's reps on the virtual axis fails.
bench:
	$(GO) run ./bench

bench-quick:
	$(GO) run ./bench -quick

# same-output compares runs that must print the same bytes. Two checks,
# each a byte comparison of stdout:
#   - the mobility experiment, session checksum included, at -parallel 1
#     against -parallel 4 (a broken session fails the run itself);
#   - the load experiment, fingerprint row included, sequential against
#     2, 4 and 8 shards (wall clock and heap go to stderr by design).
# The canonical suite (-exp all -n 5 -seed 1) against its golden file is
# not here: TestOutputMatchesGolden in cmd/edgesim checks the same bytes
# at the same GOMAXPROCS=1 on every `go test ./...`.
# Binary and transcripts live in a temporary directory removed on exit.
same-output:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/edgesim ./cmd/edgesim; \
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
	$(GO) test -run '^$$' -fuzz FuzzAuditSkip -fuzztime 20s -fuzzminimizetime 1s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzFlowID -fuzztime 20s -fuzzminimizetime 1s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzClassifier -fuzztime 20s -fuzzminimizetime 1s ./internal/openflow/
	$(GO) test -run '^$$' -fuzz FuzzYAML -fuzztime 20s -fuzzminimizetime 1s ./internal/yaml/
	$(GO) test -run '^$$' -fuzz FuzzNumberPrecheck -fuzztime 20s -fuzzminimizetime 1s ./internal/yaml/
	$(GO) test -run '^$$' -fuzz FuzzPcapReader -fuzztime 20s -fuzzminimizetime 1s ./internal/pcap/

# chaos-check is the chaos-hardening gate: the full-trace chaos replay
# must hold its invariants (exit 0) under the race detector's build,
# and the seeded-random convergence property plus the multi-seed
# invariant suite must pass with -race.
chaos-check:
	$(GO) build -race -o /tmp/edgesim-chaos ./cmd/edgesim
	/tmp/edgesim-chaos -exp chaos -seed 1
	$(GO) test -race -run 'TestChaos' ./internal/testbed/
	@echo "chaos-check: invariants held"
