GO ?= go

.PHONY: all build test vet fmt staticcheck race bench-layers bench-paper examples bench-campaigns bench-perf-smoke bench-pairs verify

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# gofmt -l lists unformatted files; fail if any.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# staticcheck, when installed; skipped gracefully otherwise so the gate
# works in containers that only ship the go toolchain.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; fi

race:
	$(GO) test -race -timeout 5m ./...

# Every per-layer Go benchmark (compile and vet, mid end, DES scheduler,
# interpreter, builtin substrate, sanitizer, resilient executor), one
# iteration each: go test ./... never runs a benchmark, so this keeps them
# building and running.
bench-layers:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/...

# The paper benchmarks of the root package (Table 1, Table 2, Figures 2,
# 3 and 6, the ablations), one iteration each.
bench-paper:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# Every program under examples/, run to completion (a failing run fails
# the target; their output is not checked).
examples:
	@for d in examples/*/; do $(GO) run ./$$d >/dev/null || exit 1; done

# The gated campaigns, CI-sized: the analyzer precision gate (corpus
# expectations including the commute verifier's commutes/refutes pins,
# every workload variant warning-free), the auto-scheduler schedule
# report, fault injection (crash/restart, degraded mode), the open-system
# service sweep, the dynamic sanitizer (every cell clean with virtual time
# unchanged, every seeded misannotation flagged), and work stealing under
# stragglers. Each writes BENCH_<name>.json (the CI artifacts), also when
# its gate fails. -novet: the precision campaign already gates the
# analyzers.
bench-campaigns:
	$(GO) run ./cmd/commsetbench -campaign all -smoke -novet

# Host-time benchmark smoke: perfbench is its own module, so go build ./...
# never compiles it. Vet it and run its smoke test (every BENCHMARK.json
# metric emitted, no failed operation) so a change that breaks a name it
# imports fails here, not in the benchmark run.
bench-perf-smoke:
	cd perfbench && $(GO) vet . && $(GO) test .

# Paired perfbench runs of a base commit against the working tree, 20 s
# each, alternating which side runs first (scripts/bench-pairs.sh; not part
# of verify): make bench-pairs BASE=HEAD~1 WORKLOAD=sim-resilient PAIRS=10
bench-pairs:
	@if [ -z "$(BASE)" ] || [ -z "$(WORKLOAD)" ] || [ -z "$(PAIRS)" ]; then \
		echo "usage: make bench-pairs BASE=rev WORKLOAD=name PAIRS=n"; exit 2; fi
	bash scripts/bench-pairs.sh $(BASE) $(WORKLOAD) $(PAIRS)

# The full pre-merge gate: build, vet (plus staticcheck when installed),
# formatting, the test suite (which alone runs the tests that race builds
# leave out, such as the schedule report pin), the race-enabled test
# suite, the per-layer and paper benchmarks, the examples, the gated
# campaigns, and the host-time benchmark smoke.
verify: build vet staticcheck fmt test race bench-layers bench-paper examples bench-campaigns bench-perf-smoke
