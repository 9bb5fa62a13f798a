GO ?= go

.PHONY: all build test vet fmt staticcheck race vet-precision bench-schedule bench-faults bench-service bench-sanitize bench-steal bench-perf-smoke verify

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
	$(GO) test -race ./...

# Analyzer precision gate: corpus expectations (including the
# commutativity verifier's vet:commutes / vet:refutes pins) + workload
# cleanliness, with per-check diagnostic counts and wall-clock timings
# written to vet-precision.json. A lost commutes or refutes pin is a
# violation and fails the gate.
vet-precision:
	$(GO) run ./cmd/commsetbench -vetprecision -precision-json vet-precision.json

# Schedule-report smoke: run the profile-guided auto-scheduler over every
# figure cell and write the executed schedules and speedups to
# BENCH_schedule.json (the CI artifact). -novet: vet-precision already
# gates the analyzers.
bench-schedule:
	$(GO) run ./cmd/commsetbench -json BENCH_schedule.json -auto -novet

# Fault-injection smoke: the CI-sized campaign (abort/stall/crash plans,
# including worker crash/restart and permanent-crash degraded mode) with
# the machine-readable report written to BENCH_faults.json (the CI
# artifact). -novet: vet-precision already gates the analyzers.
bench-faults:
	$(GO) run ./cmd/commsetbench -faults -smoke -novet -faults-json BENCH_faults.json

# Open-system service smoke: the CI-sized campaign over both services ×
# all transforms under seeded arrival traces (steady, overload ladder
# walk to the sequential fallback, mid-service crashes, rate ladder),
# with the machine-readable report written to BENCH_service.json (the CI
# artifact). -novet: vet-precision already gates the analyzers.
bench-service:
	$(GO) run ./cmd/commsetbench -service -smoke -novet -service-json BENCH_service.json

# Dynamic-sanitizer smoke: the CI-sized campaign (each workload's primary
# variant, all transforms × sync modes) under the vector-clock race
# detector and both-order replay oracle, plus the seeded misannotation
# negatives, with the machine-readable report written to
# BENCH_sanitize.json (the CI artifact). Every cell must be clean with
# virtual time bit-for-bit unchanged, and every negative flagged.
bench-sanitize:
	$(GO) run ./cmd/commsetbench -sanitize -smoke -novet -sanitize-json BENCH_sanitize.json

# Work-stealing smoke: the CI-sized straggler-resilience campaign (DOALL
# workloads × straggler/straggler+crash plans × steal off/on), with the
# machine-readable report written to BENCH_steal.json (the CI artifact).
# Gates: every cell sequential-equivalent, steal-enabled cells bit-for-bit
# deterministic, and under a ≥4x whole-loop straggler the steal-enabled
# run must finish in ≤60% of the steal-disabled virtual time on at least
# three workloads. -novet: vet-precision already gates the analyzers.
bench-steal:
	$(GO) run ./cmd/commsetbench -steal -smoke -novet -steal-json BENCH_steal.json

# Host-time benchmark smoke: perfbench is its own module, so go build ./...
# never compiles it. Vet it and run its smoke test (every BENCHMARK.json
# metric emitted, no failed operation) so a change that breaks a name it
# imports fails here, not in the benchmark run.
bench-perf-smoke:
	cd perfbench && $(GO) vet . && $(GO) test .

# The full pre-merge gate: build, vet (plus staticcheck when installed),
# formatting, the race-enabled test suite, the analyzer precision gate,
# the schedule-report smoke, the fault-injection (crash/restart) smoke,
# the open-system service smoke, the dynamic-sanitizer smoke, the
# work-stealing straggler smoke, and the host-time benchmark smoke.
verify: build vet staticcheck fmt race vet-precision bench-schedule bench-faults bench-service bench-sanitize bench-steal bench-perf-smoke
