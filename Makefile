# Development entry points. `make check` is the tier-1 gate: everything in
# it must pass before a commit (see ROADMAP.md).

GO ?= go

.PHONY: check fmtcheck lint vet build test race bench-smoke chaos-smoke overload-smoke alloc-gate bench bench-all clean

check: fmtcheck lint vet build test race chaos-smoke overload-smoke bench-smoke

# The serve-path allocation gate, shared by bench-smoke and the Makefile
# test in alloc_gate_test.go. `go test -benchmem` reports allocs/op as a
# rounded integer, but a transcript may carry fractional values (e.g.
# 0.0166 allocs per request for EDGE), so the threshold is explicit: a
# BenchmarkServeRequest line with allocs/op >= 0.5 — anything that would
# round to a nonzero integer — fails.
ALLOC_GATE_AWK = /^BenchmarkServeRequest\// && $$NF == "allocs/op" && $$(NF-1)+0 >= 0.5 { bad = 1; print "alloc-gate: FAIL: serve path allocates: " $$0 } END { exit bad }

# Project-invariant static analysis (see README "Static analysis"): the
# icnvet suite must report zero findings on the repository. LINT_JSON=1
# switches to one JSON object per finding per line, for tooling that
# consumes the gate's output (CI annotations, dashboards).
LINT_FLAGS = $(if $(LINT_JSON),-json)
lint:
	$(GO) run ./cmd/icnvet $(LINT_FLAGS) ./...

fmtcheck:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "fmtcheck: gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# -shuffle=on randomizes test (and subtest) execution order to flush out
# order-dependent tests; -count=1 defeats caching so the shuffle actually
# runs every time.
test:
	$(GO) test -shuffle=on -count=1 ./...

# -count=1 for the same reason as test: a cached pass re-runs nothing.
race:
	$(GO) test -race -count=1 ./...

# One iteration of the perf-critical benchmarks: proves they still compile
# and run, without the minutes-long full benchmark pass. The first run also
# gates the zero-alloc contract: BenchmarkServeRequest (observer disabled)
# must stay under the ALLOC_GATE_AWK threshold; the Observed variant is
# tracked but not gated. BenchmarkShardedStream/ICN-NR runs ICN-NR through
# the sharded streaming loop on Geant at 1 and 2 workers and re-checks Result
# equality; BenchmarkProxyServeHit serves 1 KiB and 256 KiB proxy cache hits
# (what a hit may allocate is gated by TestHitDoesNotTouchBody in `make test`).
# BenchmarkNearestReplicaLookup and BenchmarkRunAbilene/ICN-NR keep the ICN-NR
# lookup's own rulers (by replica-set size; one whole unsharded run) running.
# BenchmarkIntLRUColdCaches drives 3,456 EDGE/ATT-sized leaf LRUs round-robin,
# the cold-memory regime the per-leaf caches run in, and reports allocs/op.
bench-smoke:
	@out="$$($(GO) test ./internal/sim -run '^$$' -bench '^BenchmarkServeRequest$$' -benchtime 1000x -benchmem)" || { echo "$$out"; exit 1; }; \
	echo "$$out"; \
	echo "$$out" | awk '$(ALLOC_GATE_AWK)'
	$(GO) test ./internal/sim -run '^$$' -bench '^BenchmarkServeRequestObserved$$' -benchtime 1000x -benchmem
	$(GO) test ./internal/sim -run '^$$' -bench '^BenchmarkNearestReplicaLookup$$' -benchtime 1x
	$(GO) test ./internal/sim -run '^$$' -bench '^BenchmarkRunAbilene$$/^ICN-NR$$' -benchtime 1x
	$(GO) test ./internal/cache -run '^$$' -bench '^BenchmarkIntLRUColdCaches$$' -benchtime 1x -benchmem
	$(GO) test . -run '^$$' -bench 'BenchmarkFigure6Parallel' -benchtime 1x
	$(GO) test . -run '^$$' -bench 'BenchmarkShardedStream/ICN-NR' -benchtime 1x
	$(GO) test ./internal/idicn/proxy -run '^$$' -bench '^BenchmarkProxyServeHit$$' -benchtime 100x -benchmem

# Apply the allocation gate to benchmark output piped on stdin. Exists so
# the gate's exact threshold is testable (see alloc_gate_test.go) and
# reusable from CI pipelines that already hold a benchmark transcript.
alloc-gate:
	@awk '$(ALLOC_GATE_AWK)'

# The stack-level chaos drill under the race detector: a seeded resolver
# blackout over 30% of a run must leave >= 99% of requests completing via
# graceful degradation, with reproducible injected-fault counts.
chaos-smoke:
	$(GO) test -race -count=1 -run '^TestChaosResolverBlackout$$' ./internal/idicn/integration

# The overload drill under the race detector: open-loop traffic past a
# fixed concurrency limit must be shed with bounded queue waits (no
# park-to-timeout), leave zero stuck goroutines, and drain cleanly.
overload-smoke:
	$(GO) test -race -count=1 -run '^TestOverloadSurge$$' ./internal/idicn/integration

# Append the daemon overload series (admitted/sec and p99 queue wait at 1x/2x/4x
# offered load, plus a load-under-chaos point that must engage the brownout
# ladder while holding goodput above a quarter of fault-free capacity) to
# BENCH_daemon.json. The simulator has no perf log here: `go run ./bench`
# measures it end to end (the sim_* workloads) and `go test -bench` per
# function.
bench:
	$(GO) run ./cmd/idicnd -bench-daemon BENCH_daemon.json -faults 'proxy:latency,d=120ms,p=0.5'

# Full benchmark pass over every artifact regeneration.
bench-all:
	$(GO) test -run '^$$' -bench . -benchmem ./...

clean:
	$(GO) clean ./...
