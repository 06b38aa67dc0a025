# SmartCrawl reproduction — common workflows.

GO ?= go

.PHONY: all build vet test test-short race check lint allocguard chaos crashtest fedtest crawldtest tracetest benchtest bench microbench bench-hotpath bench-scale experiments examples fuzz cover clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Full race tier: every package under the detector, including the 64-goroutine
# dispatcher/rate-limiter stress tests in internal/deepweb.
race:
	$(GO) test -race ./...

# The pre-merge gate: lint (vet + gofmt, staticcheck when installed), the
# full suite under the race detector, the allocation-regression guard
# (which -race would skip), the kill-anywhere crash-recovery matrix
# against the real binaries (smartcrawl and crawld), the federation
# suite, the crawld service suite, the trace-tooling suite, and the crawl
# benchmark's self-test.
check: lint race allocguard crashtest fedtest crawldtest tracetest benchtest

# Static analysis: go vet (also as a Windows build, so the non-Unix
# fallbacks keep compiling), a gofmt cleanliness gate, and staticcheck
# when the binary is on PATH (it is optional — the repo builds with the
# standard toolchain only).
lint: vet
	GOOS=windows $(GO) vet ./...
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping"; \
	fi

# Pins of the zero-allocation steady-state selection kernel and the warm
# Jaccard probe; runs without -race because the detector instruments
# allocations.
allocguard:
	$(GO) test -count=1 -run TestSteadyStateRemoveAllocFree ./internal/crawler/
	$(GO) test -count=1 -run TestJaccardProbeAllocFree ./internal/match/

# Chaos drill (docs/OPERATIONS.md): the fault-injection and resilience
# tests, the Smart.Run golden oracle (its scenarios include severe faults,
# a faulted federation and graceful shutdown) and the lost-requeue
# regression, ending with the graceful-degradation acceptance sweep — ≥90%
# of clean coverage at a 10% transient-fault rate, fully accounted. The
# slow sweep honors -short, so `go test -short` stays fast.
chaos:
	$(GO) test -v -run 'Faulty|Breaker|Guarded|Resilience|FaultSweep|InjectedFaults|SmartGolden|PendingRequeue' \
		./internal/deepweb/... ./internal/crawler/

# Crash drill (docs/OPERATIONS.md): SIGKILL the real smartcrawl binary at
# deterministic journal points — including mid-record, torn-write ones —
# resume from the snapshot + WAL, and require the combined run to match an
# uninterrupted one byte-for-byte. Built with -race here, so the signal
# handler and shutdown paths run under the detector too.
crashtest:
	$(GO) test -race -count=1 -v -run 'CrashRecovery|GracefulInterrupt' ./internal/durable/crashtest/

# Service drill (docs/OPERATIONS.md "Running crawld"): the jobs
# orchestrator under the race detector — lifecycle, events streaming,
# admission control, drain semantics, concurrent-jobs determinism, and the
# cross-surface e2e that proves a daemon job is byte-identical to the same
# crawl through the smartcrawl CLI. The daemon SIGKILL-recovery cell runs
# with `make crashtest`.
crawldtest:
	$(GO) test -race -count=1 -v ./internal/jobs/

# Federation drill (docs/OPERATIONS.md "Federated crawling"): the
# determinism oracle over seeds × workers × interface counts, the n=1
# single-interface byte-equivalence, the charge-sum budget identity, the
# spec-grammar tests, and the two-hiddenserver e2e — all under the race
# detector. The federated crash matrix runs with `make crashtest`.
fedtest:
	$(GO) test -race -count=1 -v ./internal/federate/

# Trace-tooling drill (docs/OPERATIONS.md "Analyzing a trace with
# tracetool"): the internal/trace parser round-tripped against every
# schema event type, tracetool's golden-file CLI outputs, and the
# clean-vs-transient10 diff e2e on real crawls. Goldens regenerate with
# `go test ./cmd/tracetool/ -update`.
tracetest:
	$(GO) test -race -count=1 -v ./internal/trace/ ./cmd/tracetool/

# The crawl benchmark's self-test: toy-size workloads plus the recorded
# toy output digests. perfbench is a module of its own, so the root
# build and test commands never compile it.
benchtest:
	cd perfbench && $(GO) test -count=1 ./...

# One pass over every per-figure bench, tables visible in the log.
bench:
	$(GO) test -bench . -benchtime 1x -v .

# Micro-benchmarks of the substrates.
microbench:
	$(GO) test -bench . -benchmem ./internal/...

# Hot-path microbenchmarks behind BENCH_hotpath.json: pool build + stat
# setup, the selection-loop drain, and the remove/rescore kernel, with
# allocation counts. Raw output lands in bench_hotpath.txt; fold the
# numbers into BENCH_hotpath.json when recording a before/after.
bench-hotpath:
	$(GO) test -bench 'BenchmarkPoolBuild|BenchmarkSelectionLoop|BenchmarkRemove' \
		-benchmem -benchtime 5x -count 1 -run '^$$' ./internal/crawler/ | tee bench_hotpath.txt

# Out-of-core scale benchmarks behind BENCH_scale.json: streaming
# ingestion, sampled pool build, and the selection-loop drain over the
# memory-mapped index, all at 10× the BENCH_hotpath corpus with a
# heap-peak-MB column. TestScaleMemoryCeiling (plain `make test`) pins
# the mapped path's heap growth under a fixed budget.
bench-scale:
	$(GO) test -bench 'BenchmarkScale' -benchmem -benchtime 3x -count 1 \
		-run '^$$' -timeout 30m ./internal/crawler/ | tee bench_scale.txt

# Regenerate every paper table/figure at 10% scale. The output is not
# committed (results_scale01.txt is gitignored); EXPERIMENTS.md records
# the reference numbers.
experiments:
	$(GO) run ./cmd/experiments -scale 0.1 all | tee results_scale01.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/dblp_enrichment
	$(GO) run ./examples/yelp_enrichment
	$(GO) run ./examples/http_crawl
	$(GO) run ./examples/quota_resume
	$(GO) run ./examples/form_crawl

fuzz:
	$(GO) test -fuzz FuzzTokens -fuzztime 30s ./internal/tokenize/
	$(GO) test -fuzz FuzzPorterStem -fuzztime 30s ./internal/tokenize/
	$(GO) test -fuzz FuzzLoadResult -fuzztime 30s ./internal/crawler/
	$(GO) test -fuzz FuzzSnapshotEncoder -fuzztime 30s ./internal/crawler/
	$(GO) test -fuzz FuzzLoadCSV -fuzztime 30s ./internal/relational/
	$(GO) test -fuzz FuzzJournalRecover -fuzztime 30s ./internal/durable/
	$(GO) test -fuzz FuzzParseTrace -fuzztime 30s ./internal/trace/
	$(GO) test -fuzz FuzzParseFaultProfile -fuzztime 30s ./internal/deepweb/
	$(GO) test -fuzz FuzzParseSpecs -fuzztime 30s ./internal/federate/
	$(GO) test -fuzz FuzzValidatedRequestRuns -fuzztime 30s ./internal/engine/
	$(GO) test -fuzz FuzzPostingBlockRoundTrip -fuzztime 30s ./internal/index/
	$(GO) test -fuzz FuzzResolveBatch -fuzztime 30s ./internal/index/
	$(GO) test -fuzz FuzzHiddenSearch -fuzztime 30s ./internal/hidden/
	$(GO) test -fuzz FuzzJaccardJoin -fuzztime 30s ./internal/match/

# Line-coverage report; per-package baseline numbers are recorded in
# DESIGN.md ("Observability" section) — regenerate them with this target
# after substantive changes.
cover:
	$(GO) test -coverprofile cover.out ./...
	$(GO) tool cover -func cover.out | tail -1

clean:
	$(GO) clean ./...
