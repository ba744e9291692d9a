# CI entry points. `make ci` is what the repository considers green:
# lint (formatting, vet, staticcheck), build, race-enabled tests, a
# short fuzz smoke of the trace parsers, a span-tracing smoke of the
# observability exporter, the distributed-sweep smoke, the multi-tenant
# service smoke (a real daemon under 32-tenant load with a SIGTERM
# drain), and one timed pass of the headline evaluation benchmark.
# `make benchguard` is the separate regression gate: it regenerates the
# benchmark records and fails if they fall outside the committed
# records' tolerance bands. The CI workflow fans these out as separate
# jobs (see .github/workflows/ci.yml for the job layout).

GO ?= go

.PHONY: all ci build vet fmt-check lint staticcheck test test-stream fuzz-smoke trace-smoke dist-smoke serve-smoke net-smoke bench benchjson benchguard

all: ci

ci: lint build test test-stream fuzz-smoke trace-smoke dist-smoke serve-smoke net-smoke bench

# `make test` already races the dist package once; dist-smoke is the
# named CI scenario on top (see its comment below), cheap enough to
# repeat.

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt -l prints offending files; any output fails the gate.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The lint gate CI requires: formatting, vet, and pinned staticcheck.
lint: fmt-check vet staticcheck

# Staticcheck is pinned and fetched on demand by `go run`. A sandbox
# without module-proxy network cannot fetch it, so probe first and skip
# LOUDLY rather than fail the whole gate offline — CI has network and
# runs it for real.
STATICCHECK := $(GO) run honnef.co/go/tools/cmd/staticcheck@v0.4.7
staticcheck:
	@if $(STATICCHECK) -version >/dev/null 2>&1; then \
		$(STATICCHECK) ./...; \
	else \
		echo "staticcheck SKIPPED: honnef.co/go/tools not fetchable (offline sandbox?) — the CI lint job runs it"; \
	fi

test:
	$(GO) test -race ./...

# The streaming pipeline's packages get a dedicated vet + race pass:
# the fan-out is the only concurrent producer/consumer machinery in the
# tree, and the pooled-chunk refcounts are easy to get subtly wrong.
test-stream:
	$(GO) vet ./internal/trace ./internal/core
	$(GO) test -race ./internal/trace ./internal/core

# Short coverage-guided fuzz smoke — enough to catch a freshly
# introduced panic on malformed input (trace parsers), a divergence
# between the streamed shard planner and IndexBETR, a broken
# snapshot/restore contract (codec state splitting), or any pricing
# path drifting from the codec.Run oracle (FuzzPricingPaths) without
# stalling CI. Go allows one -fuzz target per invocation, hence
# separate runs.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzReadText -fuzztime=5s ./internal/trace
	$(GO) test -run=NONE -fuzz=FuzzReadBinary -fuzztime=5s ./internal/trace
	$(GO) test -run=NONE -fuzz=FuzzPlanScan -fuzztime=5s ./internal/trace
	$(GO) test -run=NONE -fuzz=FuzzSnapshotSplit -fuzztime=5s ./internal/codec
	$(GO) test -run=NONE -fuzz=FuzzPricingPaths -fuzztime=5s ./internal/core
	$(GO) test -run=NONE -fuzz=FuzzTransposeRoundTrip -fuzztime=5s ./internal/bus

# Span-tracing smoke: generate a small synthetic trace, evaluate it
# shard-parallel with the flight recorder exporting a Chrome trace-event
# file, then validate the file's structure and require the recorded
# spans to cover at least 95% of the traced wall-clock window — a hole
# bigger than that means a pipeline stage lost its instrumentation.
trace-smoke:
	mkdir -p .trace-smoke
	$(GO) run ./cmd/tracegen -bench gzip -synthetic -o .trace-smoke/smoke.trace
	$(GO) run ./cmd/paper -trace .trace-smoke/smoke.trace -parallel 4 -spantrace .trace-smoke/spans.json > /dev/null
	$(GO) run ./cmd/tracecheck -mincover 0.95 .trace-smoke/spans.json

# Distributed-sweep smoke: the exact CI scenarios live in
# TestDistSmoke — a 3-worker sweep over a 2^18-entry trace with one
# worker killed mid-sweep and the coordinator stopped at a checkpoint,
# then resumed to results bit-identical to codec.RunFast for every
# registered codec — and TestNetSmoke, the same kill + checkpoint +
# resume over two loopback TCP busencd peers. The coordinator/worker
# machinery is the most concurrent code in the tree, so the whole dist
# package (and the CLI that drives it) runs under the race detector
# here.
dist-smoke:
	$(GO) vet ./internal/dist ./cmd/busencsweep
	$(GO) test -race -run TestDistSmoke -v ./internal/dist
	$(GO) test -race -run TestNetSmoke -v ./internal/serve
	$(GO) test -race ./internal/dist ./cmd/busencsweep

# Multi-tenant service smoke — the exact CI scenario: build the daemon
# and the load harness as real binaries (SIGTERM must reach a real
# process, not `go run`'s wrapper), then drive 32 tenants of mixed
# upload / sync-eval / async-eval / poll traffic against a deliberately
# tiny queue. -smoke asserts the service contract: at least one
# queue-full 503 carrying Retry-After, at least one result-cache hit,
# parity on every collected result against an in-process reference
# evaluation, a mid-run SIGTERM drain that loses zero accepted jobs,
# and a clean daemon exit. The daemon's span flight recorder is dumped
# to .serve-smoke/spans.json for the CI artifact upload.
serve-smoke:
	mkdir -p .serve-smoke
	$(GO) build -o .serve-smoke/busencd ./cmd/busencd
	$(GO) build -o .serve-smoke/busencload ./cmd/busencload
	.serve-smoke/busencload -spawn .serve-smoke/busencd -tenants 32 -duration 5s -smoke -spansout .serve-smoke/spans.json

# Networked-pricing smoke — the CI scenario: two real busencd daemons
# on loopback ports (one carrying -dist-failafter 1 so its first /dist
# connection dies mid-sweep and is redialed), a busencsweep coordinator
# pricing over both via -peers, a second sweep against the now-warm
# stores (the trace ships by digest, so the re-sweep uploads nothing),
# then a fresh BENCH_dist.json with the tcp sub-record for the CI
# artifact upload.
net-smoke:
	mkdir -p .net-smoke/store1 .net-smoke/store2
	$(GO) build -o .net-smoke/busencd ./cmd/busencd
	$(GO) build -o .net-smoke/busencsweep ./cmd/busencsweep
	$(GO) run ./cmd/tracegen -bench gzip -synthetic -o .net-smoke/smoke.trace
	@set -e; \
	.net-smoke/busencd -listen 127.0.0.1:0 -store .net-smoke/store1 -dist-failafter 1 > .net-smoke/peer1.log 2>&1 & P1=$$!; \
	.net-smoke/busencd -listen 127.0.0.1:0 -store .net-smoke/store2 > .net-smoke/peer2.log 2>&1 & P2=$$!; \
	trap 'kill $$P1 $$P2 2>/dev/null || true' EXIT; \
	A1=; A2=; \
	for i in $$(seq 1 100); do \
		A1=$$(sed -n 's/^busencd: listening on \([^ ]*\).*/\1/p' .net-smoke/peer1.log); \
		A2=$$(sed -n 's/^busencd: listening on \([^ ]*\).*/\1/p' .net-smoke/peer2.log); \
		if [ -n "$$A1" ] && [ -n "$$A2" ]; then break; fi; sleep 0.1; \
	done; \
	if [ -z "$$A1" ] || [ -z "$$A2" ]; then \
		echo "net-smoke: peers failed to start"; cat .net-smoke/peer1.log .net-smoke/peer2.log; exit 1; fi; \
	echo "net-smoke: peers $$A1 $$A2"; \
	.net-smoke/busencsweep -trace .net-smoke/smoke.trace -workers 0 -peers $$A1,$$A2 -shards 16 > .net-smoke/sweep1.txt; \
	.net-smoke/busencsweep -trace .net-smoke/smoke.trace -workers 0 -peers $$A1,$$A2 -shards 16 -spantrace .net-smoke/merged-trace.json > .net-smoke/sweep2.txt; \
	cmp .net-smoke/sweep1.txt .net-smoke/sweep2.txt; \
	echo "net-smoke: networked sweeps reproduce bit-identically (tracing on/off)"; cat .net-smoke/sweep2.txt
	$(GO) run ./cmd/tracecheck -mincover 0.95 -minprocs 3 .net-smoke/merged-trace.json
	$(GO) run ./cmd/paper -benchdist .net-smoke/BENCH_dist.json

bench:
	$(GO) test -run=NONE -bench=BenchmarkTable4 -benchtime=1x .

# Regenerate the committed machine-readable benchmark records (see
# README "Performance"): BENCH_engine.json compares the seed reference
# path to the batched engine on Table 4; BENCH_stream.json compares the
# materialized path to the streaming fan-out; BENCH_parallel.json
# compares the warm sequential engine to shard-parallel pricing;
# BENCH_bitslice.json compares the scalar pricing kernel to the
# bit-sliced plane kernel on the seedable codec subset;
# BENCH_dist.json compares a serial decode+price pass to the
# coordinator/worker distributed sweep with real worker processes. All
# paths are explicit so the records can never drift apart.
# BENCH_serve.json captures one 32-tenant load-harness run against a
# spawned daemon (see serve-smoke); its parity and zero-lost-jobs
# fields are correctness invariants, its throughput a same-machine band.
benchjson:
	$(GO) run ./cmd/paper -benchjson BENCH_engine.json -benchstream BENCH_stream.json -benchparallel BENCH_parallel.json -benchbitslice BENCH_bitslice.json
	$(GO) run ./cmd/paper -benchdist BENCH_dist.json
	mkdir -p .serve-smoke
	$(GO) build -o .serve-smoke/busencd ./cmd/busencd
	$(GO) run ./cmd/busencload -spawn .serve-smoke/busencd -tenants 32 -duration 5s -benchjson BENCH_serve.json

# Benchmark-regression gate: generate fresh records into a scratch
# directory and compare them against the committed ones. Fails on a
# >25% speedup drop, any parity=false, an alloc-ratio collapse, the
# bit-sliced kernel's speedup falling below its absolute 5x floor, the
# distributed sweep falling below its absolute 1.3x floor on boxes with
# >= 4 CPUs, the networked sweep's pipelined dispatch falling below its
# 1.2x floor over lock-step on boxes with >= 2 CPUs and >= 2 peers
# (smaller boxes skip the floors with explicit "skipped: num_cpu=N"
# notes — loudly, never silently), or the digest-dedup re-sweep
# shipping any trace bytes (that one always binds: it is correctness,
# not performance).
benchguard:
	mkdir -p .bench-fresh .serve-smoke
	$(GO) run ./cmd/paper -benchjson .bench-fresh/BENCH_engine.json -benchstream .bench-fresh/BENCH_stream.json -benchparallel .bench-fresh/BENCH_parallel.json -benchbitslice .bench-fresh/BENCH_bitslice.json
	$(GO) run ./cmd/paper -benchdist .bench-fresh/BENCH_dist.json
	$(GO) build -o .serve-smoke/busencd ./cmd/busencd
	$(GO) run ./cmd/busencload -spawn .serve-smoke/busencd -tenants 32 -duration 5s -benchjson .bench-fresh/BENCH_serve.json
	$(GO) run ./cmd/benchguard -baseline . -fresh .bench-fresh
