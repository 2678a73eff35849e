GO ?= go

.PHONY: all build test race vet fmt lint bench bench-short simcheck chaos crash qos-smoke scale-smoke detgate golden ci experiments

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# bench regenerates BENCH_sweep.json (parallel-sweep speedup + DES
# hot-path micros), BENCH_run.json (end-to-end golden-scenario
# throughput + quickstart shard matrix), and BENCH_run.scale.json (the
# 1024x256 scale scenario across shards 1,2,4,8), measured on THIS
# machine. Run it on the hardware you are
# quoting numbers for — both JSONs record num_cpu/gomaxprocs, and a
# 1-core box can only show ~1x sweep speedup. Commit the refreshed files
# together with any change that moves the numbers.
bench:
	$(GO) run ./cmd/benchsweep -o BENCH_sweep.json
	$(GO) run ./cmd/runbench -shards 1,2,4,8 -o BENCH_run.json
	$(GO) run ./cmd/runbench -scenario scale -shards 1,2,4,8 -o BENCH_run.scale.json

# bench-short is the CI smoke variant: one pass over a small grid plus
# the package micro-benchmarks at -benchtime=1x, just to prove the
# benchmarks still compile and run.
bench-short:
	$(GO) run ./cmd/benchsweep -short -o /dev/null
	$(GO) run ./cmd/runbench -short -shards 1,4 -o /dev/null
	$(GO) test -run='^$$' -bench=. -benchtime=1x -benchmem ./internal/sim/ ./internal/mesh/ ./internal/sweep/ ./internal/stats/ ./internal/pfs/ ./internal/ionode/

simcheck:
	$(GO) run ./cmd/simcheck -seeds 100

# chaos force-arms transient disk faults with the retry layer on every
# seed: all must recover, and at least one must be shown fatal without
# the retries.
chaos:
	$(GO) run ./cmd/simcheck -chaos -seeds 25

# crash force-arms whole-I/O-node outages (and sometimes a permanent
# RAID member loss with an online rebuild) under restart-aware failover
# on every seed: every requested byte must be delivered, counted late,
# or counted unavailable, and at least one seed must be shown fatal with
# the failover and parity stripped.
crash:
	$(GO) run ./cmd/simcheck -crash -seeds 25

# fmt fails (listing the files) if anything is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# lint runs staticcheck and govulncheck when they are installed and
# skips them (loudly) when not — local boxes need not have them; CI
# installs pinned versions.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "lint: staticcheck not installed, skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
		else echo "lint: govulncheck not installed, skipping"; fi

# detgate pins the simulation's determinism (golden fingerprint + trace
# digests: healthy, chaos, and crash runs on both engines) and the
# zero-allocation hot paths.
detgate:
	$(GO) run ./cmd/detgate -allocs

# golden regenerates the committed determinism digests
# (cmd/detgate/golden.digest) from this build. Run it after any
# deliberate change to the simulation's event history or to the result
# fingerprint's field set, review the printed digests, and commit the
# refreshed file together with the change — detgate fails CI until the
# two agree again.
golden:
	$(GO) run ./cmd/detgate -update

# qos-smoke is the multi-tenant overload gate: the open-loop QoS oracle
# battery (fair queueing, admission, starvation-freedom, FIFO-twin
# unfairness) under the race detector on the sharded engine, plus a
# quick ext-qos tail-latency sweep.
qos-smoke:
	$(GO) run -race ./cmd/simcheck -qos -seeds 25 -parallel 4 -shards 4
	$(GO) run ./cmd/experiments -quick -run ext-qos -parallel 4

# scale-smoke is the large-machine gate: the random-scenario oracle
# battery on the 256x64 platform, the 1024x256 shard differential, and
# a quick ext-scale coordination-cost sweep.
scale-smoke:
	$(GO) run -race ./cmd/simcheck -scale -seeds 12 -parallel 4 -shards 4
	$(GO) test -race -run TestScaleShardDifferential ./internal/runbench/
	$(GO) run ./cmd/experiments -quick -run ext-scale -parallel 4

# ci reproduces the GitHub Actions pipeline locally: lint, build, race
# tests, the simcheck/chaos/crash/scale smoke sweeps, the
# determinism/alloc gate, the benchmark smoke, and the benchmark
# regression gate against the committed baseline (self-skipping when
# this host's CPU count differs from the baseline's).
ci: fmt vet lint build race
	$(GO) run -race ./cmd/simcheck -seeds 25 -parallel 4
	$(GO) run -race ./cmd/simcheck -chaos -seeds 25 -parallel 4
	$(GO) run -race ./cmd/simcheck -crash -seeds 25 -parallel 4
	$(GO) run -race ./cmd/simcheck -scale -seeds 12 -parallel 4 -shards 4
	$(GO) run -race ./cmd/simcheck -qos -seeds 25 -parallel 4 -shards 4
	$(GO) run ./cmd/experiments -quick -run ext-tournament -parallel 4
	$(GO) run ./cmd/experiments -quick -run ext-qos -parallel 4
	$(GO) run ./cmd/experiments -quick -run ext-scale -parallel 4
	$(GO) run ./cmd/detgate -allocs
	$(GO) test -run='^$$' -bench=. -benchtime=1x -benchmem ./internal/sim/ ./internal/mesh/ ./internal/sweep/ ./internal/stats/ ./internal/pfs/ ./internal/ionode/
	$(GO) run ./cmd/benchsweep -short -o /dev/null
	$(GO) run ./cmd/runbench -short -o /dev/null
	$(GO) run ./cmd/runbench -iterations 5 -baseline BENCH_run.json -tolerance 0.85 -o /dev/null
	@echo "ci: all gates passed"

experiments:
	$(GO) run ./cmd/experiments -quick
