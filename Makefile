GO ?= go
# Where `make profile` scrapes the CPU profile from: bepi-serve's
# -debug-addr listener.
PROFILE_ADDR ?= localhost:6060
PROFILE_SECONDS ?= 15

.PHONY: build test race race-par vet lint check bench bench-par bench-kernels bench-spmv bench-dynamic bench-serving bench-topk bench-obs profile

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Static analysis beyond vet. staticcheck and govulncheck are used when
# installed (CI installs them); locally the target degrades to a note
# instead of failing on a missing tool.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed, skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# Race-checks the whole module; the qexec/server concurrency stress tests
# only give real coverage under -race.
race:
	$(GO) test -race ./...

# Focused, repeated race pass over the parallel runtime and the kernels
# built on it — including the stress test of concurrent engine builds
# sharing one pool, where interleavings vary run to run — plus the obs
# histograms' record-vs-snapshot race test, the level-scheduled ILU
# triangular solves, the compact CSR32 kernel paths, and the dynamic-index
# rebuild/swap protocol (root package: concurrent queries, updates, and
# background flushes over one index), the cluster tier's routing ring
# and generation-guarded scatter-gather against concurrent engine swaps,
# and the bounded top-k search (solver StopWhen/Probe hooks, set-equality
# property tests, qexec k-class batching under concurrent load), and the
# observability layer (lock-free event ring, trace propagation across
# HTTP backends during engine swaps, histogram snapshot merging), and the
# latency-hiding kernel layer (RHS-interleaved batch multiply, sticky
# first-touch pools, the STREAM probe), and the incremental rebuild path
# (delta classification, Woodbury-corrected solves, drift fallback) racing
# concurrent queries.
race-par:
	$(GO) test -race -count=2 -run 'Par|Parallel|Pool|Shared|Concurrent|Nested|Level|CSR32|Dynamic|Swap|Panic|Ring|Cluster|Generation|TopK|StopWhen|Trace|Merge|Event|Snapshot|Interleav|Sticky|Stream|Delta|Woodbury|Drift' \
		. ./internal/par/ ./internal/sparse/ ./internal/lu/ ./internal/core/ \
		./internal/obs/ ./internal/qexec/ ./internal/server/ ./internal/cluster/ \
		./internal/solver/

# The CI gate: everything must build, lint clean (vet always; staticcheck/
# govulncheck when installed), and pass under the race detector, with an
# extra repeated pass over the parallel kernels.
check: lint race race-par

bench:
	$(GO) test -run '^$$' -bench BenchmarkQexecThroughput -benchmem ./internal/qexec/

# Serial-vs-parallel kernel benchmarks (Schur build, H11 factorization,
# SpMV) across worker counts; compare the workers=1 and workers=N lines.
bench-par:
	$(GO) test -run '^$$' -bench 'BenchmarkSchurComplement|BenchmarkFactorBlockDiag' -benchmem ./internal/core/
	$(GO) test -run '^$$' -bench BenchmarkParallelMulVec -benchmem ./internal/sparse/

# Smoke-run the bandwidth-lean kernel benchmarks — level-scheduled ILU
# sweeps, compact CSR32 SpMV — at a fixed small iteration count so CI
# catches kernel regressions (compile errors, panics, gross slowdowns)
# without paying for a full benchmark run.
bench-kernels:
	$(GO) test -run '^$$' -bench BenchmarkILUApplyLevels -benchtime=100x -benchmem ./internal/lu/
	$(GO) test -run '^$$' -bench BenchmarkCSR32MulVec -benchtime=100x -benchmem ./internal/sparse/

# Smoke-run the latency-hiding SpMV benchmark: the RHS-interleaved batch
# kernel against its frozen row-outer baseline across widths/layouts/worker
# counts. CI runs it so a batch kernel regression shows up immediately.
bench-spmv:
	$(GO) test -run '^$$' -bench BenchmarkMulVecBatchInterleaved -benchtime=20x ./internal/sparse/

# Smoke-run the dynamic-rebuild experiments on a small R-MAT graph: queries
# keep answering while a background flush re-preprocesses (in-rebuild p99
# vs a stop-the-world emulation), and the continuous-update-stream table
# flushes per-batch edge deletions through the incremental delta path. CI
# runs it so regressions that reintroduce flush blocking show up as a p99
# jump, and a delta flush silently falling back to a full rebuild shows up
# in the mode column and the vs-full ratio.
bench-dynamic:
	$(GO) run ./cmd/bepi-bench dynamic -size tiny

# Smoke-run the serving-tier experiments: steady-state qexec serving
# (throughput, latency quantiles, cache hit rate) and the sharded cluster
# coordinator at 1/2/4 in-process replicas. CI runs it so a regression in
# routing, per-replica caching, or the scatter-gather path shows up as a
# qps or hit-rate drop in the table.
bench-serving:
	$(GO) run ./cmd/bepi-bench serving -size tiny
	$(GO) run ./cmd/bepi-bench cluster -size tiny

# Smoke-run the exact top-k early-termination experiment: bounded vs
# full-tolerance ranking across engine variants, with the set-equality
# column checked on every query. CI runs it so a certificate regression
# (sets column flipping to MISMATCH) or a latency cliff shows up in the
# table.
bench-topk:
	$(GO) run ./cmd/bepi-bench topk -size tiny

# Smoke-run the observability-overhead experiment: the cluster workload
# with histograms, sampled tracing and the flight recorder on versus
# obs.Disabled. CI runs it so a change that puts allocation or locking on
# the query hot path shows up as an overhead jump in the table.
bench-obs:
	$(GO) run ./cmd/bepi-bench obs -size tiny

# Capture a CPU profile from a running bepi-serve (start it with
# -debug-addr $(PROFILE_ADDR)) and drop into the pprof shell:
#   make profile [PROFILE_ADDR=host:port] [PROFILE_SECONDS=15]
profile:
	$(GO) tool pprof -seconds $(PROFILE_SECONDS) http://$(PROFILE_ADDR)/debug/pprof/profile
