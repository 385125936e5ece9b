#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload solve-cold --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Build outputs and the Go build cache go
# under .bench_build/ in the checkout; nothing is written outside it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export XDG_CONFIG_HOME="$out/config" # the go command's settings and telemetry
export GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
