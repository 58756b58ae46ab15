#!/usr/bin/env bash
# The one run command of BENCHMARK.json: build the benchmark and the
# lsiserve binary it drives from the sources of this checkout, keeping the
# go build cache and both binaries inside the checkout, then run.
set -euo pipefail
cd "$(dirname "$0")/.."
[ -f go.mod ] || { echo "bench/run.sh: no go.mod beside bench/: nothing to benchmark" >&2; exit 2; }
build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
# The go tool's build cache, scratch and telemetry counters go where the
# binaries go: a run writes nothing outside the checkout.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOFLAGS=-buildvcs=false
go build -o "$build/bin/lsiserve" ./cmd/lsiserve
go -C bench build -o "$build/bin/bench" .
exec "$build/bin/bench" -lsiserve "$build/bin/lsiserve" "$@"
