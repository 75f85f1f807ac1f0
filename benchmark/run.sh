#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments, e.g.
#   bash benchmark/run.sh --workload paper-baseline --seed 1 --seconds 25 --trace 0
# Run it from the root of the repository. Build outputs and the Go build
# cache stay under .bench_build/ so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$root/benchmark" && go build -o "$build/hermes-benchmark" .)
exec "$build/hermes-benchmark" "$@"
