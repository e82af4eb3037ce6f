#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from source and run it.
#
# Everything the build and the run leave behind goes under .bench_build/ at
# the root of the checkout (Go's build cache included), so a run reads and
# writes only inside its checkout. The first run of a checkout compiles the
# standard library into that cache; later runs only check it.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOWORK=off

go build -C "$here" -o "$build/llm265-benchmark" .
exec "$build/llm265-benchmark" -out "$build/out" "$@"
