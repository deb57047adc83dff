#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json names this
# script. Everything the build writes — binary, Go build cache, temporary
# files — stays under .bench_build/ at the root of the checkout, and the run
# writes under bench/out/.
set -euo pipefail
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/bench" .
exec "$build/bench" "$@"
