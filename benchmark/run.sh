#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# arguments. Run it from the repository root: bash benchmark/run.sh ...
#
# Everything the Go toolchain writes — build cache, temporary files, the
# binary — stays under .bench_build/, and nothing is fetched from the network.
# The build fails, and the script exits non-zero without output, where the
# rest of the repository is missing (the module replaces "repro" with "..").
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
BENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
export BENCH_COMMIT
go build -C benchmark -o "$build/benchmark" .
exec "$build/benchmark" -out "$build" "$@"
