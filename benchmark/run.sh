#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the suite from source into
# .bench_build/ inside the checkout and runs it with the caller's
# arguments:
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root. Everything the Go toolchain writes — build
# cache, module cache, temp files, its telemetry counters — is pointed into
# .bench_build/, so nothing outside the checkout is read or written.
# `go run -C benchmark . ...` is the same program with the toolchain's
# default locations.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gomod" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off
export GOTOOLCHAIN=local GOFLAGS=-mod=mod CGO_ENABLED=0

# Rebuilding is a cache hit after the first run of a checkout. No VCS
# stamp: the checkout need not be a repository.
go build -C benchmark -buildvcs=false -o "$build/benchmark" . >&2
exec "$build/benchmark" "$@"
