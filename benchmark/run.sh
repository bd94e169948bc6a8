#!/bin/sh
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root: sh benchmark/run.sh -workload serve-read
# Build outputs, the Go build cache and temporary data stay in .bench_build.
set -eu
build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd benchmark && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
