#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload rl-tlt --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. The Go build cache, temporary files and
# the binary stay under .bench_build in the current directory; the build
# needs no network (the module's only dependency is the repository itself).
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off

go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
