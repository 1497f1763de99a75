#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash bench/run.sh --workload table1 --seed 1 --seconds 20 --trace 0
#
# The build output, the Go build cache and the go command's own state
# (its config directory, where telemetry counters go) live under
# bench/.bench_build/, so the benchmark writes nothing outside the
# checkout. The benchmark has no dependencies beyond the engine in the
# parent directory; the build fails, and the script exits non-zero, when
# the engine sources are not next to bench/.
set -euo pipefail

build="$(cd "$(dirname "$0")" && pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/mod"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOMODCACHE="$build/mod" GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C bench build -o "$build/bench" .
exec "$build/bench" "$@"
