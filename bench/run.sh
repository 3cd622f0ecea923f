#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping everything the
# build writes (compiler cache, temporary files, the binary) inside the
# checkout under .bench_build. Run from the root of the checkout:
#
#   bash bench/run.sh --workload sim_read_hot --seed 42 --seconds 10 --trace 0
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/cache" "$build/tmp" "$build/config"
export GOCACHE="$build/cache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
# The go command keeps its usage counters under the user's configuration
# directory: that, too, stays in the checkout. With no telemetry state there
# (every fresh checkout) it also detaches a child of itself to look after the
# counters, which outlives the command: in a checkout without the program,
# where the build fails at once, that child was still alive after this script
# had exited. Telemetry mode "off" starts no child and writes no counters.
export XDG_CONFIG_HOME="$build/config"
mkdir -p "$build/config/go/telemetry"
echo off > "$build/config/go/telemetry/mode"
# VCS stamping is off (it fails outright on a checkout git distrusts), so
# the commit for the result envelope is passed by hand when there is one.
export BENCH_COMMIT="${BENCH_COMMIT:-$(git rev-parse HEAD 2>/dev/null || echo unknown)}"
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
