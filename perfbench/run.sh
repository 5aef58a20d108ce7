#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing every
# argument through. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-sim --seed 1 --seconds 12 --trace 0
#
# The build cache and binary live under .bench_build/ in the checkout, so a
# run reads and writes nothing outside it. Without the repository's sources
# next to perfbench/ the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
# Every file the Go command writes (build cache, module path, telemetry
# counters, which live under the user config directory) stays in
# .bench_build/.
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath"
export XDG_CONFIG_HOME="$root/.bench_build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
mkdir -p "$root/.bench_build"
(cd perfbench && go build -o "$root/.bench_build/perfbench" .)
exec "$root/.bench_build/perfbench" "$@"
