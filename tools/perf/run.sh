#!/usr/bin/env bash
# run.sh — the benchmark's entry point (BENCHMARK.json's command). It
# runs from the repository root and keeps everything the Go toolchain
# writes — build cache, link scratch, its telemetry counters — inside
# the checkout, next to the binaries and inputs the benchmark itself
# puts under .bench_build/.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/nfsanalyze" ]; then
    echo "perf: run from the repository root (no go.mod and cmd/nfsanalyze here)" >&2
    exit 1
fi
mkdir -p "$root/.bench_build/perf/gotmp"
export GOCACHE="$root/.bench_build/perf/gocache"
export GOTMPDIR="$root/.bench_build/perf/gotmp"
export XDG_CONFIG_HOME="$root/.bench_build/perf/config"
exec go run -C "$root/tools/perf" . "$@"
