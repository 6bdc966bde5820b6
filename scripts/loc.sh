#!/usr/bin/env bash
# loc.sh — lines of Go code per package: non-test files, not counting
# blank lines and comment lines (// lines and /* */ blocks). tools/perf
# is the benchmark, a nested module, and is left out. Simplicity PRs
# quote their before/after numbers from this one command (`make loc`);
# give it file or directory arguments to count just those.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -eq 0 ]; then set -- .; fi
find "$@" -name '*.go' ! -name '*_test.go' ! -path './tools/perf/*' ! -path './.bench_build/*' -print0 |
    xargs -0 awk '
        FNR == 1 { block = 0 }
        {
            line = $0
            sub(/^[ \t]+/, "", line)
            if (block) { if (line ~ /\*\//) block = 0; next }
            if (line == "" || line ~ /^\/\//) next
            if (line ~ /^\/\*/) { if (line !~ /\*\//) block = 1; next }
            dir = FILENAME; sub(/\/[^\/]*$/, "", dir); sub(/^\.\//, "", dir)
            n[dir]++; total++
        }
        END {
            for (d in n) printf "%6d  %s\n", n[d], d | "sort -k2"
            close("sort -k2")
            printf "%6d  total\n", total
        }'
