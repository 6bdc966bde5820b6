#!/usr/bin/env bash
# mond_smoke.sh — end-to-end smoke test of the live-monitoring path:
# nfsbench serves real NFS traffic over loopback TCP with its passive
# trace tap writing a growing trace file; nfsmond tails that file with
# every analysis and is scraped while the load runs. Asserts that op
# counters increase monotonically under load, the window-lag gauge stays
# bounded by the window width, the JSON summary is coherent, two
# snapshots of every analysis come back with a non-decreasing op count,
# and shutdown is clean.
set -euo pipefail

PORT="${MOND_PORT:-19917}"
WINDOW=30

workdir=$(mktemp -d)
trap 'kill $MOND_PID $BENCH_PID 2>/dev/null || true; rm -rf "$workdir"' EXIT

echo "== building binaries"
go build -o "$workdir" ./cmd/nfsmond ./cmd/nfsbench

fetch() { curl -fsS "http://127.0.0.1:$PORT$1"; }

metric() { echo "$1" | awk -v m="$2" '$1 == m { print $2 }'; }

# analyses GETs /api/analyses, checks that the run-detection, reorder
# and block-life tables are in it, and prints its op count.
analyses() {
    local body
    body=$(fetch /api/analyses)
    for key in runs reorder blocklife; do
        echo "$body" | grep -q "^  \"$key\": " \
            || { echo "FAIL: /api/analyses has no $key: $body" >&2; return 1; }
    done
    echo "$body" | sed -n 's/^  "ops": \([0-9]*\).*/\1/p'
}

echo "== starting nfsmond (tailing $workdir/live.trace)"
"$workdir/nfsmond" -i "$workdir/live.trace" -follow -poll 20ms \
    -listen "127.0.0.1:$PORT" -window $WINDOW -keep 20 -analyses all \
    >"$workdir/mond.out" 2>"$workdir/mond.err" &
MOND_PID=$!

for i in $(seq 1 100); do
    if fetch /healthz >/dev/null 2>&1; then break; fi
    if [ "$i" = 100 ]; then echo "nfsmond never came up"; cat "$workdir/mond.err"; exit 1; fi
    sleep 0.1
done

echo "== starting nfsbench load (open loop, traced)"
"$workdir/nfsbench" -T 2 -c 2 -rate 1500 -n 9000 -files 64 -seed 1 \
    -interval 0 -json /dev/null -trace "$workdir/live.trace" \
    >/dev/null 2>&1 &
BENCH_PID=$!

sleep 1
aops1=$(analyses)
sleep 1
m1=$(fetch /metrics)
ops1=$(metric "$m1" nfsmond_ops_total)
lag1=$(metric "$m1" nfsmond_window_lag_seconds)
echo "   scrape 1: ops_total=$ops1 lag=${lag1}s"

sleep 2
m2=$(fetch /metrics)
ops2=$(metric "$m2" nfsmond_ops_total)
lag2=$(metric "$m2" nfsmond_window_lag_seconds)
matched=$(metric "$m2" nfsmond_join_matched_total)
echo "   scrape 2: ops_total=$ops2 lag=${lag2}s matched=$matched"

aops2=$(analyses)
echo "   /api/analyses: ops=$aops1 then ops=$aops2"
awk -v a="$aops1" -v b="$aops2" 'BEGIN { exit !(a ~ /^[0-9]+$/ && b ~ /^[0-9]+$/ && b >= a) }' \
    || { echo "FAIL: /api/analyses ops went from $aops1 to $aops2"; exit 1; }
awk -v a="$ops1" -v b="$ops2" 'BEGIN { exit !(b > a && a > 0) }' \
    || { echo "FAIL: op counter not monotonically increasing under load ($ops1 -> $ops2)"; exit 1; }
for lag in "$lag1" "$lag2"; do
    awk -v l="$lag" -v w=$WINDOW 'BEGIN { exit !(l >= 0 && l < w) }' \
        || { echo "FAIL: window lag $lag outside [0, $WINDOW)"; exit 1; }
done
awk -v m="$matched" 'BEGIN { exit !(m > 0) }' \
    || { echo "FAIL: joiner matched nothing"; exit 1; }
echo "$m2" | grep -q 'nfsmond_proc_ops_total{proc="read"}' \
    || { echo "FAIL: per-proc counters missing"; exit 1; }

echo "== checking JSON summary endpoint"
summary=$(fetch /api/summary)
echo "$summary" | grep -q '"total_ops"' || { echo "FAIL: summary JSON malformed: $summary"; exit 1; }
total=$(echo "$summary" | sed -n 's/.*"total_ops": \([0-9]*\).*/\1/p' | head -1)
awk -v t="${total:-0}" -v o="$ops1" 'BEGIN { exit !(t >= o) }' \
    || { echo "FAIL: snapshot total_ops=$total below earlier live count $ops1"; exit 1; }

wait $BENCH_PID || { echo "FAIL: nfsbench exited nonzero"; exit 1; }

echo "== shutting down nfsmond"
kill -TERM $MOND_PID
for i in $(seq 1 100); do
    if ! kill -0 $MOND_PID 2>/dev/null; then break; fi
    if [ "$i" = 100 ]; then echo "FAIL: nfsmond did not exit"; exit 1; fi
    sleep 0.1
done
wait $MOND_PID || { echo "FAIL: nfsmond exited nonzero"; cat "$workdir/mond.err"; exit 1; }
grep -q '^join: ' "$workdir/mond.out" \
    || { echo "FAIL: final report missing join line"; cat "$workdir/mond.out"; exit 1; }

echo "== mond-smoke OK: final report:"
cat "$workdir/mond.out"
