#!/usr/bin/env bash
# dist_smoke.sh — end-to-end smoke test of fault-tolerant network
# dispatch, with no checked-in traces: nfsgen generates a CAMPUS trace,
# tracesplit cuts it into gzip pieces, and three real nfsworker daemons
# serve an `nfsanalyze -coordinator -remote` run over loopback TCP —
# one healthy, one that crashes mid-result-stream on its first
# assignment (the process dies; the coordinator must re-dispatch), and
# one that hangs past the per-assignment deadline without heartbeating.
# The rendered tables must be byte-identical to the single-process run,
# the re-dispatch machinery must be visible in the coordinator log, and
# no speculative duplicate may diverge from the attempt it lost to. An
# order-dependent analysis is not dispatched at all: the coordinator
# runs it in process, byte-identical too.
set -euo pipefail

workdir=$(mktemp -d)
cleanup() {
    if [ -f "$workdir/pids" ]; then
        while read -r pid; do
            kill -9 "$pid" 2>/dev/null || true
        done <"$workdir/pids"
    fi
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "== building binaries"
go build -o "$workdir" ./cmd/nfsanalyze ./cmd/nfsworker ./cmd/nfsgen ./tools/tracesplit

echo "== generating trace"
"$workdir/nfsgen" -system campus -users 3 -days 1 -o "$workdir/campus.trace"

echo "== splitting into 6 gzip pieces at quiescent boundaries"
"$workdir/tracesplit" -n 6 -gzip -o "$workdir/piece" "$workdir/campus.trace"
pieces=("$workdir"/piece-*.trace.gz)
echo "   ${#pieces[@]} pieces"
if [ "${#pieces[@]}" -lt 2 ]; then
    echo "FAIL: expected at least 2 pieces"; exit 1
fi

# start_worker <logfile> [extra flags...] — boots an nfsworker on an
# ephemeral port and echoes the scraped address. Runs under $(...), so
# stdio must be fully detached or the substitution would block on the
# daemon's inherited pipe; pids go through a file for the same reason.
start_worker() {
    local log=$1; shift
    "$workdir/nfsworker" -listen 127.0.0.1:0 "$@" </dev/null >/dev/null 2>"$log" &
    echo $! >>"$workdir/pids"
    local addr=""
    for _ in $(seq 1 50); do
        addr=$(sed -n 's/.*listening on \([0-9.:]*\).*/\1/p' "$log" | head -n1)
        [ -n "$addr" ] && break
        sleep 0.1
    done
    if [ -z "$addr" ]; then
        echo "FAIL: worker never reported its address (log: $(cat "$log"))" >&2
        exit 1
    fi
    echo "$addr"
}

echo "== starting 3 workers: healthy, crash-on-first, hang-on-first"
w_ok=$(start_worker "$workdir/worker-ok.log")
w_crash=$(start_worker "$workdir/worker-crash.log" -flaky crash:1)
w_hang=$(start_worker "$workdir/worker-hang.log" -flaky hang:1)
echo "   $w_ok (healthy) $w_crash (crash:1) $w_hang (hang:1)"

# summary and runs merge independently computed states — both go
# through the faulty pool and must survive it byte-identically.
for analysis in summary runs; do
    echo "== analysis: $analysis"
    "$workdir/nfsanalyze" -analysis "$analysis" -i "$workdir/campus.trace" \
        >"$workdir/single.$analysis" 2>/dev/null

    "$workdir/nfsanalyze" -analysis "$analysis" -coordinator \
        -remote "$w_ok,$w_crash,$w_hang" -worker-timeout 15s \
        "${pieces[@]}" \
        >"$workdir/remote.$analysis" 2>"$workdir/remote.$analysis.err"

    if ! cmp -s "$workdir/single.$analysis" "$workdir/remote.$analysis"; then
        echo "FAIL: remote output differs from single process for $analysis"
        diff "$workdir/single.$analysis" "$workdir/remote.$analysis" || true
        exit 1
    fi
    echo "   remote dispatch: byte-identical"
done

# names is order-dependent: its states compose only as a serial resume
# chain, so -coordinator runs it in process as the plain run and says so.
echo "== analysis: names (order-dependent)"
"$workdir/nfsanalyze" -analysis names -i "$workdir/campus.trace" \
    >"$workdir/single.names" 2>/dev/null
"$workdir/nfsanalyze" -analysis names -coordinator \
    -remote "$w_ok,$w_crash,$w_hang" -worker-timeout 15s \
    "${pieces[@]}" \
    >"$workdir/inproc.names" 2>"$workdir/inproc.names.err"
if ! cmp -s "$workdir/single.names" "$workdir/inproc.names"; then
    echo "FAIL: coordinator output differs from single process for names"
    diff "$workdir/single.names" "$workdir/inproc.names" || true
    exit 1
fi
if ! grep -q "runs in this process" "$workdir/inproc.names.err"; then
    echo "FAIL: coordinator did not report running names in process"
    cat "$workdir/inproc.names.err"
    exit 1
fi
echo "   in process: byte-identical"

# The injected faults must actually have fired and been supervised:
# a crash-on-first worker that never got an assignment proves nothing.
log_all() { cat "$workdir"/remote.*.err; }
if ! grep -q "FAULT crashing" "$workdir/worker-crash.log"; then
    echo "FAIL: crash fault never fired (worker log: $(cat "$workdir/worker-crash.log"))"
    exit 1
fi
if ! grep -q "FAULT hang" "$workdir/worker-hang.log"; then
    echo "FAIL: hang fault never fired (worker log: $(cat "$workdir/worker-hang.log"))"
    exit 1
fi
if ! log_all | grep -q "re-dispatching"; then
    echo "FAIL: coordinator never re-dispatched a failed piece"
    log_all
    exit 1
fi
if ! log_all | grep -Eq "connection lost mid-assignment|heartbeat: worker silent|deadline:"; then
    echo "FAIL: no supervision event (connection loss / watchdog / deadline) in coordinator log"
    log_all
    exit 1
fi
echo "   faults fired and were re-dispatched"

# State bytes are canonical, so a speculative duplicate must equal the
# attempt it lost to: every dispatch reports divergent 0.
banners=$(log_all | grep "dispatch finished" || true)
if [ -z "$banners" ] || echo "$banners" | grep -qv "divergent 0)"; then
    echo "FAIL: a dispatch banner is missing or reports divergent duplicates"
    log_all
    exit 1
fi
echo "   no divergent duplicates"

echo "PASS: remote dispatch with crash and hang faults is byte-identical to single-process"
