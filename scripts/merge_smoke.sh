#!/usr/bin/env bash
# merge_smoke.sh — end-to-end smoke test of the distributed analysis
# path, with no checked-in traces: nfsgen generates a CAMPUS trace,
# which must be in capture order (no backward time step), tracesplit
# cuts it into gzip pieces at quiescent boundaries, and the same
# analyses then run three ways — single process over the original
# file, -partial per piece + -merge, and -coordinator -workers 8 over
# the piece set. All three renderings must be byte-identical, and the
# coordinator must actually have fanned out (piece count asserted from
# its stderr banner).
set -euo pipefail

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

echo "== building binaries"
go build -o "$workdir" ./cmd/nfsanalyze ./cmd/nfsgen ./tools/tracesplit

echo "== generating trace"
"$workdir/nfsgen" -system campus -users 3 -days 1 -o "$workdir/campus.trace"

echo "== checking the trace is in capture order"
LC_ALL=C sort -s -n -k1,1 -c "$workdir/campus.trace"

echo "== splitting into 8 gzip pieces at quiescent boundaries"
"$workdir/tracesplit" -n 8 -gzip -o "$workdir/piece" "$workdir/campus.trace"
pieces=("$workdir"/piece-*.trace.gz)
echo "   ${#pieces[@]} pieces"
if [ "${#pieces[@]}" -lt 2 ]; then
    echo "FAIL: expected at least 2 pieces"; exit 1
fi

# Every -analysis kind, read from nfsanalyze's help so that a new kind
# is covered without editing this list. blocklife, hierarchy and names
# are order-dependent and require a -resume chain; the rest merge
# independently computed states.
kinds=$("$workdir/nfsanalyze" -h 2>&1 | sed -n 's/^[[:space:]]*analysis: \(.*\) (default.*/\1/p' | tr -d ,)
if [ -z "$kinds" ]; then
    echo "FAIL: no analysis kinds in nfsanalyze -h"; exit 1
fi
for analysis in $kinds; do
    echo "== analysis: $analysis"
    "$workdir/nfsanalyze" -analysis "$analysis" -i "$workdir/campus.trace" \
        >"$workdir/single.$analysis" 2>/dev/null

    # Map phase: one -partial state per piece (chained for the
    # order-dependent analyses).
    chained=false
    case "$analysis" in blocklife | hierarchy | names) chained=true ;; esac
    states=()
    prev=""
    for piece in "${pieces[@]}"; do
        state="$workdir/$(basename "$piece").$analysis.state"
        resume=()
        if $chained && [ -n "$prev" ]; then
            resume=(-resume "$prev")
        fi
        "$workdir/nfsanalyze" -analysis "$analysis" -i "$piece" \
            -partial "$state" "${resume[@]}" 2>/dev/null
        states+=("$state")
        prev="$state"
    done

    # Merge phase renders the tables from the states alone.
    "$workdir/nfsanalyze" -analysis "$analysis" -merge "${states[@]}" \
        >"$workdir/merged.$analysis" 2>/dev/null
    if ! cmp -s "$workdir/single.$analysis" "$workdir/merged.$analysis"; then
        echo "FAIL: partial+merge output differs from single process for $analysis"
        diff "$workdir/single.$analysis" "$workdir/merged.$analysis" || true
        exit 1
    fi
    echo "   partial+merge: byte-identical"

    # Coordinator mode does the same fan-out in one command.
    "$workdir/nfsanalyze" -analysis "$analysis" -coordinator -workers 8 \
        "$workdir"/piece-*.trace.gz \
        >"$workdir/coord.$analysis" 2>"$workdir/coord.$analysis.err"
    if ! cmp -s "$workdir/single.$analysis" "$workdir/coord.$analysis"; then
        echo "FAIL: coordinator output differs from single process for $analysis"
        diff "$workdir/single.$analysis" "$workdir/coord.$analysis" || true
        exit 1
    fi
    npieces=$(sed -n 's/^nfsanalyze: coordinator: \([0-9]*\) pieces over.*/\1/p' \
        "$workdir/coord.$analysis.err")
    if [ -z "$npieces" ] || [ "$npieces" -lt 2 ]; then
        echo "FAIL: coordinator did not fan out (banner: $(cat "$workdir/coord.$analysis.err"))"
        exit 1
    fi
    echo "   coordinator: byte-identical across $npieces pieces"
done

echo "PASS: distributed analysis is byte-identical to single-process"
