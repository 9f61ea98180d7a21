#!/usr/bin/env bash
# Alternating parent/change benchmark pairs (choosing-metrics §8):
#
#   scripts/pairs.sh <parent-checkout> <change-checkout> <workload> <pairs> [seconds]
#
# Runs benchmark/run.sh of each checkout `pairs` times on one workload,
# untraced, swapping which side goes first from pair to pair and giving
# every pair a seed of its own (PAIRS_SEED0 + pair number; default 1000 —
# pass another base for seeds no earlier run has seen). For each of the
# four end-to-end metrics it prints every pair's two readings and their
# ratio, then each side's median and quartiles, the median of the per-pair
# ratios, and in how many pairs the change read better (ties count for
# neither side). A pair whose two sides disagree on the fingerprint, or a
# run that is not `correct: true` with `failed: 0`, fails the script.
#
# Everything printed, errors included, is also kept, as the table of that
# set, in the change checkout's
# results/pairs/<workload>-<parent>-<change>-s<first seed>.txt, each side
# named by its short commit (`-dirty` when it has uncommitted changes), so
# a set on other seeds never replaces it and an aborted set keeps its cause.
# Every kept table, an aborted one included, also gets its row in
# results/pairs/LEDGER.tsv (scripts/ledger.sh: the set, and per metric the
# median ratio and the better/worse/tied counts); a set re-run on the same
# commits and seeds replaces its table and its row.
#
# Each checkout builds into its own benchmark/target the first time it
# runs. Nothing else should run meanwhile: the box has two vCPUs.
set -euo pipefail

if [ "$#" -lt 4 ] || [ "$#" -gt 5 ]; then
    sed -n '2,27p' "$0" >&2
    exit 2
fi
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
workload="$3"
pairs="$4"
seconds="${5:-30}"
seed0="${PAIRS_SEED0:-1000}"
here="$(cd "$(dirname "$0")" && pwd)"
out="$(mktemp -d "${TMPDIR:-/tmp}/fca-pairs.XXXXXX")"

finish() { # whatever ended the set: keep the table's ledger row
    local status=$?
    rm -rf "$out"
    if [ -n "${tee_pid:-}" ]; then
        exec 1>&3 2>&4
        wait "$tee_pid" || true
        local ledger
        ledger="$(dirname "$table")/LEDGER.tsv"
        [ -s "$ledger" ] || "$here/ledger.sh" --header >"$ledger"
        awk -F'\t' -v t="$(basename "$table")" '$1 != t' "$ledger" >"$ledger.tmp"
        "$here/ledger.sh" "$table" >>"$ledger.tmp"
        mv "$ledger.tmp" "$ledger"
    fi
    exit "$status"
}
trap finish EXIT

name() { # <checkout>: its short commit, `-dirty` when it has changes outside results/pairs
    local rev
    rev="$(git -C "$1" rev-parse --short=7 HEAD 2>/dev/null || basename "$1")"
    if [ -n "$(git -C "$1" status --porcelain --untracked-files=no -- . ':!results/pairs' 2>/dev/null)" ]; then
        rev="$rev-dirty"
    fi
    echo "$rev"
}
parent_name="$(name "$parent")"
change_name="$(name "$change")"
table="$change/results/pairs/$workload-$parent_name-$change_name-s$((seed0 + 1)).txt"
mkdir -p "$(dirname "$table")"
exec 3>&1 4>&2 > >(tee "$table") 2>&1
tee_pid=$!

# metric name, and whether higher or lower is better
metrics=(setup_s:lower client_steps_per_s:higher wire_bytes_per_client_round:lower peak_heap_mb:lower)

run_side() { # <side> <checkout> <pair> <seed>
    # A CARGO_TARGET_DIR from the caller would make both checkouts share,
    # and rebuild, one target directory.
    # Its build chatter stays out of the table unless the run fails.
    if ! env -u CARGO_TARGET_DIR bash "$2/benchmark/run.sh" \
        --workload "$workload" --seed "$4" --seconds "$seconds" --trace 0 \
        >"$out/$1.$3.txt" 2>"$out/$1.$3.err"; then
        echo "pairs: $1 run of pair $3 (seed $4) failed:" >&2
        tail -n 20 "$out/$1.$3.err" >&2
        grep '^VIOLATION' "$out/$1.$3.txt" >&2 || true
        exit 1
    fi
    if ! tail -n 1 "$out/$1.$3.txt" | grep -q '"correct":true,"failed":0,'; then
        echo "pairs: $1 run of pair $3 (seed $4) is not correct with failed 0:" >&2
        tail -n 1 "$out/$1.$3.txt" >&2
        exit 1
    fi
}

reading() { # <side> <pair> <metric>
    awk -v m="$3" '$1 == m { print $2; exit }' "$out/$1.$2.txt"
}

echo "pairs: $workload, $pairs pairs of ${seconds} s, seeds $((seed0 + 1))..$((seed0 + pairs))"
echo "pairs: parent $parent_name, change $change_name"
for i in $(seq 1 "$pairs"); do
    seed=$((seed0 + i))
    if [ $((i % 2)) -eq 1 ]; then
        first=parent
        run_side parent "$parent" "$i" "$seed"
        run_side change "$change" "$i" "$seed"
    else
        first=change
        run_side change "$change" "$i" "$seed"
        run_side parent "$parent" "$i" "$seed"
    fi
    fp_parent="$(awk '$1 == "fingerprint" { print $2; exit }' "$out/parent.$i.txt")"
    fp_change="$(awk '$1 == "fingerprint" { print $2; exit }' "$out/change.$i.txt")"
    if [ -z "$fp_parent" ] || [ "$fp_parent" != "$fp_change" ]; then
        echo "pairs: pair $i (seed $seed): fingerprints differ: parent '$fp_parent', change '$fp_change'" >&2
        exit 1
    fi
    line="pair $i seed $seed first $first fingerprint $fp_parent"
    for spec in "${metrics[@]}"; do
        m="${spec%%:*}"
        p="$(reading parent "$i" "$m")"
        c="$(reading change "$i" "$m")"
        echo "$m ${spec##*:} $p $c" >>"$out/readings.txt"
        line+=" | $m $p -> $c"
    done
    echo "$line"
done

echo
echo "metric (better) | parent median [q1, q3] | change median [q1, q3] | median of change/parent | change better in"
awk '
function quantile(v, n, q,    h, lo) { # v[1..n] ascending; linear interpolation
    h = (n - 1) * q + 1; lo = int(h)
    return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
}
function sorted(src, n, dst,    i, j, t) {
    for (i = 1; i <= n; i++) dst[i] = src[i]
    for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
}
{
    m = $1; if (!(m in better)) { order[++nm] = m; better[m] = $2 }
    n = ++count[m]; P[m, n] = $3; C[m, n] = $4
}
END {
    for (k = 1; k <= nm; k++) {
        m = order[k]; n = count[m]; wins = 0; losses = 0
        for (i = 1; i <= n; i++) {
            p[i] = P[m, i]; c[i] = C[m, i]; r[i] = (p[i] != 0) ? c[i] / p[i] : 1
            if (c[i] != p[i]) { if ((better[m] == "higher") == (c[i] > p[i])) wins++; else losses++ }
        }
        sorted(p, n, sp); sorted(c, n, sc); sorted(r, n, sr)
        printf "%s (%s) | %.6g [%.6g, %.6g] | %.6g [%.6g, %.6g] | %.4f | %d/%d (worse in %d, tied in %d)\n", \
            m, better[m], quantile(sp, n, 0.5), quantile(sp, n, 0.25), quantile(sp, n, 0.75), \
            quantile(sc, n, 0.5), quantile(sc, n, 0.25), quantile(sc, n, 0.75), \
            quantile(sr, n, 0.5), wins, n, losses, n - wins - losses
    }
}' "$out/readings.txt"
