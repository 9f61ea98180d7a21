#!/usr/bin/env bash
# One results/pairs/LEDGER.tsv row per scripts/pairs.sh table:
#
#   scripts/ledger.sh [--header] <table.txt>...
#
# Reads each table and prints, tab-separated: its file name, the workload,
# the parent and change commits, the first seed, the pair count and the
# set's status, then for each of the four end-to-end metrics the median of
# the per-pair change/parent ratios and in how many pairs the change read
# better, worse and tied. A table that ends before its summary is
# `aborted`: its pair count is the pairs it finished, and its metric
# columns are `-`. `--header` prints the column names first.
#
# scripts/pairs.sh appends the row of every set it keeps; scripts/ci.sh
# regenerates the rows from the tables and diffs them against the ledger.
set -euo pipefail

metrics=(setup_s client_steps_per_s wire_bytes_per_client_round peak_heap_mb)
if [ "${1:-}" = --header ]; then
    shift
    printf 'table\tworkload\tparent\tchange\tfirst_seed\tpairs\tstatus'
    for m in "${metrics[@]}"; do
        printf '\t%s_ratio\t%s_better\t%s_worse\t%s_tied' "$m" "$m" "$m" "$m"
    done
    printf '\n'
fi
for table in "$@"; do
    awk -v table="$(basename "$table")" -v metrics="${metrics[*]}" '
        /^pairs: .* pairs of .* seeds [0-9]+\.\./ {
            workload = $2; sub(/,$/, "", workload)
            seed = $NF; sub(/\.\..*/, "", seed)
        }
        /^pairs: parent / { parent = $3; sub(/,$/, "", parent); change = $5 }
        /^pair [0-9]+ seed / { finished[$2] = 1 }
        # metric (better) | parent … | change … | ratio | W/N (worse in L, tied in T)
        /^[a-z_]+ \((lower|higher)\) \| / {
            split($0, col, / \| /)
            split(col[5], wins, /[\/ ,)]+/)
            row[$1] = col[4] "\t" wins[1] "\t" wins[5] "\t" wins[8]
            pairs = wins[2]
        }
        END {
            n = split(metrics, m, " ")
            done = 1
            for (i = 1; i <= n; i++) if (!(m[i] in row)) done = 0
            if (!done) { pairs = 0; for (p in finished) pairs++ }
            printf "%s\t%s\t%s\t%s\t%s\t%s\t%s", table, workload, parent, change, seed, pairs, done ? "complete" : "aborted"
            for (i = 1; i <= n; i++) printf "\t%s", done ? row[m[i]] : "-\t-\t-\t-"
            printf "\n"
        }' "$table"
done
