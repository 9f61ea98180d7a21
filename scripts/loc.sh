#!/usr/bin/env bash
# Lines of each file up to and including its first `#[cfg(test)]` (the whole
# file when it has none), and their total: the "non-test lines" figure the
# ROADMAP's line budgets quote.
#   scripts/loc.sh crates/core/src/comm.rs crates/core/src/algo/*.rs
set -euo pipefail
[ $# -gt 0 ] || { echo "usage: $0 <files…>" >&2; exit 2; }
awk '
    FNR == 1 { if (file != "") report(); file = FILENAME; lines = 0; done = 0 }
    !done { lines++ }
    /#\[cfg\(test\)\]/ { done = 1 }
    function report() { printf "%6d %s\n", lines, file; total += lines }
    END { report(); printf "%6d total\n", total }
' "$@"
