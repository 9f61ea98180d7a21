#!/usr/bin/env bash
# Five seconds per workload, plain and traced: every check runs (fingerprints,
# wire bytes, fault plans, the checkpoint round trip, the learning floor, the
# declared metric names), no bound is held and no number is comparable.
# For scripts/ci.sh to call.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
for workload in hetero_train paged_fleet wire_full_model algo_mix; do
    for trace in 0 1; do
        echo "smoke: $workload --trace $trace"
        "$here/run.sh" --workload "$workload" --seed 1 --seconds 5 --trace "$trace" | tail -n 1
    done
done
echo "smoke: ok"
