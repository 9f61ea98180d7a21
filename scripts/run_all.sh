#!/usr/bin/env bash
# Regenerate every table and figure of the paper. Full scale takes hours on
# a laptop; pass --quick as $1 for a smoke pass. Tables 2 and 3 also write
# the learning curves of Figures 4–5 and 6–7.
set -euo pipefail
cd "$(dirname "$0")/.."
Q="${1:-}"
cargo build --release -p fca-bench --bins
for bin in fig2_3_partitions table1_hparams table5_comm_cost \
           table2_heterogeneous table4_ablation table3_homogeneous \
           fig8_tsne fig9_conductance ext_quantized_comm; do
  echo "=== $bin ==="
  ./target/release/$bin $Q
done
