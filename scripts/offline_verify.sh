#!/usr/bin/env bash
# What can be verified with no crate registry: the unit tests of the crates
# that have no dev-dependencies (cargo refuses `-p` on a non-member that has
# any), built against the path stand-ins under benchmark/standins/ (the
# numeric crates once more per pinned GEMM kernel arm), then the
# benchmark's smoke run (every workload, plain and traced, with all of its
# correctness checks). scripts/ci.sh falls back to this when the registry
# does not resolve. Run from anywhere in the repo.
#
# Not covered offline: the umbrella crate's integration tests (among them
# tests/config_serde.rs, which needs the published serde, and
# tests/properties.rs, which needs proptest), and the unit tests of
# fca-metrics, which has dev-dependencies.
set -euo pipefail
cd "$(dirname "$0")/../benchmark"

echo "=== unit tests against the stand-ins (release: the arithmetic that ships) ==="
# From benchmark/: its .cargo/config.toml patches the stand-ins in, and the
# repository's own .cargo/config.toml (target-cpu=native) still applies.
cargo test --offline --release -p fca-trace -p fca-tensor -p fca-nn -p fca-data -p fca-models -p fedclassavg

echo "=== kernel override: fca-tensor and fca-nn again with dispatch pinned to scalar, and to avx2_fma where the CPU has it ==="
# The paths that bypass the packed engine (the skinny products, conv's
# padded-plane packs, the depthwise stencil) are held to the engine's bits by
# fca-tensor's and fca-nn's oracle sweeps; these passes run those sweeps, and
# everything else, with each arm as the engine. scripts/ci.sh's registry
# branch runs the same two.
FCA_GEMM_KERNEL=scalar cargo test --offline --release -p fca-tensor -p fca-nn
if grep -qw avx2 /proc/cpuinfo 2>/dev/null && grep -qw fma /proc/cpuinfo 2>/dev/null; then
    FCA_GEMM_KERNEL=avx2_fma cargo test --offline --release -p fca-tensor -p fca-nn
fi

echo "=== the workspace users again with debug assertions on: every reused scratch buffer is handed out as NaN ==="
cargo test --offline -p fca-nn -p fca-models -p fedclassavg

echo "=== benchmark smoke: four workloads, trace off and on ==="
./smoke.sh

echo "offline_verify: all green"
