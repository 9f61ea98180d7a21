#!/usr/bin/env bash
# Sanitizer pass: deeper checks than the tier-1 gate, each skipped
# gracefully when the toolchain component it needs is not installed.
#
#   1. Miri (UB detection at the interpreter level) over fca-trace, the
#      one std-only crate, pure and fast enough to interpret. The
#      tensor/nn crates are out of Miri's practical reach (rayon thread
#      pools, hours of interpreted GEMM).
#   2. A release-mode run of fca-tensor and fca-core with debug
#      assertions and overflow checks forced ON: release profiles
#      normally compile `debug_assert!`/overflow panics out, so this is
#      the only tier that proves optimized code paths hold those
#      invariants too. RUSTFLAGS replaces .cargo/config.toml's
#      build.rustflags (cargo reads the first source that is set), so the
#      pass names `-C target-cpu=native` itself: it must check the build
#      that ships (FMA contraction, the host's vector width), not an SSE2
#      one.
#
# Run from anywhere in the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== miri: UB check on fca-trace ==="
if rustup component list --toolchain nightly 2>/dev/null | grep -q '^miri.*(installed)'; then
    cargo +nightly miri test -p fca-trace
else
    echo "skip: miri not installed (rustup +nightly component add miri)"
fi

echo "=== checked release: debug assertions + overflow checks in -O ==="
# RUSTFLAGS changes the crate hash, so this build lands in its own
# target dir and never poisons the normal release cache.
export CARGO_TARGET_DIR=target/checked-release
export RUSTFLAGS="-C target-cpu=native -C debug-assertions -C overflow-checks"
cargo test -q --release -p fca-tensor
cargo test -q --release -p fedclassavg --lib

echo "sanitizers: all green"
