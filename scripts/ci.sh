#!/usr/bin/env bash
# The pre-merge gate, and the only one: formatting, lints as errors, then the
# tier-1 build-and-test pass from ROADMAP.md and the end-to-end drives. Needs
# no network: the three external crates are the path stand-ins the root
# Cargo.toml patches in, pinned by Cargo.lock. Run from anywhere in the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== cargo fmt --check ==="
cargo fmt --all -- --check

echo "=== cargo clippy (warnings are errors): the D1/P1/U1/C1/LINT contracts, DESIGN.md §7.5 ==="
cargo clippy --workspace --all-targets -- -D warnings

echo "=== K1: ISA code only in simd.rs; A1: the old socket type name only on its alias line; V1: every format VERSION/MAGIC is named by test code ==="
grep -rnE --include='*.rs' 'std::arch|core::arch|is_x86_feature_detected' crates src tests examples | grep -v '^crates/tensor/src/simd\.rs:' && { echo "K1: ISA code outside crates/tensor/src/simd.rs" >&2; exit 1; }
# benchmark/ still names it; everything else names SocketTransport.
grep -rn --include='*.rs' 'LoopbackSocketTransport' crates src tests examples | grep -vx 'crates/core/src/transport\.rs:[0-9]*:pub type LoopbackSocketTransport = SocketTransport;' && { echo "A1: LoopbackSocketTransport named outside its alias line" >&2; exit 1; }
tested="$(awk 'FNR == 1 { t = FILENAME ~ /(^|\/)tests\// } /#\[cfg\(test\)\]/ { t = 1 } t && !/const [A-Z0-9_]*(VERSION|MAGIC):/' $(find crates src tests examples -name '*.rs'))"
for c in $(grep -rhoE 'const [A-Z0-9_]*(VERSION|MAGIC)\b' crates/{core,trace}/src | cut -d' ' -f2); do
    grep -qw "$c" <<<"$tested" || { echo "V1: $c is named by no test" >&2; exit 1; }
done

echo "=== codec size (informational): lines above the first #[cfg(test)] of the twelve codec files ==="
scripts/loc.sh crates/core/src/{checkpoint,client,comm,transport}.rs crates/core/src/algo/*.rs crates/tensor/src/serialize.rs | tail -1

echo "=== dependencies: the lock names exactly bytes, rayon and serde_json outside the workspace ==="
# Also what keeps an ambient generator (rand::thread_rng) out of the graph.
names() { sed -n 's/^name = "\(.*\)"$/\1/p' "$@" | sort -u; }
diff <(printf '%s\n' bytes rayon serde_json) <(comm -23 <(names Cargo.lock) <(names Cargo.toml crates/*/Cargo.toml))

echo "=== pair ledger: every kept results/pairs table has exactly one LEDGER.tsv row, and it says what the table says ==="
ledger=results/pairs/LEDGER.tsv
diff <(scripts/ledger.sh --header; scripts/ledger.sh results/pairs/*.txt | sort) <(head -n 1 "$ledger"; tail -n +2 "$ledger" | sort)

echo "=== tier-1: build + test ==="
cargo build --release
cargo test -q --workspace

echo "=== doc build (rustdoc warnings are errors) ==="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "=== optimized-build numerics: fca-tensor and fca-nn in release ==="
cargo test -q --release -p fca-tensor -p fca-nn

echo "=== sanitizers: miri (when installed) + checked release ==="
# Graceful inside: skips Miri when the nightly component is absent.
scripts/sanitizers.sh

echo "=== kernel override: fca-tensor and fca-nn again with dispatch pinned to scalar, and to avx2_fma where the CPU has it ==="
# Exercises the FCA_GEMM_KERNEL escape hatch and proves the portable
# fallback passes the same suite the explicit-SIMD arms do (the conv oracle
# sweep included: every conv product runs on the dispatched engine), so the
# paths that bypass the packed engine are held to its bits under every arm.
FCA_GEMM_KERNEL=scalar cargo test -q --release -p fca-tensor -p fca-nn
if grep -qw avx2 /proc/cpuinfo 2>/dev/null && grep -qw fma /proc/cpuinfo 2>/dev/null; then
    FCA_GEMM_KERNEL=avx2_fma cargo test -q --release -p fca-tensor -p fca-nn
fi

echo "=== fault tolerance: wire fuzz + fault injection in release ==="
cargo test -q --release --test fault_tolerance
cargo test -q --release --test failure_injection

echo "=== wire hardening: adversarial decode sweep + checkpoint/resume ==="
cargo test -q --release --test wire_hardening
cargo test -q --release --test checkpoint_resume

echo "=== benchmark smoke: what benchmark/ compiles against still builds, and every workload checks out ==="
# The benchmark is a workspace of its own, so nothing above compiles it: a
# signature it uses could drift here unnoticed.
benchmark/smoke.sh

echo "=== paper binaries: fca-bench builds, the cheapest figure runs, and Table 4's declaration runs end to end on one setting ==="
cargo build --release -p fca-bench --bins
cargo run --release -p fca-bench --bin fig2_3_partitions >/dev/null
# A filtered run prints its verdicts and writes nothing under results/; a
# filter matching no setting fails before anything trains.
cargo run --release -p fca-bench --bin table4_ablation -- --quick --setting Fashion-MNIST
if cargo run --release -p fca-bench --bin table4_ablation -- --quick --setting no-such-setting; then
    echo "a filter matching no setting was accepted" >&2; exit 1
fi

echo "=== observability smoke: traced quick run + journal schema check + report render ==="
cargo run --release --example quickstart -- --quick --trace
cargo run --release -p fca-bench --bin trace_report -- --check results/trace/quickstart.jsonl
cargo run --release -p fca-bench --bin trace_report -- results/trace/quickstart.jsonl >/dev/null

echo "=== fleet virtualization smoke: 1k-client paged run under a 4-client cap ==="
cargo run --release --example fleet_scale -- --quick

echo "=== transport byte-identity: quickstart metrics must match across backends ==="
cargo run --release --example quickstart -- --quick > /tmp/fca-ci-quickstart-channel.txt
cargo run --release --example quickstart -- --quick --backend tcp > /tmp/fca-ci-quickstart-tcp.txt
diff /tmp/fca-ci-quickstart-channel.txt /tmp/fca-ci-quickstart-tcp.txt
cargo run --release --example quickstart -- --quick --backend unix > /tmp/fca-ci-quickstart-unix.txt
diff /tmp/fca-ci-quickstart-channel.txt /tmp/fca-ci-quickstart-unix.txt

echo "=== multi-process federation: socket rendezvous + checkpoint/resume ==="
cargo run --release --example socket_federation

echo "=== streaming drift smoke: mid-run re-shard + forgetting/adaptation metrics ==="
cargo run --release --example drift_stream -- --quick

echo "=== buffered aggregation determinism: two same-seed --buffered runs must match ==="
cargo run --release --example quickstart -- --quick --buffered > /tmp/fca-ci-quickstart-buffered-a.txt
cargo run --release --example quickstart -- --quick --buffered > /tmp/fca-ci-quickstart-buffered-b.txt
diff /tmp/fca-ci-quickstart-buffered-a.txt /tmp/fca-ci-quickstart-buffered-b.txt

echo "ci: all green"
