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

echo "=== K1: ISA code only in simd.rs; A1: the old socket type name only on its alias line; V1: every format VERSION/MAGIC is named by test code; R1: no libm call in the generator ==="
grep -rnE --include='*.rs' 'std::arch|core::arch|is_x86_feature_detected' crates src tests examples | grep -v '^crates/tensor/src/simd\.rs:' && { echo "K1: ISA code outside crates/tensor/src/simd.rs" >&2; exit 1; }
# benchmark/ still names it; everything else names SocketTransport.
grep -rn --include='*.rs' 'LoopbackSocketTransport' crates src tests examples | grep -vx 'crates/core/src/transport\.rs:[0-9]*:pub type LoopbackSocketTransport = SocketTransport;' && { echo "A1: LoopbackSocketTransport named outside its alias line" >&2; exit 1; }
tested="$(awk 'FNR == 1 { t = FILENAME ~ /(^|\/)tests\// } /#\[cfg\(test\)\]/ { t = 1 } t && !/const [A-Z0-9_]*(VERSION|MAGIC):/' $(find crates src tests examples -name '*.rs'))"
for c in $(grep -rhoE 'const [A-Z0-9_]*(VERSION|MAGIC)\b' crates/{core,trace}/src | cut -d' ' -f2); do
    grep -qw "$c" <<<"$tested" || { echo "V1: $c is named by no test" >&2; exit 1; }
done

# The normal draws run on rng.rs's own sine, cosine and logarithm, so a
# seed's stream does not depend on the host's libm; simd.rs holds the
# AVX-512 arm of the same evaluator.
awk '/#\[cfg\(test\)\]/ { nextfile } { print FILENAME ":" FNR ":" $0 }' crates/tensor/src/{rng,simd}.rs | grep -E '\.(sin|cos|ln|exp)\(' && { echo "R1: a libm call in crates/tensor/src/rng.rs or simd.rs outside their tests" >&2; exit 1; }

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

echo "=== kernel override: fca-tensor, fca-nn and fca-data again with dispatch pinned to scalar, and to avx2_fma where the CPU has it ==="
# Exercises the FCA_GEMM_KERNEL escape hatch and proves the portable
# fallback passes the same suite the explicit-SIMD arms do (the conv oracle
# sweep included: every conv product runs on the dispatched engine), so the
# paths that bypass the packed engine are held to its bits under every arm.
# The arm also picks the normal fills' Box–Muller evaluator, so the data
# goldens (crates/data/tests/data_goldens.rs) run under each pin too.
FCA_GEMM_KERNEL=scalar cargo test -q --release -p fca-tensor -p fca-nn -p fca-data
if grep -qw avx2 /proc/cpuinfo 2>/dev/null && grep -qw fma /proc/cpuinfo 2>/dev/null; then
    FCA_GEMM_KERNEL=avx2_fma cargo test -q --release -p fca-tensor -p fca-nn -p fca-data
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

echo "=== paper binaries: fca-bench builds, the cheap producers rewrite their committed files unchanged, and Table 4 on one setting matches its golden ==="
cargo build --release -p fca-bench --bins
# Deterministic and cheap (≈ 15 s): a committed result that HEAD no longer
# writes fails here.
cargo run -q --release -p fca-bench --bin fig2_3_partitions >/dev/null
cargo run -q --release -p fca-bench --bin table1_hparams >/dev/null
cargo run -q --release -p fca-bench --bin table5_comm_cost >/dev/null
git diff --exit-code -- results/fig2_3_partitions.json results/table5_comm_cost.json
# A filtered run prints its verdicts and writes nothing under results/; a
# filter matching no setting fails before anything trains. A run's bits
# depend on neither the kernel arm nor the thread count, so with the
# per-cell seconds stripped the output is a golden: any change to training
# numerics shows in this diff.
cargo run -q --release -p fca-bench --bin table4_ablation -- --quick --setting Fashion-MNIST 2>&1 |
    sed -E 's/ +\([0-9.]+s\)$//' > /tmp/fca-ci-table4.txt
diff results/table4_quick_golden.txt /tmp/fca-ci-table4.txt
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

echo "=== thread-count byte-identity: quickstart metrics on one thread must match the default pool's ==="
# Clients in a wave are the one parallel layer (every kernel runs on its
# caller's thread), so a run's bits may not depend on the pool's size.
RAYON_NUM_THREADS=1 cargo run --release --example quickstart -- --quick > /tmp/fca-ci-quickstart-1t.txt
diff /tmp/fca-ci-quickstart-channel.txt /tmp/fca-ci-quickstart-1t.txt

echo "=== multi-process federation: socket rendezvous + checkpoint/resume ==="
cargo run --release --example socket_federation

echo "=== streaming drift smoke: mid-run re-shard + forgetting/adaptation metrics ==="
cargo run --release --example drift_stream -- --quick

echo "=== buffered aggregation determinism: two same-seed --buffered runs must match ==="
cargo run --release --example quickstart -- --quick --buffered > /tmp/fca-ci-quickstart-buffered-a.txt
cargo run --release --example quickstart -- --quick --buffered > /tmp/fca-ci-quickstart-buffered-b.txt
diff /tmp/fca-ci-quickstart-buffered-a.txt /tmp/fca-ci-quickstart-buffered-b.txt

echo "ci: all green"
