#!/usr/bin/env bash
# Build fca-benchmark and run it with the arguments given:
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh repeat --sets 2 --runs 5
#
# Works from any directory of a checkout; a git repository is not needed.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# A relative CARGO_TARGET_DIR means "relative to where the caller stands".
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# Which crates to build against: rand, rayon, bytes, crossbeam, parking_lot,
# serde and serde_json from the registry, if it resolves offline and the
# workspace compiles against it; otherwise the path stand-ins, each patched
# in by its directory's name. The patches are spelt out here and not left to
# .cargo/config.toml (which serves cargo run by hand from benchmark/), so the
# build does not depend on where cargo stands or on a hidden file having
# been copied. Records are stamped with the answer and compare only within
# one kind.
mkdir -p "$target"
log="$target/fca-benchmark-build.log"
standins=()
for dir in "$here"/standins/*/; do
    standins+=(--config "patch.crates-io.$(basename "$dir").path=\"${dir%/}\"")
done
manifest=(--offline --manifest-path "$here/Cargo.toml")
build() { cargo build --release "${manifest[@]}" "$@" >"$log" 2>&1; }
# From the root, so that its .cargo/config.toml (target-cpu=native) applies
# and benchmark/.cargo/config.toml does not.
cd "$root"
if cargo metadata --format-version 1 "${manifest[@]}" >/dev/null 2>&1 && build; then
    deps=registry
elif build "${standins[@]}"; then
    deps=standins
else
    cat "$log" >&2
    exit 1
fi

commit="$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
if [ "$commit" != unknown ] && [ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]; then
    commit="$commit-dirty"
fi

# The Unix-socket transport binds under the temp directory: keep that inside
# the checkout too, unless the path would outgrow a socket address (108
# bytes, of which the socket's own name takes up to 30).
tmp="$target/tmp"
if [ "${#tmp}" -le 70 ]; then
    mkdir -p "$tmp"
    export TMPDIR="$tmp"
fi

FCA_BENCH_DEPS="$deps" FCA_BENCH_COMMIT="$commit" FCA_BENCH_OUT="$here/out" exec "$target/release/fca-benchmark" "$@"
