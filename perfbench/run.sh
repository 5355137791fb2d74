#!/usr/bin/env bash
# Build the `pqo` server binary and the benchmark from source, then run the
# benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload steady_reuse --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --smoke
#
# Build output goes to stderr; the last line on stdout is the JSON result.
set -euo pipefail

root=$(pwd)
target=${CARGO_TARGET_DIR:-$root/.bench_build}
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p pqo-cli >&2
cargo build --release --offline --quiet --manifest-path "$root/perfbench/Cargo.toml" >&2

commit=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
exec env PQO_BENCH_COMMIT="$commit" \
    "$target/release/pqo-perfbench" --pqo "$target/release/pqo" "$@"
