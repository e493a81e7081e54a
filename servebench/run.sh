#!/usr/bin/env bash
# Builds stencil-serve and the benchmark from source, then runs the benchmark
# from the repository root:
#
#   bash servebench/run.sh --workload hit_serve --seed 1 --seconds 20 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build).  Everything
# cargo prints goes to stderr, so the last stdout line is the result JSON.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p stencil-serve --bin stencil-serve >&2
cargo build --release --offline --quiet --manifest-path servebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/servebench" \
    --serve-bin "$CARGO_TARGET_DIR/release/stencil-serve" "$@"
