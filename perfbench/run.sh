#!/usr/bin/env bash
# Build the benchmark from source and run it with the given arguments, e.g.
#   bash perfbench/run.sh --workload online --seed 1 --seconds 10 --trace 0
# Run from the repository root. Build output goes to stderr, so the last
# line of standard output is the benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
