#!/usr/bin/env bash
# Build the benchmark from source (release, offline) and run it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --self-test
#
# Build output goes to stderr, so the last line on stdout is the result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
