#!/usr/bin/env bash
# Builds the benchmark from source, then runs it from the repository root:
#
#   bash benchmark/run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1]
#
# Build output goes to stderr, so the last line of standard output is the
# run's JSON result. Cargo's target directory is $CARGO_TARGET_DIR, else
# .bench_build under the working directory.
set -euo pipefail
target="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bins \
    --manifest-path "$(dirname "$0")/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/rein_benchmark" "$@"
