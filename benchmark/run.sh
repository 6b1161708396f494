#!/usr/bin/env bash
# Builds the benchmark and runs it. Without arguments: every workload, both
# passes (see README.md for --seed, --seconds, --quick, --agree). With
# `--workload W --seed N --seconds S --trace 0|1`: one workload, one pass,
# the result object as the last line of stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
# RAYON_NUM_THREADS and A2SGD_TRACE stay as the caller has them: users'
# defaults are what is measured.
cargo build --release --offline --manifest-path benchmark/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/a2sgd-benchmark" "$@"
