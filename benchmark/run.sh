#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it.
#
#   benchmark/run.sh [--seed N] [--quick]                 the whole suite
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh compare a.json b.json
#   benchmark/run.sh manifest
#
# Runs from the repository root whatever the caller's directory, so
# benchmark/out and a relative CARGO_TARGET_DIR land in the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
# Build output goes to stderr: stdout carries only the benchmark's report.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml 1>&2
exec "$target/release/xssd-benchmark" "$@"
