#!/usr/bin/env bash
# The results gate: rebuild the harnesses, rerun every figure/ablation into a
# scratch directory, and compare against the committed results/*.json with
# scripts/results_diff.py. Per golden, `schema`/`name`/`rows` must be equal
# exactly, and every telemetry label and path the committed file holds must
# be present with the identical value; paths only the run holds are allowed
# and listed. Nothing is written into the working tree.
#
# The golden JSON files serialize *virtual* time, so they are exact across
# machines — any changed value means a simulation-visible behaviour change,
# which must be an intentional, reviewed regeneration (commit the new goldens
# with `results_diff.py old new` pasted into the change that explains them).
# A new metric is not such a change and needs no golden edit.
#
# Usage: check_results.sh [sweep_threads]
#   With no argument the harnesses sweep their grids at the ambient
#   XSSD_BENCH_THREADS (default: all host cores). Pass `1` to force the
#   sequential sweep path. CI runs both sweep modes against the same goldens
#   — that equality IS the determinism contract (docs/HARNESSES.md).
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -ge 1 ]; then
  export XSSD_BENCH_THREADS="$1"
fi
echo "== thread mode: XSSD_BENCH_THREADS=${XSSD_BENCH_THREADS:-<unset: all host cores>}"

echo "== cargo build --release"
cargo build --release --bins -p xssd-bench

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

# all_figures owns the harness list (`BINS`): it launches every harness,
# each child inherits XSSD_BENCH_THREADS and XSSD_RESULTS_DIR, and it exits
# non-zero naming any child that failed. A harness added there is gated here
# with no second edit.
echo "== all_figures (every harness, into a scratch directory)"
XSSD_RESULTS_DIR="$scratch/run" ./target/release/all_figures > /dev/null

# A golden the run did not write, or a file the goldens do not cover, fails
# like a changed value.
echo "== results/*.json: rows exact, telemetry additive"
if ! python3 scripts/results_diff.py --gate results "$scratch/run"; then
  echo
  echo "FAIL: the run does not reproduce the committed goldens (lines marked ! above)."
  echo "If the change is intentional, regenerate (XSSD_RESULTS_DIR=results) and commit"
  echo "with the explanation; otherwise the change moved simulated behaviour."
  exit 1
fi

# Fault-injection determinism: the chaos run must be replayable from its
# seed alone. Additivity is for tree-vs-golden only — two fresh runs of one
# tree are byte-identical.
echo "== chaos_tpcc determinism (same seed twice)"
XSSD_RESULTS_DIR="$scratch/again" ./target/release/chaos_tpcc > /dev/null
if ! cmp "$scratch/run/chaos_tpcc.json" "$scratch/again/chaos_tpcc.json"; then
  echo "FAIL: two chaos_tpcc runs of the same seed diverged."
  exit 1
fi

echo "ok: every harness reproduces the goldens (rows exact, telemetry additive)"
