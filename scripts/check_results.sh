#!/usr/bin/env bash
# The byte-identical results gate: rebuild the harnesses, rerun every
# figure/ablation, and fail if any committed results/*.json changed by a
# single byte.
#
# The golden JSON files serialize *virtual* time, so they are exact across
# machines — any diff means a simulation-visible behaviour change, which
# must be an intentional, reviewed regeneration (commit the new goldens in
# the same change that explains them).
#
# Usage: check_results.sh [sweep_threads]
#   With no argument the harnesses sweep their grids at the ambient
#   XSSD_BENCH_THREADS (default: all host cores). Pass `1` to force the
#   sequential sweep path. CI runs both sweep modes and the goldens must be
#   byte-identical in both — that equality IS the determinism contract
#   (docs/HARNESSES.md).
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -ge 1 ]; then
  export XSSD_BENCH_THREADS="$1"
fi
echo "== thread mode: XSSD_BENCH_THREADS=${XSSD_BENCH_THREADS:-<unset: all host cores>}"

echo "== cargo build --release"
cargo build --release --bins -p xssd-bench

# all_figures owns the harness list (`BINS`): it launches every harness,
# each child inherits XSSD_BENCH_THREADS, and it exits non-zero naming any
# child that failed. A harness added there is gated here with no second edit.
echo "== all_figures (every harness)"
./target/release/all_figures > /dev/null

echo "== diff results/*.json against committed goldens"
if ! git diff --exit-code -- 'results/*.json'; then
  echo
  echo "FAIL: results/*.json diverged from the committed goldens (see diff above)."
  echo "If the change is intentional, commit the regenerated files with the"
  echo "explanation; otherwise the refactor changed simulated behaviour."
  exit 1
fi

# Untracked results would mean a harness wrote a file the goldens don't
# cover — surface that too.
untracked=$(git ls-files --others --exclude-standard -- 'results/*.json')
if [ -n "$untracked" ]; then
  echo "FAIL: new untracked results files: $untracked"
  exit 1
fi

# Fault-injection determinism: the chaos run must be replayable from its
# seed alone — a second run of the default seed into a scratch directory
# must be byte-identical to the committed golden.
echo "== chaos_tpcc determinism (same seed twice)"
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
XSSD_RESULTS_DIR="$scratch" ./target/release/chaos_tpcc > /dev/null
if ! cmp results/chaos_tpcc.json "$scratch/chaos_tpcc.json"; then
  echo "FAIL: two chaos_tpcc runs of the same seed diverged."
  exit 1
fi

echo "ok: every harness reproduces the goldens byte-for-byte"
