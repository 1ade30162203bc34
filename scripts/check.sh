#!/usr/bin/env bash
# The full local gate: formatting, lints as errors, module reachability, the
# results gate's self-test, the test suite, and the benchmark's correctness checks.
# Run from anywhere inside the repository; CI runs exactly this.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== reachability (no pub mod that only its own file and tests mention)"
# Its reading-aid list is long; show the output only when the step fails.
reach=$(python3 scripts/reachability.py) || { echo "$reach"; exit 1; }

echo "== results gate self-test (added path passes; changed value, removed path, changed row fail)"
python3 scripts/results_diff.py --self-test

echo "== cargo test"
cargo test --workspace --quiet

echo "== allocation budget (release hot path)"
# The counting-allocator regression gate over the TPC-C / YCSB hot paths
# (crates/bench/tests/alloc_budget.rs). Runs in release so the measured
# averages match the configuration the wall-clock gate times.
cargo test --release -p xssd-bench --test alloc_budget --quiet

echo "== fast-side run intake (release: per-TLP equivalence, chunk-count pin)"
# crates/core/tests/fast_write_runs.rs: fast_write against the per-TLP walk
# on both backings, and the exact count of chunks a replicated log hands to
# the CMB lane — in release, where the debug assertions (the lane's
# invariants among them) that also guard the closed form are compiled out.
cargo test --release -p xssd-core --test fast_write_runs --quiet

echo "== credit-aware fsync (release: bound vs brute force, reads and wakes per commit)"
# crates/core/tests/fsync_wake.rs: the bound-based wait against the
# every-event oracle, and the count gate its debug run skips — 10 000
# log_replicated-shaped commits cost exactly 2.00 credit reads and at most
# 3.00 wakes each, the same counts on a second run.
cargo test --release -p xssd-core --test fsync_wake --quiet

echo "== cut-through mirror flow (release: one queue entry and one run per write per secondary)"
# crates/core/tests/mirror_runs.rs: on the log_replicated size mix exactly
# one mirror queue entry per write per secondary and the secondaries' lanes
# fed chunk for chunk like the primary's (>= 95 % as runs), shadow runs per
# commit within shadow_runs.rs's pin; no update cycle reports a byte whose
# TLP has not landed; a delivery refused part-way resumes where it stopped.
cargo test --release -p xssd-core --test mirror_runs --quiet

echo "== cut-through conventional data path (release: idle-device instants, port hold vs the per-piece walk)"
# crates/ssd/tests/cut_through.rs: a cached write and a buffered read complete
# at fetch + DMA + one TLP's port time + completion post, a DMA-out overlaps a
# DMA-in while two DMA-ins serialize, a 4-block write programs each page as
# it lands. The buffer's unit tests hold the closed-form port hold against the
# piece-by-piece FIFO walk and the ordered clean set against the scanning LRU.
cargo test --release -p ssd --test cut_through --quiet
cargo test --release -p ssd --lib buffer --quiet

echo "== no clock nudges (a wait with nothing pending is an error, not +N us)"
# PERFORMANCE.md rule 2. `next_event_after(..)` answering `None` must end the
# wait; falling back to a made-up instant is how the 10 us poll grid got in.
# The same holds for a log backend's completion bound: with a unit in flight
# `next_completion_at()` / `next_flush_completion_at()` must answer. Nor is a
# retry scheduled a fixed quantum ahead: it goes to the event that can change
# the outcome (the mirror flow's retry was the last `schedule(at + 1 us, ..)`).
if grep -rnE 'next_(event_after|(flush_)?completion_at)\([^;]*(unwrap_or|from_micros)|schedule\([^;]*from_micros' crates/*/src; then
  echo "FAIL: a next_event_after(..) / next_(flush_)completion_at(..) result is replaced by a fallback instant, or an event is scheduled a fixed quantum ahead (lines above)."
  exit 1
fi

echo "== one latency collector (telemetry percentiles are the exact samples')"
# A `Latency` entry is the `simkit::Summary` of samples its publisher holds.
# A bucketed collector, or a gauge smuggling the exact value out beside an
# entry, does not come back without a consumer that needs it and a review.
if grep -rnE 'Histogram|percentile_lower_bound|p99_us_exact' crates/; then
  echo "FAIL: a second latency collector or an _exact side channel is back under crates/ (lines above)."
  exit 1
fi

echo "== one CMB intake (every arrival is a run; the per-chunk walk lives in tests only)"
# ROADMAP item 13: `CmbModule::ingest_run` takes every run a lane is handed —
# either backing, a busy port, a run above the tail, a mirror retry — and
# finds a part-way cut arithmetically. The refuse-then-walk fork
# (`send_chunks`, `take_run`, the `run_chunks` / `runs_refused` share) and a
# TLP-by-TLP `.chunks(` loop do not come back outside the `#[cfg(test)]`
# module (where `walk_run`, the reference, keeps one).
if awk 'FNR == 1 { live = 1 } /^#\[cfg\(test\)\]/ { live = 0 }
        live && /send_chunks|take_run|runs_refused|run_chunks|\.chunks\(/ { print FILENAME ":" FNR ": " $0; hit = 1 }
        END { exit !hit }' crates/core/src/*.rs; then
  echo "FAIL: a second CMB intake path is back in crates/core/src (lines above)."
  exit 1
fi

echo "== one log per device (one CMB module, one destage module, one credit counter)"
# DESIGN.md: a Villars device has the paper's one counter (§4.1); the
# per-core counters of §7.1 stay discussion. The writer-lane fan-out that no
# harness ran does not come back as a config field, a handle or a device
# accessor.
if grep -rnE 'writer_lanes|open_lane|struct Lane\b|fn lanes\(' crates/*/src; then
  echo "FAIL: crates/*/src names the writer-lane fan-out again (lines above)."
  exit 1
fi

echo "== one log checksum (records, snapshots and segment seals share memdb::log::checksum)"
# The byte-at-a-time FNV-1a it replaced does not come back as a second
# checksum for one of the three framings.
if grep -rn 'fnv1a' crates/memdb/src; then
  echo "FAIL: crates/memdb/src names fnv1a; frame with memdb::log::checksum (lines above)."
  exit 1
fi

echo "== no garbage collector (a fresh device: the FTL never reclaims, nothing is erased)"
# DESIGN.md's fresh-device rule: a run that writes more pages than the raw
# capacity stops with `device full`. A collector comes back only together
# with a preconditioned cell that runs it under the results gate.
if grep -rnE 'plan_gc|GcPlan|run_gc|GcWrite|gc_threshold|needs_gc|block_erased|OpKind::Erase|pe_cycles' crates/ssd/src crates/flash/src; then
  echo "FAIL: crates/ssd/src or crates/flash/src names a garbage collector or the erase/wear model (lines above)."
  exit 1
fi

echo "== no scan in the data buffer (rule 7: eviction order is kept, not searched for)"
# The buffer holds its clean pages ordered by last touch; finding a page or a
# victim by walking a queue (`.position(`) is the scanning version, which
# lives on only as the reference model in its tests.
if grep -n '\.position(' crates/ssd/src/buffer.rs; then
  echo "FAIL: crates/ssd/src/buffer.rs searches a queue by position (lines above)."
  exit 1
fi

echo "== segment recovery smoke (release, torn-tail property)"
# Three seeds of the torn-tail committed-prefix property from
# crates/memdb/tests/segment_recovery.rs, in release mode (the same
# configuration the results gate runs the harnesses in).
cargo test --release -p memdb --test segment_recovery smoke_torn_tail --quiet

echo "== chaos_tpcc smoke (5 seeds, swept in parallel)"
cargo build --release -p xssd-bench --bin chaos_tpcc --quiet
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
# One invocation: the seeds run as independent cells on the bench::sweep
# pool (XSSD_BENCH_THREADS), reported in argument order.
# Non-golden seeds also run the segmented-lifecycle crash arcs
# (mid-rotation and mid-checkpoint power cuts).
XSSD_RESULTS_DIR="$smoke_dir" ./target/release/chaos_tpcc 7 1234 99991 31415 27182 > /dev/null

echo "== benchmark: its own tests, then every workload and check at 1/50 horizons"
# benchmark/ is a package of its own (not a workspace member), so nothing
# above builds it. Its quick suite runs all four workloads against this
# tree and fails on a digest that does not repeat or a durable window that
# does not match; a workload that outgrew its device would stop with
# `device full`.
(cd benchmark && cargo test --offline --quiet)
benchmark/run.sh --quick > /dev/null

echo "ok: fmt, clippy, reachability, gate self-test, tests, count, nudge, one-collector, one-intake, one-log, one-checksum, no-GC and buffer-scan gates, recovery smoke, chaos smoke, benchmark checks all clean"
