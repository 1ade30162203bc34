#!/usr/bin/env bash
# The full local gate: formatting, lints as errors, the results gate's
# self-test, the test suite, the release-only test runs and the benchmark's
# correctness checks. The structural rules (no second path or deleted model
# coming back, the panic ratchet, module reachability, every config field
# set by some caller) are tests in tests/structure.rs, the zero-path gate is
# one in crates/bench/tests/accounting_laws.rs, and the check that
# EXPERIMENTS.md's tables are what the goldens render is one in
# crates/bench/tests/experiments_tables.rs, so the test suite runs them all.
# Run from anywhere inside the repository; CI runs exactly this.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== results gate self-test (added path passes; changed value, removed path, changed row fail)"
python3 scripts/results_diff.py --self-test

echo "== cargo test"
cargo test --workspace --quiet

echo "== allocation budget (release hot path, live heap per measured commit, per stored row and per destage ring)"
# The counting-allocator regression gate over the TPC-C / YCSB hot paths
# (crates/bench/tests/alloc_budget.rs), the peak live-heap growth of a
# YCSB-A driver run per measured commit: one latency sample, plus its
# bucket tag when the run has a series, of a TPC-C driver run per stored
# row: its image and its share of a filled index leaf (the full-length run
# is release only), and of an eager triple that wraps its destage rings twice: one copy of the ring's
# pages, not one per replica; plus one allocation per `simkit::Bytes`,
# freed once across threads, and none for an empty one. Runs in release
# so the measured averages match the configuration the wall-clock gate times.
cargo test --release -p xssd-bench --test alloc_budget --quiet

echo "== host counts (release: exact allocation and live-heap counts against BENCH_counts.json)"
# ROADMAP item 20: crates/bench/tests/host_counts.rs runs fixed, seeded slices
# and fails on any difference from the committed BENCH_counts.json, printing
# the file as the build counts it. A change that moves a count on purpose
# commits the new file; its diff is that change's record.
cargo test --release -p xssd-bench --test host_counts --quiet

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

echo "== recovery smoke (release, torn-tail property)"
# Three seeds of the torn-tail committed-prefix property from
# crates/memdb/tests/recovery_properties.rs, in release mode (the same
# configuration the results gate runs the harnesses in).
cargo test --release -p memdb --test recovery_properties smoke_torn_tail --quiet

echo "== crash explorer (release: a power cut after every event of its scenario)"
# tests/crash_explorer.rs cuts after every event in every build; the test
# suite above ran it in debug.
cargo test --release --test crash_explorer --quiet

echo "== chaos_tpcc smoke (5 seeds, swept in parallel)"
cargo build --release -p xssd-bench --bin chaos_tpcc --quiet
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
# One invocation: the seeds run as independent cells on the bench::sweep
# pool (XSSD_BENCH_THREADS), reported in argument order.
XSSD_RESULTS_DIR="$smoke_dir" ./target/release/chaos_tpcc 7 1234 99991 31415 27182 > /dev/null

echo "== benchmark: its own tests, then every workload and check at 1/50 horizons"
# benchmark/ is a package of its own (not a workspace member), so nothing
# above builds it. Its quick suite runs all four workloads against this
# tree and fails on a digest that does not repeat or a durable window that
# does not match; a workload that outgrew its device would stop with
# `device full`.
(cd benchmark && cargo test --offline --quiet)
benchmark/run.sh --quick > /dev/null

echo "ok: fmt, clippy, gate self-test, tests (structural rules, zero paths and rendered tables among them), allocation budget, host counts, fast-side intake, fsync, mirror flow, cut-through, recovery smoke, crash explorer, chaos smoke, benchmark checks all clean"
