#!/usr/bin/env bash
# The full local gate: formatting, lints as errors, module reachability, the
# results gate's self-test, the test suite, and the benchmark's correctness checks.
# The zero-path gate (every exported counter moves in some golden, or says
# why not) is a test in crates/bench/tests/accounting_laws.rs, and the check
# that EXPERIMENTS.md's tables are what the goldens render is one in
# crates/bench/tests/experiments_tables.rs, so the test suite runs both.
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

echo "== knob paths (every config field is set by some caller, or an allowlist entry says why)"
# ROADMAP item 25: scripts/knob_paths.py fails on a `pub` field of a
# `*Config` struct, or of any struct with a hand-written `impl Default`,
# that nothing outside its `Default` impl sets to another value, unless its
# ALLOW table gives a reason, and on a stale entry. Its self-test runs the
# gate over fixture trees: a field set only to its default (in a `*Config`
# struct and in one named otherwise) and a stale ALLOW entry must each fail. The fixed hardware's
# numbers are named constants beside the code that reads them, so the
# structs that held only those do not come back.
python3 scripts/knob_paths.py --self-test
python3 scripts/knob_paths.py
if grep -rnwE 'DmaConfig|HicConfig|NtbConfig' crates/; then
  echo "FAIL: a config struct of fixed hardware constants is back under crates/ (lines above)."
  exit 1
fi

echo "== one flash error source (the fault plan; no bit-error/ECC draw, no rate-based program failure)"
# Runtime flash errors come from simkit::faults armed through
# FlashArray::arm_faults; ReliabilityConfig holds only the factory bad-block
# rate. The deleted stochastic model does not come back beside it.
if grep -rnE 'program_fail_rate|base_bit_error_rate|ecc_correctable_bits|expected_bit_errors|sample_bit_errors|Uncorrectable' crates/ src/ tests/; then
  echo "FAIL: a second flash error source is back (lines above)."
  exit 1
fi

echo "== CHANGES.md lines stay short (at most 1024 bytes; the detail goes to docs/perf-log)"
# ROADMAP item 9: CHANGES.md is one line per PR for a reader with no other
# context. A line that outgrows 1 KiB becomes a summary plus a pointer to
# its PR's perf-log.
if LC_ALL=C awk 'length($0) > 1024 { print FILENAME ":" FNR ": " length($0) " bytes"; long = 1 }
                END { exit !long }' CHANGES.md; then
  echo "FAIL: a CHANGES.md line is longer than 1024 bytes (lines above)."
  exit 1
fi

echo "== one copy of each claim (a predicate over its golden; no harness prose, no RDMA model)"
# ROADMAP item 21: a shape claim is a predicate in the CLAIMS table of
# crates/bench/tests/paper_shapes.rs, which also fails on a golden no entry
# reads. A harness does not print a second, unchecked copy as `expected`
# prose, and the RDMA model, which stated no claim, does not come back.
if grep -rn 'println!("expected' crates/bench/src/bin/; then
  echo "FAIL: a harness prints its expected shape as prose; state it as a predicate in crates/bench/tests/paper_shapes.rs (lines above)."
  exit 1
fi
if grep -rnE 'RdmaTransport|RdmaConfig|mod rdma' crates/ src/ tests/ examples/; then
  echo "FAIL: the RDMA transport model is back (lines above)."
  exit 1
fi

echo "== one golden reader (results/*.json are read through crates/bench/tests/golden/mod.rs)"
# ROADMAP item 29: the goldens are parsed once, by simkit's JSON parser, in
# the test-support module that hands out their rows and telemetry cells.
# paper_shapes.rs and accounting_laws.rs read through it; a test that opens
# the results directory itself brings back a second reader of their layout.
if grep -rnF '../../results' crates/*/tests tests/ | grep -v '^crates/bench/tests/golden/mod.rs:'; then
  echo "FAIL: a test reads results/ without crates/bench/tests/golden/mod.rs (lines above)."
  exit 1
fi

echo "== one copy of each figure number (results/ holds only the *.json goldens)"
# ROADMAP item 24: a golden's row is the only copy of a figure number, and
# EXPERIMENTS.md's tables are rendered from the goldens by
# crates/bench/tests/experiments_tables.rs. A stdout capture or any other
# file under results/ is an unchecked second copy.
if git ls-files results | grep -v '\.json$'; then
  echo "FAIL: results/ tracks a file that is not a *.json golden (lines above)."
  exit 1
fi

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

echo "== one latency copy (the runner stores each measured commit's latency once)"
# PERFORMANCE.md rule 10. memdb::runner keeps one `SampleSeries`, the
# aggregate in `RunReport`; while the run lasts its samples sit in
# kind-owned blocks with a bucket tag beside each, and each kind's and
# bucket's mean and p99 are read off them when the run finishes
# (`Observer::finish`). A per-kind or per-bucket series does not come back
# outside the `#[cfg(test)]` reference that follows the first column-0
# `#[cfg(test)]` of the file.
series_fields=$(awk '/^#\[cfg\(test\)\]/ { exit }
                     /^[[:space:]]+(pub )?[a-z_]+: [A-Za-z_:<]*SampleSeries>*,$/ { print FILENAME ":" FNR ": " $0 }' \
                  crates/memdb/src/runner.rs)
if [ "$(printf '%s' "$series_fields" | grep -c .)" -gt 1 ]; then
  echo "$series_fields"
  echo "FAIL: crates/memdb/src/runner.rs declares more than one SampleSeries field (lines above)."
  exit 1
fi
# A sample's kind is the block it sits in (one owner per 1024 slots), not a
# tag beside it: no byte per sample comes back as a `Vec<u8>` field.
if awk '/^#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]+(pub )?[a-z_]+: Vec<u8>,$/ { print FILENAME ":" FNR ": " $0; found = 1 }
        END { exit !found }' crates/memdb/src/runner.rs; then
  echo "FAIL: crates/memdb/src/runner.rs declares a per-sample tag (a Vec<u8> field, lines above)."
  exit 1
fi

echo "== one workload runner (memdb::runner::run over a Workload is the only entry point)"
# A closure is a one-kind workload; a harness names its kinds. The plain
# loop, the observed loop and their configs and report do not come back as
# second entry points into the worker loop.
if grep -rnE 'run_workload|run_observed|RunnerConfig|ObserveConfig|ObservedRun' crates/ src/ tests/ examples/; then
  echo "FAIL: a second entry point into the worker loop is back (lines above)."
  exit 1
fi

echo "== panic-site ratchet (unwrap / expect / panic! / unreachable! in non-test crate code)"
# ROADMAP item 5c: the count may only fall. Each file is read up to its
# first column-0 `#[cfg(test)]`. Lower the ceiling when a PR removes sites.
panic_ceiling=102
panic_sites=$(find crates/*/src -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { live = 1 } /^#\[cfg\(test\)\]/ { live = 0 }
    live { n += gsub(/\.unwrap\(\)|\.expect\(|panic!\(|unreachable!\(/, "&") }
    END { print n + 0 }')
if [ "$panic_sites" -gt "$panic_ceiling" ]; then
  echo "FAIL: $panic_sites panic sites under crates/*/src outside tests, ceiling $panic_ceiling."
  exit 1
fi

echo "== no unsafe code under crates/*/src"
# Nothing under crates/*/src says `unsafe`, with no exception: the
# refcounted payload, `simkit::Bytes`, is a newtype over std's `Arc<[u8]>`.
if grep -rnw 'unsafe' crates/*/src; then
  echo "FAIL: unsafe code under crates/*/src (lines above)."
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

echo "== one table index (memdb::index; std's BTreeMap is the test reference only)"
# PERFORMANCE.md rule 11. A table is a memdb::index::Index, whose splits fill
# the leaves of an ascending run; std's middle split left TPC-C's tables
# about 6/11 full. storage.rs names `BTreeMap` only in its tests, after the
# first column-0 `#[cfg(test)]`.
if awk '/^#\[cfg\(test\)\]/ { exit } /BTreeMap/ { print FILENAME ":" FNR ": " $0; hit = 1 }
        END { exit !hit }' crates/memdb/src/storage.rs; then
  echo "FAIL: crates/memdb/src/storage.rs names BTreeMap outside its tests (lines above)."
  exit 1
fi

echo "== one copy per stored row (a table's rows live in its arena, not one Bytes each)"
# PERFORMANCE.md rule 5. A table's index maps a key to its row's place in
# the table's memdb::arena; a log record owns the `Row` it was built from.
# The index does not go back to holding a refcounted `Row` per entry, whose
# 16-byte header and allocator rounding cost ~15 B a TPC-C row.
if grep -nE 'Index<Key, *Row>' crates/memdb/src/storage.rs; then
  echo "FAIL: crates/memdb/src/storage.rs indexes rows as Bytes again; store them in the table's RowArena (lines above)."
  exit 1
fi

echo "== one log checksum (records and snapshots share memdb::log::checksum)"
# The byte-at-a-time FNV-1a it replaced does not come back as a second
# checksum for one of the two framings.
if grep -rn 'fnv1a' crates/memdb/src; then
  echo "FAIL: crates/memdb/src names fnv1a; frame with memdb::log::checksum (lines above)."
  exit 1
fi

echo "== one copy of the log (the device's destage ring; no host-side segment archive)"
# Recovery reads the destaged log from the restored snapshot's offset
# (memdb::durable_log_stream) and rejoin reads the primary's ring
# (Cluster::resync_secondary). A host copy of every record beside the
# device's, and the paths that fed or read it, do not come back.
if grep -rnE 'SegmentedLog|enable_segments|replay_segments|deliver_archived|apply_archived|SegmentView' crates/ src/ tests/ examples/; then
  echo "FAIL: a host-side copy of the log is back (lines above)."
  exit 1
fi

echo "== no second path without a caller (one failure path, one SSD write mode, one wire type)"
# A stall or an impossible state panics where it is detected, naming the
# instant and the state: no structured error type and no `try_*` twin
# beside the panicking form. A host write completes from the data buffer and
# `Flush` is its durability point: no write-through mode. `pcie::PcieLink`
# is the one serializing wire: no generic link under it. The NTB adapters'
# multicast, which the paper's prototype does not use, is not a knob.
if grep -rnE 'SimError|DiagnosticSnapshot|try_drive_to_completion|try_wait_for_completion|try_content|write_cache|hardware_multicast|\bLink::new|simkit::Link\b' crates/ src/ tests/ examples/; then
  echo "FAIL: a second path without a caller is back (lines above)."
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

echo "== one hasher for the device maps (simkit::IntMap / IntSet; std's SipHash maps in tests only)"
# PERFORMANCE.md, "Device maps hash integers with one fixed hasher": the
# SSD, NVMe, flash and destage maps are keyed by page numbers, op ids and
# command ids the simulator hands out itself, so they hash with simkit's
# fixed integer hasher. A std-hashed `HashMap` or
# `HashSet` does not come back outside the `#[cfg(test)]` module that
# follows each file's first column-0 `#[cfg(test)]`.
if awk 'FNR == 1 { live = 1 } /^#\[cfg\(test\)\]/ { live = 0 }
        live && /HashMap|HashSet/ { print FILENAME ":" FNR ": " $0; hit = 1 }
        END { exit !hit }' crates/ssd/src/*.rs crates/nvme/src/*.rs crates/flash/src/*.rs crates/core/src/destage.rs; then
  echo "FAIL: a std-hashed map is back in the device models; use simkit::IntMap / IntSet (lines above)."
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

echo "== recovery smoke (release, torn-tail property)"
# Three seeds of the torn-tail committed-prefix property from
# crates/memdb/tests/recovery_properties.rs, in release mode (the same
# configuration the results gate runs the harnesses in).
cargo test --release -p memdb --test recovery_properties smoke_torn_tail --quiet

echo "== crash explorer (release: a power cut after every event of its scenario)"
# tests/crash_explorer.rs cuts after every event in every build; the test
# suite above ran it in debug. The sampled crash checks it replaced — the
# chaos harness's log-lifecycle arcs behind a non-golden-seed fork — do not
# come back beside it.
cargo test --release --test crash_explorer --quiet
if grep -rnE 'lifecycle_arcs|LifecycleWorld' crates/ src/ tests/ examples/; then
  echo "FAIL: a sampled log-lifecycle crash arc is back beside the crash explorer (lines above)."
  exit 1
fi

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

echo "ok: fmt, clippy, reachability, knob paths, one flash error source, CHANGES.md line length, one copy of each claim, one golden reader, goldens-only results, gate self-test, tests (zero paths and rendered tables among them), count, host counts, nudge, one-collector, one-latency-copy, one-runner, panic-ratchet, no-unsafe, one-intake, one-log, one-index, one-row-copy, one-checksum, one-log-copy, no-second-path, no-GC, one-hasher and buffer-scan gates, recovery smoke, crash explorer, chaos smoke, benchmark checks all clean"
