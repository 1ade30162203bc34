//! Accounting laws (ROADMAP item 12): identities the model's own
//! bookkeeping must keep, checked on every device of every cell of the
//! committed `results/*.json` telemetry. No simulation runs here — a golden
//! regenerated on purpose must still satisfy every law.
//!
//! The laws guard the fast side's intake, the database's breakdowns and
//! the counters from outside:
//! - every device has exactly one `core.cmb.lane*` and one
//!   `core.destage.lane*` group, `lane0` — a Villars device holds one log,
//!   and `benchmark/` reads these paths;
//! - `core.fast.bytes_in` = `core.cmb.lane0.bytes_in` — every byte the fast
//!   interface accepted reached the ring;
//! - where the CMB drains into a dedicated SRAM port,
//!   `core.fast.sram_port.requests` = `core.cmb.lane0.chunks` — one port
//!   request per chunk, however the drains were charged;
//! - `head_offset ≤ credit_offset ≤ tail_offset` — nothing is destaged
//!   before it is persisted, nothing persisted before it arrived;
//! - on a database cell, `db.log.bytes_appended` = each device's
//!   `core.cmb.lane0.bytes_in`, primary and secondaries alike — the bytes the
//!   log codec emitted are the bytes every device took in;
//! - on every SSD, `flash.array.program_failures` =
//!   `flash.array.fault.program_permanent` — the fault plan is the one
//!   source of program failures;
//! - on every SSD with no failed program, `ssd.ftl.host_writes` =
//!   `flash.array.programs` + `flash.sched.pending_ops` — the device
//!   programs no page it was not asked to, and loses none the FTL handed out;
//! - on a database cell with a kind breakdown, Σ `db.mix.<kind>.committed` =
//!   `db.commits` and Σ `committed × mean_us` = `db.commits ×
//!   db.commit_latency_us.mean_us` — every measured commit's latency is in
//!   exactly one kind;
//! - the counts balance: a cell's secondaries sent at least the shadow
//!   updates its primary applied, and every port completed at most what was
//!   submitted to it, the difference being its `port.inflight` gauge;
//! - bytes conserve across the NTB: a primary's
//!   `core.transport.mirrored_bytes` = Σ `flowN.payload_bytes`, each flow
//!   carries the primary's `core.cmb.lane0.bytes_in`, and each secondary
//!   takes in that much, less what was still on the wire at the cut.
//! - on every SSD, `flash.array.programs × page_bytes` ≥ the destaged bytes
//!   (`core.destage.lane0.persisted_offset` + `filler_bytes`) +
//!   `ssd.served_conventional_bytes` — every log byte the destage module
//!   calls persisted, its page padding, and every host page whose program
//!   completed took a page program.
//!
//! And every exported counter moves in some golden, or an `ALLOW` entry
//! says why not (ROADMAP item 17): the zero-path gate at the end of this
//! file.

mod golden;

use golden::{cells, Cell};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;

/// The devices of a cell: the prefixes of its `core.fast.bytes_in` paths.
fn devices(cell: &Cell) -> Vec<String> {
    cell.keys().filter_map(|k| k.strip_suffix("core.fast.bytes_in")).map(str::to_string).collect()
}

/// The `lane*` segments under `device`'s `core.<module>.` paths.
fn lane_groups<'a>(cell: &'a Cell, device: &str, module: &str) -> BTreeSet<&'a str> {
    let prefix = format!("{device}core.{module}.");
    cell.keys()
        .filter_map(|k| k.strip_prefix(&prefix)?.split_once('.'))
        .map(|(group, _)| group)
        .filter(|group| group.starts_with("lane"))
        .collect()
}

#[test]
fn the_fast_side_accounts_for_every_byte_chunk_and_offset() {
    let (mut checked, mut with_sram_port) = (0, 0);
    for (where_, cell) in cells() {
        for device in devices(cell) {
            let at = |path: &str| cell[&format!("{device}{path}")];
            let what = format!("{where_}: {device}");
            for module in ["cmb", "destage"] {
                let groups = lane_groups(cell, &device, module);
                assert_eq!(groups, BTreeSet::from(["lane0"]), "{what}: core.{module} groups");
            }
            let lane = |field: &str| at(&format!("core.cmb.lane0.{field}"));
            assert_eq!(at("core.fast.bytes_in"), lane("bytes_in"), "{what}: bytes");
            if cell.contains_key(&format!("{device}core.fast.sram_port.requests")) {
                assert_eq!(at("core.fast.sram_port.requests"), lane("chunks"), "{what}: requests");
                with_sram_port += 1;
            }
            let (head, credit, tail) =
                (lane("head_offset"), lane("credit_offset"), lane("tail_offset"));
            assert!(
                head <= credit && credit <= tail,
                "{what}: head {head}, credit {credit}, tail {tail}"
            );
            checked += 1;
        }
    }
    // Every device-cell of the goldens at the time this was written.
    assert!(checked >= 149 && with_sram_port > 0, "{checked} device-cells, {with_sram_port} SRAM");
}

#[test]
fn every_log_byte_the_database_appends_reaches_every_device() {
    let mut checked = 0;
    for (where_, cell) in cells() {
        let Some(appended) = cell.get("db.log.bytes_appended") else { continue };
        // A database cell on a Villars backend: the primary and every
        // secondary take in exactly the bytes the log codec emitted.
        let devices = devices(cell);
        for device in &devices {
            let bytes_in = cell[&format!("{device}core.cmb.lane0.bytes_in")];
            assert_eq!(bytes_in, *appended, "{where_}: {device}core.cmb.lane0.bytes_in");
        }
        checked += usize::from(!devices.is_empty());
    }
    // Every database cell with a Villars backend at the time this was written.
    assert!(checked >= 26, "{checked} database cells on Villars devices");
}

#[test]
fn every_page_the_ftl_hands_out_is_programmed_or_queued() {
    let (mut checked, mut with_failures) = (0, 0);
    for (where_, cell) in cells() {
        for device in cell.keys().filter_map(|k| k.strip_suffix("ssd.ftl.host_writes")) {
            let at = |path: &str| cell[&format!("{device}{path}")];
            // Once a program fails, the programs still queued for its block
            // are refused uncounted and each is retried on a fresh page, so
            // the FTL hands out more pages than the array programs.
            if at("flash.array.program_failures") > 0.0 {
                with_failures += 1;
                continue;
            }
            assert_eq!(
                at("ssd.ftl.host_writes"),
                at("flash.array.programs") + at("flash.sched.pending_ops"),
                "{where_}: {device}ssd.ftl.host_writes"
            );
            checked += 1;
        }
    }
    // Every SSD-cell of the goldens without a program failure at the time
    // this was written (the others are chaos_tpcc's pre-crash cells).
    assert!(checked >= 156, "{checked} SSD-cells checked, {with_failures} with program failures");
}

#[test]
fn every_program_failure_is_an_injected_one() {
    let (mut checked, mut with_failures) = (0, 0);
    for (where_, cell) in cells() {
        for device in cell.keys().filter_map(|k| k.strip_suffix("flash.array.program_failures")) {
            let at = |path: &str| cell[&format!("{device}flash.array.{path}")];
            let failures = at("program_failures");
            assert_eq!(
                failures,
                at("fault.program_permanent"),
                "{where_}: {device}flash.array.program_failures"
            );
            with_failures += usize::from(failures > 0.0);
            checked += 1;
        }
    }
    // Every SSD-cell of the goldens at the time this was written; the ones
    // with failures are chaos_tpcc's pre-crash cells.
    assert!(
        checked >= 159 && with_failures >= 3,
        "{checked} SSD-cells, {with_failures} with program failures"
    );
}

#[test]
fn every_measured_commit_is_in_exactly_one_kind() {
    let mut checked = 0;
    for (where_, cell) in cells() {
        for db in cell.keys().filter_map(|k| k.strip_suffix("db.commits")) {
            let mix = format!("{db}db.mix.");
            let kinds: Vec<&str> = cell
                .keys()
                .filter_map(|k| k.strip_prefix(&mix)?.strip_suffix(".committed"))
                .collect();
            if kinds.is_empty() {
                continue;
            }
            let at = |path: &str| cell[&format!("{db}{path}")];
            let kind = |label: &str, field: &str| at(&format!("db.mix.{label}.{field}"));
            let commits = at("db.commits");
            let committed: f64 = kinds.iter().map(|k| kind(k, "committed")).sum();
            assert_eq!(committed, commits, "{where_}: {db}db.mix.*.committed");
            // The kinds' latency sums add up to the aggregate's: the same
            // samples, each in one kind.
            let by_kind: f64 =
                kinds.iter().map(|k| kind(k, "committed") * kind(k, "mean_us")).sum();
            let total = commits * at("db.commit_latency_us.mean_us");
            assert!(
                (by_kind - total).abs() <= 1e-9 * total.abs(),
                "{where_}: {db} Σ committed × mean_us {by_kind} vs {total}"
            );
            checked += 1;
        }
    }
    // Every database cell with a kind breakdown at the time this was written.
    assert!(checked >= 41, "{checked} database cells with a kind breakdown");
}

#[test]
fn counts_balance() {
    let (mut shadow, mut ports) = (0, 0);
    for (where_, cell) in cells() {
        // A primary applies only shadow updates its secondaries sent (the
        // secondaries count the sending, the primary the applying).
        let total = |counter: &str| -> f64 {
            let suffix = format!("core.transport.{counter}");
            cell.iter().filter(|(k, _)| k.ends_with(&suffix)).map(|(_, v)| v).sum()
        };
        let (applied, sent) = (total("shadow_updates_applied"), total("shadow_updates_sent"));
        assert!(applied <= sent, "{where_}: {applied} shadow updates applied, {sent} sent");
        shadow += usize::from(sent > 0.0);
        // A port completes only what was submitted to it, and what it has
        // not completed is still in flight at the cut.
        for port in cell.keys().filter_map(|k| k.strip_suffix("port.submitted")) {
            if !(port.is_empty() || port.ends_with('.')) {
                continue;
            }
            let Some(&completed) = cell.get(&format!("{port}port.completed")) else { continue };
            let submitted = cell[&format!("{port}port.submitted")];
            assert!(
                submitted >= completed,
                "{where_}: {port}port submitted {submitted} < completed {completed}"
            );
            let inflight = cell[&format!("{port}port.inflight")];
            assert_eq!(
                submitted - completed,
                inflight,
                "{where_}: {port}port submitted {submitted} − completed {completed}"
            );
            ports += 1;
        }
    }
    // Every replicating cell and every port at the time this was written.
    assert!(shadow >= 19 && ports >= 159, "{shadow} cells sending shadow updates, {ports} ports");
}

#[test]
fn bytes_conserve_across_the_ntb() {
    let (mut primaries, mut secondaries) = (0, 0);
    for (where_, cell) in cells() {
        for primary in devices(cell) {
            let at = |path: &str| cell[&format!("{primary}{path}")];
            let flow_prefix = format!("{primary}core.transport.flow");
            let flows: Vec<(&str, f64)> = cell
                .iter()
                .filter_map(|(k, v)| {
                    let dst = k.strip_prefix(&flow_prefix)?.strip_suffix(".payload_bytes")?;
                    Some((dst, *v))
                })
                .collect();
            if flows.is_empty() {
                continue;
            }
            let what = format!("{where_}: {primary}");
            let (mirrored, logged) =
                (at("core.transport.mirrored_bytes"), at("core.cmb.lane0.bytes_in"));
            // `mirrored_bytes` counts a write once per secondary it is sent
            // to, so it is the flows' payload summed. Except in chaos_tpcc:
            // its failover and its rejoin each reconfigure the primary, which
            // rebuilds the flows and starts their counters again, while
            // `mirrored_bytes` counts all three phases (the mirrors to the
            // crashed secondary included).
            let carried: f64 = flows.iter().map(|(_, payload)| payload).sum();
            let reconfigured = where_.starts_with("chaos_tpcc.json");
            if reconfigured {
                assert!(
                    carried < mirrored,
                    "{what}: Σ flow payload {carried}, mirrored {mirrored}"
                );
            } else {
                assert_eq!(carried, mirrored, "{what}: Σ flow payload vs mirrored_bytes");
            }
            for (dst, payload) in flows {
                // Each flow carried every byte of the log since the last
                // reconfiguration.
                if !reconfigured {
                    assert_eq!(payload, logged, "{what}: flow{dst} payload vs the primary's log");
                }
                // Each live secondary took in what its primary did, less what
                // was still on the wire at the cut. Only the lazy policy cuts
                // with a mirror in flight — its commit does not wait for the
                // secondaries — and then it is the last 4 KiB group. (After a
                // rejoin the re-sync supplied what the rebuilt flows did not.)
                let cluster = primary.rfind("dev").map_or("", |i| &primary[..i]);
                let device = format!("{cluster}dev{dst}.");
                let received = cell[&format!("{device}core.cmb.lane0.bytes_in")];
                let in_flight = logged - received;
                if where_.contains(" / lazy.") {
                    assert!(
                        in_flight > 0.0 && in_flight <= 4096.0,
                        "{what}: {device} trails the primary by {in_flight} B at the cut"
                    );
                } else {
                    assert_eq!(received, logged, "{what}: {device}core.cmb.lane0.bytes_in");
                }
                secondaries += 1;
            }
            primaries += 1;
        }
    }
    // Every replicated cell of the goldens at the time this was written.
    assert!(
        primaries >= 19 && secondaries >= 33,
        "{primaries} primaries, {secondaries} secondaries"
    );
}

#[test]
fn flash_programs_cover_every_destaged_and_conventional_byte() {
    let (mut checked, mut with_fast_side) = (0, 0);
    for (where_, cell) in cells() {
        for device in cell.keys().filter_map(|k| k.strip_suffix("flash.array.programs")) {
            let at = |path: &str| cell[&format!("{device}{path}")];
            let what = format!("{where_}: {device}");
            // Every scheduled flash op reads or programs one page.
            let ops = at("flash.sched.conventional.ops") + at("flash.sched.destage.ops");
            let bytes = at("flash.sched.conventional.bytes") + at("flash.sched.destage.bytes");
            let page_bytes = if ops > 0.0 { bytes / ops } else { 0.0 };
            assert_eq!(page_bytes.fract(), 0.0, "{what}: {bytes} B over {ops} flash ops");
            let programmed = at("flash.array.programs") * page_bytes;
            // A device without a fast side destages nothing.
            let destage = |field: &str| {
                cell.get(&format!("{device}core.destage.lane0.{field}")).copied().unwrap_or(0.0)
            };
            let destaged = destage("persisted_offset") + destage("filler_bytes");
            let conventional = at("ssd.served_conventional_bytes");
            assert!(
                programmed >= destaged + conventional,
                "{what}: {programmed} B programmed < {destaged} B destaged + {conventional} B \
                 conventional"
            );
            with_fast_side +=
                usize::from(cell.contains_key(&format!("{device}core.fast.bytes_in")));
            checked += 1;
        }
    }
    // Every SSD-cell of the goldens at the time this was written.
    assert!(
        checked >= 159 && with_fast_side >= 149,
        "{checked} SSD-cells, {with_fast_side} Villars"
    );
}

// ---- Every exported counter moves in some golden, or says why not -------
//
// A telemetry path is folded: the `devN.` prefix goes, and lane, flow, die,
// bus and series-bucket indices become `N`. It is *zero* when its value is 0
// in every cell that holds it, and then needs an `ALLOW` entry with a
// reason. An entry whose path is nonzero somewhere, or no longer exported,
// is stale and fails: the reason no longer holds, so the entry goes.

/// Why a folded path may be zero in every cell: the zero is the measured
/// outcome (a gauge that ends drained, a count the workloads cannot
/// produce); the model path runs, just not in a golden (the tests that
/// execute it, each a `fn` under `crates/` or `tests/`); or it is an
/// exported constant a golden or the benchmark still reads, until its
/// single regeneration (ROADMAP items 8 and 16).
enum Reason {
    Result(&'static str),
    Test(&'static [&'static str]),
    Constant(&'static str),
}

const PORT_FAULTS: Reason = Reason::Test(&[
    "injected_error_completions_are_retried_transparently",
    "lost_completions_time_out_abort_and_retry",
]);
const LINK_DOWN: Reason = Reason::Test(&[
    "runs_match_the_reference_with_faults_and_link_outages",
    "the_bound_based_wait_equals_the_brute_force_one",
]);
const BUFFER_HITS: Reason = Reason::Test(&[
    "write_then_read_hits",
    "buffered_read_completes_one_unit_after_its_dma_could_start",
]);
const NO_COMMAND: Reason = Reason::Result("no command in flight at the cut");
const NEVER_ABORTS: Reason =
    Reason::Result("only TPC-C NewOrder rolls back (1 % invalid item); no other kind aborts");
const NO_ECC: Reason = Reason::Constant("no ECC model; goes at item 16's regeneration");

/// The zero paths and their reasons (ROADMAP item 17).
const ALLOW: &[(&str, Reason)] = &[
    // Verdict (c): runs held above the tail, until item 13 decides.
    (
        "core.cmb.laneN.held_chunks",
        Reason::Test(&["out_of_order_chunks_hold_credits_until_gap_fills"]),
    ),
    // Verdict (d): the port fault and retry paths and the NTB link faults.
    ("core.port.fault.dropped_completions", PORT_FAULTS),
    ("core.port.fault.error_completions", PORT_FAULTS),
    ("core.port.fault.timeouts", PORT_FAULTS),
    ("core.port.retry.resubmits", PORT_FAULTS),
    ("db.log.port.fault.dropped_completions", PORT_FAULTS),
    ("db.log.port.fault.error_completions", PORT_FAULTS),
    ("db.log.port.fault.timeouts", PORT_FAULTS),
    ("db.log.port.retry.resubmits", PORT_FAULTS),
    ("core.transport.flowN.fault.link_down_deferrals", LINK_DOWN),
    ("core.transport.upstream.fault.link_down_deferrals", LINK_DOWN),
    // Verdict (e): the pipelined log writer; the benchmark's ycsb_nvme runs
    // it at depth 4, until item 7.
    (
        "db.log.async_appends",
        Reason::Test(&[
            "pipelined_flushes_overlap_and_converge",
            "pipelined_poll_delivers_in_completion_order",
        ]),
    ),
    // Verdict (a), kept: the benchmark's destage_mixed serves every read
    // from the buffer (691 of 691 in a quick run).
    ("ssd.buffer.read_hits", BUFFER_HITS),
    ("ssd.buffer.hit_rate_pct", BUFFER_HITS),
    // Gauges that end drained: every cell stops after its work completed.
    ("core.port.inflight", NO_COMMAND),
    ("db.log.port.inflight", NO_COMMAND),
    ("db.log.appends_in_flight", Reason::Result("no log append in flight at the cut")),
    ("db.wal.pending_bytes", Reason::Result("the WAL is flushed at the cut")),
    ("recovery.torn_bytes", Reason::Result("recovery finds no torn record")),
    ("db.mix.delivery.aborted", NEVER_ABORTS),
    ("db.mix.order_status.aborted", NEVER_ABORTS),
    ("db.mix.payment.aborted", NEVER_ABORTS),
    ("db.mix.stock_level.aborted", NEVER_ABORTS),
    ("db.mix.insert.aborted", NEVER_ABORTS),
    ("db.mix.read.aborted", NEVER_ABORTS),
    ("db.mix.rmw.aborted", NEVER_ABORTS),
    ("db.mix.scan.aborted", NEVER_ABORTS),
    ("db.mix.update.aborted", NEVER_ABORTS),
    // Constants of deleted models (the GC, PR 29; the bit-error/ECC draw).
    ("flash.array.erases", Reason::Constant("no erase model; the benchmark reads it (item 8)")),
    ("flash.array.corrected_bits", NO_ECC),
    ("flash.array.uncorrectable_reads", NO_ECC),
    ("ssd.ftl.gc_erases", Reason::Constant("no GC; goes with item 8's shims")),
    ("ssd.ftl.gc_writes", Reason::Constant("no GC; the benchmark reads it (item 8)")),
];

/// `dev1.core.transport.flow2.payload_bytes` -> `core.transport.flowN.payload_bytes`.
fn fold(path: &str) -> String {
    let indexed = |segment: &str, prefix: &str| {
        let digits = segment.strip_prefix(prefix).unwrap_or_default();
        !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit())
    };
    let path = path.split_once('.').filter(|(dev, _)| indexed(dev, "dev")).map_or(path, |(_, p)| p);
    let segments = path.split('.').map(|segment| {
        let prefix = ["lane", "flow", "die", "bus", "t"].into_iter().find(|p| indexed(segment, p));
        prefix.map_or(segment.to_string(), |p| format!("{p}N"))
    });
    segments.collect::<Vec<_>>().join(".")
}

/// The folded paths that are 0 in every cell, in order.
fn zero_paths(values: &BTreeMap<String, Vec<f64>>) -> Vec<&str> {
    values.iter().filter(|(_, vs)| vs.iter().all(|v| *v == 0.0)).map(|(p, _)| p.as_str()).collect()
}

/// The names `fn name(` and `fn name<` declare in `text`.
fn declared_fns(text: &str) -> impl Iterator<Item = &str> {
    text.match_indices("fn ").filter_map(|(at, _)| {
        let glued = text[..at].ends_with(|c: char| c.is_alphanumeric() || c == '_');
        let rest = &text[at + 3..];
        let len = rest.find(|c: char| !matches!(c, 'a'..='z' | '0'..='9' | '_'))?;
        let opens = rest[len..].trim_start().starts_with(['(', '<']);
        (!glued && len > 0 && opens).then(|| &rest[..len])
    })
}

/// Every `fn` name in the `.rs` files under `crates/` and `tests/`.
fn fn_names() -> BTreeSet<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (mut dirs, mut names) = (vec![root.join("crates"), root.join("tests")], BTreeSet::new());
    while let Some(dir) = dirs.pop() {
        for path in std::fs::read_dir(dir).unwrap().map(|entry| entry.unwrap().path()) {
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                let text = std::fs::read_to_string(&path).unwrap();
                names.extend(declared_fns(&text).map(str::to_string));
            }
        }
    }
    names
}

/// The zero-path rule over the folded `values`, `allow` and the workspace's
/// `fn` names: a zero path `allow` does not list, an entry whose path is
/// unexported or nonzero somewhere, and a test an entry names that `names`
/// lacks each fail.
fn zero_path_failures(
    values: &BTreeMap<String, Vec<f64>>,
    allow: &[(&str, Reason)],
    names: &BTreeSet<String>,
) -> Vec<String> {
    let zero = zero_paths(values);
    let unlisted = zero.iter().filter(|path| allow.iter().all(|(entry, _)| entry != *path));
    let mut failures: Vec<String> =
        unlisted.map(|path| format!("zero in every cell, not in ALLOW: {path}")).collect();
    let mut entries: Vec<_> = allow.iter().collect();
    entries.sort_by_key(|(path, _)| *path);
    for (path, reason) in entries {
        if !values.contains_key(*path) {
            failures.push(format!("stale entry, no golden exports it: {path}"));
        } else if !zero.contains(path) {
            failures.push(format!("stale entry, nonzero in some cell: {path}"));
        }
        if let Reason::Test(tests) = reason {
            let missing = tests.iter().filter(|t| !names.contains(**t));
            failures.extend(missing.map(|t| format!("{path}: no test `{t}`")));
        }
    }
    failures
}

#[test]
fn every_exported_counter_moves_in_some_golden_or_says_why_not() {
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (path, value) in cells().flat_map(|(_, cell)| cell) {
        values.entry(fold(path)).or_default().push(*value);
    }
    // The listing: each zero path, the cells that hold it and its reason.
    let zero = zero_paths(&values);
    let mut report = String::new();
    for path in &zero {
        let reason = match ALLOW.iter().find(|(entry, _)| entry == path) {
            None => "UNLISTED".to_string(),
            Some((_, Reason::Result(why))) => format!("result: {why}"),
            Some((_, Reason::Test(tests))) => format!("test: {}", tests.join(", ")),
            Some((_, Reason::Constant(why))) => format!("constant: {why}"),
        };
        let _ = writeln!(report, "{path}  ({} cells, {reason})", values[*path].len());
    }
    let _ =
        write!(report, "{} of {} folded paths are zero in every cell", zero.len(), values.len());
    println!("{report}");
    let failures = zero_path_failures(&values, ALLOW, &fn_names());
    assert!(failures.is_empty(), "{report}\n  ! {}", failures.join("\n  ! "));
}

#[test]
fn the_zero_path_rule_names_each_failure() {
    let values = BTreeMap::from(
        [("a.unlisted", vec![0.0, 0.0]), ("b.moves", vec![0.0, 3.0]), ("c.tested", vec![0.0])]
            .map(|(path, vs)| (path.to_string(), vs)),
    );
    let allow = [
        ("e.gone", Reason::Constant("no longer exported")),
        ("b.moves", Reason::Result("moves in the second cell")),
        ("c.tested", Reason::Test(&["a_test_that_exists", "a_renamed_test"])),
    ];
    let names = BTreeSet::from(["a_test_that_exists".to_string()]);
    assert_eq!(
        zero_path_failures(&values, &allow, &names),
        [
            "zero in every cell, not in ALLOW: a.unlisted",
            "stale entry, nonzero in some cell: b.moves",
            "c.tested: no test `a_renamed_test`",
            "stale entry, no golden exports it: e.gone",
        ]
    );
    let path = "dev12.core.lane0.flow2.die3.bus0.t0007.dev1.lanes2.t.x";
    assert_eq!(fold(path), "core.laneN.flowN.dieN.busN.tN.dev1.lanes2.t.x");
    let text = "fn a() {}\npub fn b_2<T>() {}\nfn c\n  (x: fn(u8)) {}\nxfn d() {}\nfn E() {}";
    assert_eq!(declared_fns(text).collect::<Vec<_>>(), ["a", "b_2", "c"]);
}
