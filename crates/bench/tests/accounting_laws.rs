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

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// One cell's flat counters: `path → value`.
type Cell = BTreeMap<String, f64>;

/// Every cell of every results document, as `("document / label", cell)`.
/// The documents are written by this workspace's own pretty-printer — one
/// `"key": value` per line — so a line scanner reads them: a cell is an
/// object two levels inside `"telemetry"`, and a nested object (a latency
/// summary) is read as `path.field`.
fn cells() -> Vec<(String, Cell)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{dir:?}: {e}"))
        .map(|entry| entry.expect("a directory entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    let mut out = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        let name = path.file_name().expect("a file name").to_string_lossy().into_owned();
        let (mut depth, mut telemetry) = (0, None);
        let mut cell: Option<(String, Cell)> = None;
        let mut nested: Option<String> = None;
        for line in text.lines().map(str::trim) {
            if line.starts_with('}') || line.starts_with(']') {
                depth -= 1;
                nested = None;
                if telemetry == Some(depth) {
                    telemetry = None;
                }
                if depth == telemetry.map_or(0, |t| t + 1) {
                    out.extend(cell.take());
                }
                continue;
            }
            let (key, value) = line.split_once(": ").unwrap_or((line, ""));
            let key = key.trim_matches('"');
            if line.ends_with('{') || line.ends_with('[') {
                depth += 1;
                if key == "telemetry" && depth == 2 {
                    telemetry = Some(1);
                } else if telemetry.is_some_and(|t| depth == t + 2) {
                    cell = Some((format!("{name} / {key}"), Cell::new()));
                } else if telemetry.is_some_and(|t| depth == t + 3) {
                    nested = Some(key.to_string());
                }
                continue;
            }
            let path = match (telemetry.map(|t| depth - t), &nested) {
                (Some(2), _) => key.to_string(),
                (Some(3), Some(object)) => format!("{object}.{key}"),
                _ => continue,
            };
            if let Some((_, counters)) = cell.as_mut() {
                if let Ok(v) = value.trim_end_matches(',').parse::<f64>() {
                    counters.insert(path, v);
                }
            }
        }
        assert_eq!(depth, 0, "{name}: unbalanced document");
    }
    out
}

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
        for device in devices(&cell) {
            let at = |path: &str| cell[&format!("{device}{path}")];
            let what = format!("{where_}: {device}");
            for module in ["cmb", "destage"] {
                let groups = lane_groups(&cell, &device, module);
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
        let devices = devices(&cell);
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
        for primary in devices(&cell) {
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
