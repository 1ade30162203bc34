//! Accounting laws (ROADMAP item 12, first slice): identities the model's
//! own bookkeeping must keep, checked on every device of every cell of the
//! committed `results/*.json` telemetry. No simulation runs here — a golden
//! regenerated on purpose must still satisfy every law.
//!
//! The laws guard the fast side's intake from outside:
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
//! - on every SSD with no failed program, `ssd.ftl.host_writes` =
//!   `flash.array.programs` + `flash.sched.pending_ops` — the device
//!   programs no page it was not asked to, and loses none the FTL handed out.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// One cell's flat counters: `path → value`.
type Cell = BTreeMap<String, f64>;

/// Every cell of every results document, as `("document / label", cell)`.
/// The documents are written by this workspace's own pretty-printer — one
/// `"key": value` per line — so a line scanner reads them: a cell is an
/// object two levels inside `"telemetry"`, nested objects (latency
/// summaries) are skipped.
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
        for line in text.lines().map(str::trim) {
            if line.starts_with('}') || line.starts_with(']') {
                depth -= 1;
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
                }
                continue;
            }
            let in_cell = telemetry.is_some_and(|t| depth == t + 2);
            if let Some((_, counters)) = cell.as_mut().filter(|_| in_cell) {
                if let Ok(v) = value.trim_end_matches(',').parse::<f64>() {
                    counters.insert(key.to_string(), v);
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
