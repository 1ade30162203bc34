//! Accounting laws (ROADMAP item 12, first slice): identities the model's
//! own bookkeeping must keep, checked on every device of every cell of the
//! committed `results/*.json` telemetry. No simulation runs here — a golden
//! regenerated on purpose must still satisfy every law.
//!
//! The laws guard the fast side's intake from outside:
//! - `core.fast.bytes_in` = Σ `core.cmb.laneN.bytes_in` — every byte the
//!   fast interface accepted reached a lane's ring;
//! - where the lanes drain into a dedicated SRAM port,
//!   `core.fast.sram_port.requests` = Σ `core.cmb.laneN.chunks` — one port
//!   request per chunk, however the drains were charged;
//! - per lane, `head_offset ≤ credit_offset ≤ tail_offset` — nothing is
//!   destaged before it is persisted, nothing persisted before it arrived;
//! - on a database cell, `db.log.bytes_appended` = each device's
//!   `core.cmb.lane0.bytes_in`, primary and secondaries alike — the bytes the
//!   log codec emitted are the bytes every device took in.

use std::collections::BTreeMap;
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

/// `device`'s counters `core.cmb.laneN.<field>`, lane by lane.
fn lanes(cell: &Cell, device: &str, field: &str) -> Vec<f64> {
    let lane = format!("{device}core.cmb.lane");
    cell.iter()
        .filter(|(k, _)| {
            k.strip_prefix(&lane)
                .and_then(|rest| rest.split_once('.'))
                .is_some_and(|(n, f)| n.bytes().all(|b| b.is_ascii_digit()) && f == field)
        })
        .map(|(_, v)| *v)
        .collect()
}

#[test]
fn the_fast_side_accounts_for_every_byte_chunk_and_offset() {
    let (mut checked, mut with_sram_port) = (0, 0);
    for (where_, cell) in cells() {
        for device in devices(&cell) {
            let at = |path: &str| cell[&format!("{device}{path}")];
            let what = format!("{where_}: {device}");
            let bytes_in = lanes(&cell, &device, "bytes_in");
            assert!(!bytes_in.is_empty(), "{what}: no lane");
            assert_eq!(at("core.fast.bytes_in"), bytes_in.iter().sum::<f64>(), "{what}: bytes");
            if cell.contains_key(&format!("{device}core.fast.sram_port.requests")) {
                let chunks: f64 = lanes(&cell, &device, "chunks").iter().sum();
                assert_eq!(at("core.fast.sram_port.requests"), chunks, "{what}: port requests");
                with_sram_port += 1;
            }
            let (head, credit) =
                (lanes(&cell, &device, "head_offset"), lanes(&cell, &device, "credit_offset"));
            let tail = lanes(&cell, &device, "tail_offset");
            assert!(
                head.len() == bytes_in.len()
                    && credit.len() == head.len()
                    && tail.len() == head.len(),
                "{what}"
            );
            for lane in 0..head.len() {
                assert!(
                    head[lane] <= credit[lane] && credit[lane] <= tail[lane],
                    "{what} lane {lane}: head {}, credit {}, tail {}",
                    head[lane],
                    credit[lane],
                    tail[lane]
                );
            }
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
