//! The reproduction's claims as executable predicates (ROADMAP item 2a,
//! first slice): the *shapes* EXPERIMENTS.md says "yes" to, evaluated on the
//! committed `results/*.json` rows. No simulation runs here — a golden that
//! is regenerated on purpose (a model fix moves values) must still satisfy
//! every predicate, and EXPERIMENTS.md cites them by name. Bounds are picked
//! from the data with room to spare and say what they separate: "flat" from
//! "scales", "holds" from "loses".
//!
//! Covered so far: Fig. 9, Fig. 10, Fig. 12, Fig. 13 and YCSB A–F.

use std::path::Path;

/// One `rows` entry of a results document.
#[derive(Debug, Clone, Default)]
struct Row {
    series: String,
    x: f64,
    y: f64,
    extra: f64,
    /// The candlestick's smallest and largest sample (Fig. 13 rows).
    min: f64,
    max: f64,
}

/// The `rows` of `results/<name>.json`. The documents are written by this
/// workspace's own pretty-printer — one `"key": value` per line, objects
/// flat but for a row's `candle` — so a line scanner reads them.
fn rows(name: &str) -> Vec<Row> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results").join(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    let mut lines = text.lines().map(str::trim).skip_while(|l| *l != "\"rows\": [");
    assert!(lines.next().is_some(), "{name}: no rows");
    let mut out = Vec::new();
    let mut row = Row::default();
    let mut in_candle = false;
    for line in lines {
        match line.trim_end_matches(',') {
            "]" => break,
            "{" => row = Row::default(),
            "\"candle\": {" => in_candle = true,
            "}" if in_candle => in_candle = false,
            "}" => out.push(row.clone()),
            field => {
                let (key, value) = field.split_once(": ").expect("a field line");
                let number = || value.parse::<f64>().unwrap_or_else(|e| panic!("{field}: {e}"));
                match key {
                    "\"series\"" => row.series = value.trim_matches('"').to_string(),
                    "\"x\"" => row.x = number(),
                    "\"y\"" => row.y = number(),
                    "\"extra\"" => row.extra = number(),
                    "\"min\"" if in_candle => row.min = number(),
                    "\"max\"" if in_candle => row.max = number(),
                    _ => {}
                }
            }
        }
    }
    assert!(!out.is_empty(), "{name}: empty rows");
    out
}

/// `series`' row at `x`.
fn cell<'a>(rows: &'a [Row], series: &str, x: f64) -> &'a Row {
    rows.iter()
        .find(|r| r.series == series && r.x == x)
        .unwrap_or_else(|| panic!("no row for {series} at x = {x}"))
}

/// `series`' rows, by ascending `x`.
fn by_x<'a>(rows: &'a [Row], series: &str) -> Vec<&'a Row> {
    let mut out: Vec<&Row> = rows.iter().filter(|r| r.series == series).collect();
    assert!(!out.is_empty(), "no rows for {series}");
    out.sort_by(|a, b| a.x.total_cmp(&b.x));
    out
}

/// Whether `a` and `b` are within `share` of the larger of each other.
fn within(a: f64, b: f64, share: f64) -> bool {
    (a - b).abs() <= share * a.max(b)
}

// ---- Fig. 9: y = txn/s, extra = mean commit latency µs, x = workers ------

const WORKERS: [f64; 4] = [1.0, 2.0, 4.0, 8.0];
const PM_CLASS: [&str; 4] = ["no-log", "memory-nvdimm", "villars-sram", "villars-dram"];

/// `no-log < memory ≈ villars-sram < villars-dram ≪ nvme` at every worker
/// count: memory within 10 % of villars-sram, NVMe more than twice
/// villars-dram (2.4 × at one worker, 9 × at eight).
fn fig09_latency_ordering(rows: &[Row]) {
    for w in WORKERS {
        let lat = |s| cell(rows, s, w).extra;
        let (none, mem, sram) = (lat("no-log"), lat("memory-nvdimm"), lat("villars-sram"));
        let (dram, nvme) = (lat("villars-dram"), lat("nvme-conventional"));
        assert!(none < mem && none < sram, "{w} workers: logging is not free");
        assert!(within(mem, sram, 0.10), "{w} workers: memory {mem} vs villars-sram {sram}");
        assert!(mem.max(sram) < dram, "{w} workers: villars-dram {dram} pays the shared port");
        assert!(nvme > 2.0 * dram, "{w} workers: nvme {nvme} vs villars-dram {dram}");
    }
}

/// The PM-class paths are CPU-bound: throughput at `w` workers is at least
/// 0.95 · w times one worker's (≥ 7 × from 1 → 8), and their latency falls
/// with every doubling (the 16 KiB group fills sooner).
fn fig09_pm_class_scales(rows: &[Row]) {
    for series in PM_CLASS {
        let one = cell(rows, series, 1.0).y;
        for pair in WORKERS.windows(2) {
            let (fewer, more) = (cell(rows, series, pair[0]), cell(rows, series, pair[1]));
            assert!(more.y >= 0.95 * pair[1] * one, "{series}: {} txn/s at {}", more.y, pair[1]);
            assert!(more.extra < fewer.extra, "{series}: latency rose {} -> {}", pair[0], pair[1]);
        }
    }
}

/// The NVMe path is device-bound behind its depth-1 log: flat, max/min below
/// 1.25 over 1 – 8 workers (1.15 in the goldens) where the PM class gains
/// 8 ×, and its latency does not fall with workers.
fn fig09_nvme_flat(rows: &[Row]) {
    let y: Vec<f64> = WORKERS.iter().map(|w| cell(rows, "nvme-conventional", *w).y).collect();
    let (min, max) =
        (y.iter().cloned().fold(f64::MAX, f64::min), y.iter().cloned().fold(0.0, f64::max));
    assert!(max / min < 1.25, "nvme throughput {min} .. {max}");
    let lat = |w| cell(rows, "nvme-conventional", w).extra;
    assert!(lat(8.0) > lat(1.0), "nvme latency fell with workers: {} -> {}", lat(1.0), lat(8.0));
}

// ---- Fig. 10: y = throughput normalized to the backing's best, x = write B

/// "WC is faster than UC mode in all sizes we tested": write-combining is
/// never below uncached, on either backing, at any size.
fn fig10_wc_at_least_uc(rows: &[Row]) {
    for backing in ["sram", "dram"] {
        for wc in by_x(rows, &format!("{backing}-wc")) {
            let uc = cell(rows, &format!("{backing}-uc"), wc.x);
            assert!(wc.y >= uc.y, "{backing} at {} B: wc {} < uc {}", wc.x, wc.y, uc.y);
        }
    }
}

/// "For SRAM, the maximum throughput can only be achieved when sending 64
/// bytes at once": `sram-wc` first reaches its best (1.0) at 64 B, the CPU's
/// write-combining buffer, and holds it above.
fn fig10_sram_peaks_at_64(rows: &[Row]) {
    for r in by_x(rows, "sram-wc") {
        if r.x < 64.0 {
            assert!(r.y < 1.0, "sram-wc at {} B already at its best ({})", r.x, r.y);
        } else {
            assert_eq!(r.y, 1.0, "sram-wc at {} B below its best", r.x);
        }
    }
}

/// "For DRAM-backed CMB, the maximum throughput is reached with 16 bytes or
/// more": `dram-wc` is within 1 % of its plateau from 16 B on (0.994 at
/// 16 B) and well below it at 8 B (0.62), where TLP efficiency still binds.
fn fig10_dram_plateaus_from_16(rows: &[Row]) {
    let wc = by_x(rows, "dram-wc");
    let plateau = wc.iter().map(|r| r.y).fold(0.0, f64::max);
    for r in wc {
        let on_plateau = within(r.y, plateau, 0.01);
        assert_eq!(on_plateau, r.x >= 16.0, "dram-wc at {} B: {} of {plateau}", r.x, r.y);
    }
}

// ---- Fig. 12: y = conventional MB/s, extra = fast MB/s, x = fast offered %

/// Neutral scheduling serves both streams up to capacity (conventional
/// within 1 % of itself at 30 – 50 % fast load) and loses conventional
/// bandwidth past it: below 95 % of that level at 60 % (91 %).
fn fig12_neutral_loses_conventional_bandwidth_at_60(rows: &[Row]) {
    let conv = |x| cell(rows, "neutral-conventional", x).y;
    assert!(within(conv(30.0), conv(40.0), 0.01) && within(conv(30.0), conv(50.0), 0.01));
    assert!(conv(60.0) < 0.95 * conv(50.0), "neutral at 60 %: {} of {}", conv(60.0), conv(50.0));
}

/// Conventional priority preserves the conventional stream whatever the
/// fast load — at least 99 % of its uncontended level at 60 % — and the fast
/// stream absorbs the shortfall (it gets less than under neutral).
fn fig12_conventional_priority_holds(rows: &[Row]) {
    let held = |x| cell(rows, "conventional-priority-conventional", x);
    for x in [40.0, 50.0, 60.0] {
        assert!(held(x).y >= 0.99 * held(30.0).y, "at {x} %: {} of {}", held(x).y, held(30.0).y);
    }
    let neutral = cell(rows, "neutral-conventional", 60.0);
    assert!(held(60.0).y > neutral.y && held(60.0).extra < neutral.extra);
}

// ---- Fig. 13: y = p50 refresh latency µs, extra = update bandwidth %,
// x = update period µs, candle = the latency's five-number summary

/// "Base (minimum) latency is period-independent": the same minimum
/// (3.20 µs, the NTB hop) at every period.
fn fig13_base_latency_flat(rows: &[Row]) {
    let shadow = by_x(rows, "shadow-refresh");
    for r in &shadow {
        assert_eq!(r.min, shadow[0].min, "minimum at {} us: {} vs {}", r.x, r.min, shadow[0].min);
    }
}

/// A write waits up to one full update cycle: the candle's height (max −
/// min) rises strictly with the period (0.21 / 0.61 / 1.00 / 1.40 µs).
fn fig13_candle_grows_with_period(rows: &[Row]) {
    let shadow = by_x(rows, "shadow-refresh");
    for pair in shadow.windows(2) {
        let height = |r: &Row| r.max - r.min;
        let (shorter, longer) = (pair[0], pair[1]);
        assert!(
            height(longer) > height(shorter),
            "candle height {} at {} us vs {} at {} us",
            height(longer),
            longer.x,
            height(shorter),
            shorter.x
        );
    }
}

/// Update-bandwidth share ∝ 1/period: share × period constant within 1 %
/// (0.812 % · µs).
fn fig13_update_share_inverse_to_period(rows: &[Row]) {
    let shadow = by_x(rows, "shadow-refresh");
    let first = shadow[0].extra * shadow[0].x;
    for r in &shadow {
        let product = r.extra * r.x;
        assert!(within(product, first, 0.01), "share x period {product} at {} us vs {first}", r.x);
    }
}

// ---- YCSB: y = txn/s, extra = mean commit latency µs, series = <mix>-<backend>

const BACKENDS: [&str; 3] = ["memory-nvdimm", "nvme-conventional", "villars-sram"];

/// Mean commit latency of `mix` on `backend`.
fn ycsb_latency(rows: &[Row], mix: char, backend: &str) -> f64 {
    let series = format!("{mix}-{backend}");
    rows.iter().find(|r| r.series == series).unwrap_or_else(|| panic!("no row for {series}")).extra
}

/// The closed loop is CPU-bound: the log path moves latency, never txn/s —
/// every (mix, backend) cell within 1 % of every other.
fn ycsb_throughput_backend_independent(rows: &[Row]) {
    for r in rows {
        assert!(within(r.y, rows[0].y, 0.01), "{}: {} vs {}", r.series, r.y, rows[0].y);
    }
}

/// Commit latency tracks group-fill time: on every backend the write-heavy
/// mixes (A, F) commit fastest, read-only C waits longest, B / D / E sit
/// between.
fn ycsb_latency_ordered_by_bytes_per_commit(rows: &[Row]) {
    for backend in BACKENDS {
        let lat = |mix| ycsb_latency(rows, mix, backend);
        let heavy = lat('A').max(lat('F'));
        let light = [lat('B'), lat('D'), lat('E')];
        assert!(light.iter().all(|l| heavy < *l), "{backend}: A/F {heavy} vs B/D/E {light:?}");
        assert!(
            light.iter().all(|l| *l < lat('C')),
            "{backend}: B/D/E {light:?} vs C {}",
            lat('C')
        );
    }
}

/// The backend stacks its flush cost on the group fill: memory within 2 % of
/// villars-sram in every mix, the NVMe path 200 – 300 µs above memory.
fn ycsb_backend_stacks_flush_cost(rows: &[Row]) {
    for mix in ['A', 'B', 'C', 'D', 'E', 'F'] {
        let lat = |backend| ycsb_latency(rows, mix, backend);
        let (mem, sram, nvme) =
            (lat("memory-nvdimm"), lat("villars-sram"), lat("nvme-conventional"));
        assert!(within(mem, sram, 0.02), "{mix}: memory {mem} vs villars-sram {sram}");
        assert!((200.0..300.0).contains(&(nvme - mem)), "{mix}: nvme {nvme} over memory {mem}");
    }
}

#[test]
fn fig09_shapes_hold() {
    let rows = rows("fig09_local_logging.json");
    fig09_latency_ordering(&rows);
    fig09_pm_class_scales(&rows);
    fig09_nvme_flat(&rows);
}

#[test]
fn fig10_shapes_hold() {
    let rows = rows("fig10_write_combining.json");
    fig10_wc_at_least_uc(&rows);
    fig10_sram_peaks_at_64(&rows);
    fig10_dram_plateaus_from_16(&rows);
}

#[test]
fn fig12_shapes_hold() {
    let rows = rows("fig12_destage_priority.json");
    fig12_neutral_loses_conventional_bandwidth_at_60(&rows);
    fig12_conventional_priority_holds(&rows);
}

#[test]
fn fig13_shapes_hold() {
    let rows = rows("fig13_replication_delay.json");
    assert_eq!(rows.len(), 4, "one row per update period");
    fig13_base_latency_flat(&rows);
    fig13_candle_grows_with_period(&rows);
    fig13_update_share_inverse_to_period(&rows);
}

#[test]
fn fig_ycsb_shapes_hold() {
    let rows = rows("fig_ycsb.json");
    ycsb_throughput_backend_independent(&rows);
    ycsb_latency_ordered_by_bytes_per_commit(&rows);
    ycsb_backend_stacks_flush_cost(&rows);
}
