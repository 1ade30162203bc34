//! The reproduction's claims as executable predicates (ROADMAP items 2 and
//! 21): the *shapes* EXPERIMENTS.md says "yes" to, evaluated on the
//! committed `results/*.json` rows. No simulation runs here — a golden that
//! is regenerated on purpose (a model fix moves values) must still satisfy
//! every predicate, and EXPERIMENTS.md cites them by name. Bounds are picked
//! from the data with room to spare and say what they separate: "flat" from
//! "scales", "holds" from "loses".
//!
//! `CLAIMS` is the index: every golden and the predicates that read it, one
//! `#[test]` per golden. `every_golden_states_a_claim` fails on a golden no
//! entry reads and on an entry whose golden is gone. The rows come from
//! `golden`, the one reader of the results documents;
//! `every_golden_re_renders_byte_for_byte` holds that reader to the writer.

mod golden;

use golden::Row;
use pcie::StoreIssueModel;

/// A predicate's name, for the failure report, and the predicate.
type Claim = (&'static str, fn(&[Row]));

/// Declares `CLAIMS` and, for each golden, a `#[test]` that runs its claims:
/// the table is both the index of the claims and their runner.
macro_rules! claims {
    ($($test:ident: $golden:literal => [$($claim:ident),+ $(,)?],)+) => {
        const CLAIMS: &[(&str, &[Claim])] =
            &[$(($golden, &[$((stringify!($claim), $claim)),+])),+];
        $(
            #[test]
            fn $test() {
                hold($golden);
            }
        )+
    };
}

claims! {
    fig09_shapes_hold: "fig09_local_logging.json" => [
        fig09_latency_ordering,
        fig09_pm_class_scales,
        fig09_nvme_flat,
    ],
    fig10_shapes_hold: "fig10_write_combining.json" => [
        fig10_wc_at_least_uc,
        fig10_sram_peaks_at_64,
        fig10_dram_plateaus_from_16,
        fig10_dram_follows_tlp_efficiency,
    ],
    fig11_shapes_hold: "fig11_queue_size.json" => [
        fig11_latency_set_by_write_once_queue_holds_it,
        fig11_small_queue_adds_round_trips,
        fig11_32k_queue_best_throughput,
        fig11_1k_queue_floor,
    ],
    fig12_shapes_hold: "fig12_destage_priority.json" => [
        fig12_neutral_loses_conventional_bandwidth_at_60,
        fig12_conventional_priority_holds,
    ],
    fig13_shapes_hold: "fig13_replication_delay.json" => [
        fig13_one_row_per_period,
        fig13_base_latency_flat,
        fig13_candle_grows_with_period,
        fig13_update_share_inverse_to_period,
        fig13_median_is_min_plus_half_period,
    ],
    fig_ycsb_shapes_hold: "fig_ycsb.json" => [
        ycsb_throughput_backend_independent,
        ycsb_latency_ordered_by_bytes_per_commit,
        ycsb_backend_stacks_flush_cost,
    ],
    data_movements_shapes_hold: "ablation_data_movements.json" => [
        movements_villars_touches_each_byte_once,
    ],
    replication_policy_shapes_hold: "ablation_replication_policy.json" => [
        policy_lazy_is_local_only,
        policy_quorum_between_lazy_and_eager,
        policy_chain_waits_for_its_tail,
    ],
    recovery_shapes_hold: "ablation_recovery.json" => [
        recovery_replay_flat_with_checkpoints,
        recovery_replay_grows_without_checkpoints,
        recovery_restore_flat_in_run_length,
    ],
    destage_deadline_shapes_hold: "ablation_destage_deadline.json" => [
        deadline_filler_falls,
        deadline_staleness_rises,
    ],
    replicated_tpcc_shapes_hold: "ablation_replicated_tpcc.json" => [
        replicated_tpcc_throughput_cpu_bound,
        replicated_tpcc_latency_one_replication_delay,
    ],
    chaos_tpcc_shapes_hold: "chaos_tpcc.json" => [
        chaos_every_logged_txn_recovered,
        chaos_every_fault_class_fired,
    ],
}

/// Runs every claim on `golden`'s rows, naming each first: the failing
/// test's captured output says which claim broke.
fn hold(golden: &str) {
    let (_, claims) = CLAIMS.iter().find(|(g, _)| *g == golden).expect("a CLAIMS entry");
    let rows = &golden::get(golden).rows;
    for (name, claim) in claims.iter() {
        println!("{golden}: {name}");
        claim(rows);
    }
}

/// Every golden states a claim (ROADMAP item 21): a `results/*.json` no
/// `CLAIMS` entry reads fails, and so does an entry whose golden is gone —
/// the stale-entry rule of the zero-path gate in `accounting_laws.rs`.
#[test]
fn every_golden_states_a_claim() {
    let goldens: Vec<&str> = golden::all().iter().map(|g| g.name.as_str()).collect();
    let unread: Vec<&str> =
        goldens.iter().copied().filter(|g| CLAIMS.iter().all(|(entry, _)| entry != g)).collect();
    let stale: Vec<&str> =
        CLAIMS.iter().map(|(entry, _)| *entry).filter(|entry| !goldens.contains(entry)).collect();
    assert!(unread.is_empty(), "goldens no CLAIMS entry reads: {unread:?}");
    assert!(stale.is_empty(), "CLAIMS entries with no golden: {stale:?}");
}

/// Every golden is what the writer prints for its parsed tree: a hand-edited
/// golden fails, and the reader and the writer agree on every byte.
#[test]
fn every_golden_re_renders_byte_for_byte() {
    for golden in golden::all() {
        let same = golden.doc.pretty() + "\n" == golden.text;
        assert!(same, "{}: the parsed document re-renders differently", golden.name);
    }
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

/// The analytic anchor under the DRAM plateau (ROADMAP item 2(b)): every
/// `dram-*` cell's MB/s is within 1 % of min(p / ⌈(p + 24 B) ÷ 2 GB/s⌉ ns,
/// 800 MB/s), p the TLP payload — the write, at most one uncached word (or
/// one WC buffer) — 24 B the per-TLP overhead, 2 GB/s the host link and
/// 800 MB/s the DRAM port after its 0.4 share, all read from the
/// configuration. The link charges whole nanoseconds per TLP
/// (`Bandwidth::transfer_time`), so 1 B is 1 B / 13 ns = 76.92 MB/s
/// (76.86 measured), not 1 B / 12.5 ns; 16 B is 16 / 20 = 800 MB/s.
fn fig10_dram_follows_tlp_efficiency(rows: &[Row]) {
    let config = xssd_core::VillarsConfig::villars_dram();
    let link = config.conventional.link;
    let port_mbps = config.cmb.backing_bandwidth().as_gbytes_per_sec() * 1e3;
    for (series, mode) in [("dram-wc", StoreIssueModel::wc()), ("dram-uc", StoreIssueModel::uc())] {
        for r in by_x(rows, series) {
            let payload = (r.x as u64).min(mode.unit());
            let wire = payload + pcie::TLP_OVERHEAD_BYTES;
            let tlp_ns = link.bandwidth().transfer_time(wire).as_nanos();
            let expect = (payload as f64 / tlp_ns as f64 * 1e3).min(port_mbps);
            assert!(
                within(r.extra, expect, 0.01),
                "{series} at {} B: {} MB/s, the TLP bound is {expect:.2}",
                r.x,
                r.extra
            );
        }
    }
}

// ---- Fig. 11: y = mean latency µs, extra = MB/s, x = write KiB,
// series = queue-<q>KiB

const QUEUES_KIB: [u32; 4] = [1, 4, 16, 32];
const WRITES_KIB: [u32; 5] = [1, 4, 16, 32, 64];

/// The `queue` KiB queue's row at `write` KiB.
fn fig11_cell(rows: &[Row], queue: u32, write: u32) -> &Row {
    cell(rows, &format!("queue-{queue}KiB"), f64::from(write))
}

/// "Latency is primarily dominated by the size of the writes, when the queue
/// size is at least as big as the write size": at every write size, the
/// queues that hold the write give one latency within 1 % (4 KiB writes:
/// 3.144 µs through the 4, 16 and 32 KiB queues), where one queue-full less
/// costs 8 % (12.58 vs 11.59 µs for 16 KiB writes).
fn fig11_latency_set_by_write_once_queue_holds_it(rows: &[Row]) {
    for w in WRITES_KIB {
        let held: Vec<f64> =
            QUEUES_KIB.iter().filter(|&&q| q >= w).map(|&q| fig11_cell(rows, q, w).y).collect();
        for lat in &held {
            assert!(within(*lat, held[0], 0.01), "{w} KiB writes: {lat} vs {} us", held[0]);
        }
    }
}

/// A queue smaller than the write adds credit-check round trips: at every
/// write size latency never rises with the queue, and falls strictly with
/// each larger queue while the queue is smaller than the write (64 KiB
/// writes: 66.05 / 50.30 / 46.37 / 45.71 µs through 1 / 4 / 16 / 32 KiB).
fn fig11_small_queue_adds_round_trips(rows: &[Row]) {
    for w in WRITES_KIB {
        for pair in QUEUES_KIB.windows(2) {
            let (small, large) = (fig11_cell(rows, pair[0], w).y, fig11_cell(rows, pair[1], w).y);
            let falls = if pair[0] < w { large < small } else { large <= small };
            assert!(
                falls,
                "{w} KiB writes: {small} us at {} KiB, {large} at {} KiB",
                pair[0], pair[1]
            );
        }
    }
}

/// "A queue with 32 KB achieves the best throughput across all the group
/// commit sizes we tested": the 32 KiB queue's MB/s dominates or ties every
/// write size's column (1 434 MB/s at 32 and 64 KiB).
fn fig11_32k_queue_best_throughput(rows: &[Row]) {
    for w in WRITES_KIB {
        let best = fig11_cell(rows, 32, w).extra;
        for q in QUEUES_KIB {
            let other = fig11_cell(rows, q, w).extra;
            assert!(best >= other, "{w} KiB writes: 32 KiB queue {best} MB/s < {q} KiB's {other}");
        }
    }
}

/// The analytic anchor (ROADMAP item 2b): a 1 KiB queue pays one credit
/// check per KiB, so every write size costs 1.032 µs per KiB — 16 WC TLPs of
/// 64 + 24 B on the 2 GB/s host link (0.704 µs) plus the check (0.328 µs) —
/// and moves 1024 B / 1.032 µs = 992.25 MB/s, within 1 %. That is the floor:
/// no queue moves less at any write size.
fn fig11_1k_queue_floor(rows: &[Row]) {
    for w in WRITES_KIB {
        let floor = fig11_cell(rows, 1, w);
        let per_kib = floor.y / f64::from(w);
        assert!(within(per_kib, 1.032, 0.01), "{w} KiB writes: {per_kib} us per KiB");
        assert!(within(floor.extra, 992.25, 0.01), "{w} KiB writes: {} MB/s", floor.extra);
        for q in QUEUES_KIB {
            let mbps = fig11_cell(rows, q, w).extra;
            assert!(
                mbps >= floor.extra,
                "{w} KiB writes: {q} KiB queue {mbps} MB/s below the floor"
            );
        }
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

/// The sweep covers the four update periods and nothing else: one
/// `shadow-refresh` row each at 0.4, 0.8, 1.2 and 1.6 µs, so no predicate
/// below passes on a golden that lost a period.
fn fig13_one_row_per_period(rows: &[Row]) {
    assert_eq!(rows.len(), 4, "one row per update period");
    let periods: Vec<f64> = by_x(rows, "shadow-refresh").iter().map(|r| r.x).collect();
    assert_eq!(periods, [0.4, 0.8, 1.2, 1.6], "update periods");
}

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

/// A write waits half an update cycle in the median: p50 = min + period / 2
/// within 1 % at 0.8, 1.2 and 1.6 µs (3.60 / 3.80 / 4.00 µs over the 3.20 µs
/// minimum). 0.4 µs is excluded, and its median is the minimum: each write
/// is issued a whole number of µs (20 + i mod 7) after the previous
/// confirmation, which lands on the secondary's update grid, and a whole µs
/// is 2.5 periods of 0.4 µs, so writes arrive at only two phases of the
/// cycle. The even delays (228 of the 400 writes) see 3.20 µs, the odd ones
/// 3.40 µs.
fn fig13_median_is_min_plus_half_period(rows: &[Row]) {
    for period in [0.8, 1.2, 1.6] {
        let r = cell(rows, "shadow-refresh", period);
        let expected = r.min + period / 2.0;
        assert!(within(r.y, expected, 0.01), "p50 {} at {period} us vs {expected}", r.y);
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

// ---- Ablation, data movements: y = host-bus bytes per logged byte,
// extra = host-bus µs per MiB logged

/// Paper §5.1: host-managed PM moves each logged byte over the host memory
/// bus three times, Villars once — 3.0 vs 1.0 bytes per byte exactly, and
/// bus time in the same ratio (393.2 vs 131.1 µs per MiB).
fn movements_villars_touches_each_byte_once(rows: &[Row]) {
    let (pm, villars) = (cell(rows, "host-managed-pm", 0.0), cell(rows, "villars", 1.0));
    assert_eq!((pm.y, villars.y), (3.0, 1.0), "host-bus bytes per logged byte");
    assert!(
        within(pm.extra, 3.0 * villars.extra, 0.01),
        "{} vs {} us/MiB",
        pm.extra,
        villars.extra
    );
}

// ---- Ablation, replication policy: y = mean commit µs with one secondary,
// extra = with three, x = 1

/// (one secondary, three secondaries) mean commit latency under `policy`.
fn policy_latency(rows: &[Row], policy: &str) -> (f64, f64) {
    let r = cell(rows, policy, 1.0);
    (r.y, r.extra)
}

/// Lazy is the local commit: the same latency at one and three secondaries
/// (3.144 µs, within 1 %) and below every other policy at both counts.
fn policy_lazy_is_local_only(rows: &[Row]) {
    let lazy = policy_latency(rows, "lazy");
    assert!(within(lazy.0, lazy.1, 0.01), "lazy {lazy:?}");
    for policy in ["eager", "chain", "quorum2"] {
        let other = policy_latency(rows, policy);
        assert!(lazy.0 < other.0 && lazy.1 < other.1, "lazy {lazy:?} vs {policy} {other:?}");
    }
}

/// lazy < quorum(2) ≤ eager at both counts, and quorum(2) strictly below
/// eager at three secondaries (7.81 vs 20.60 µs): it waits for the second
/// counter, not the slowest.
fn policy_quorum_between_lazy_and_eager(rows: &[Row]) {
    let (lazy, quorum) = (policy_latency(rows, "lazy"), policy_latency(rows, "quorum2"));
    let eager = policy_latency(rows, "eager");
    assert!(lazy.0 < quorum.0 && quorum.0 <= eager.0, "one: {lazy:?} {quorum:?} {eager:?}");
    assert!(lazy.1 < quorum.1 && quorum.1 < eager.1, "three: {lazy:?} {quorum:?} {eager:?}");
}

/// Chain reports its tail, and the tail is the slowest secondary: chain
/// equals eager within 1 % at one and at three secondaries.
fn policy_chain_waits_for_its_tail(rows: &[Row]) {
    let (chain, eager) = (policy_latency(rows, "chain"), policy_latency(rows, "eager"));
    assert!(
        within(chain.0, eager.0, 0.01) && within(chain.1, eager.1, 0.01),
        "{chain:?} vs {eager:?}"
    );
}

// ---- Ablation, recovery: y = replayed bytes, extra = restore µs,
// x = run length in chunks, series = replay-<checkpoint cadence>

/// A checkpoint bounds recovery: with one every chunk or every other chunk
/// the replayed bytes are flat in run length, max/min ≤ 1.01 over 4 – 16
/// chunks (55 656 – 55 808 B and 114 748 – 114 900 B).
fn recovery_replay_flat_with_checkpoints(rows: &[Row]) {
    for series in ["replay-every-1", "replay-every-2"] {
        let bytes: Vec<f64> = by_x(rows, series).iter().map(|r| r.y).collect();
        let (min, max) = (
            bytes.iter().cloned().fold(f64::MAX, f64::min),
            bytes.iter().cloned().fold(0.0, f64::max),
        );
        assert!(max / min <= 1.01, "{series}: {min} .. {max} B");
    }
}

/// Without checkpoints recovery replays the whole history: bytes per chunk
/// constant within 1 % (236 520 / 473 040 / 946 080 B for 4 / 8 / 16
/// chunks), where a checkpointed run's fall by half with each doubling.
fn recovery_replay_grows_without_checkpoints(rows: &[Row]) {
    let none = by_x(rows, "replay-none");
    let per_chunk = none[0].y / none[0].x;
    for r in &none {
        assert!(within(r.y / r.x, per_chunk, 0.01), "{} B over {} chunks", r.y, r.x);
    }
}

/// Restore time tracks the snapshot images read, not the log: with a
/// checkpoint every chunk it is the same at 4, 8 and 16 chunks (1 435.91 µs,
/// both ping-pong slots hold an image), where the `none` cadence's replayed
/// bytes grow 4 ×; every other chunk matches it once both slots are written
/// (8 and 16 chunks; at 4 only one is, 907.27 µs). With no checkpoint there
/// is nothing to restore (0 µs).
fn recovery_restore_flat_in_run_length(rows: &[Row]) {
    let every_1 = by_x(rows, "replay-every-1");
    for r in &every_1 {
        assert!(
            within(r.extra, every_1[0].extra, 0.01),
            "restore {} us at {} chunks",
            r.extra,
            r.x
        );
    }
    for chunks in [8.0, 16.0] {
        let every_2 = cell(rows, "replay-every-2", chunks).extra;
        assert!(
            within(every_2, every_1[0].extra, 0.01),
            "every-2 restore {every_2} us at {chunks}"
        );
    }
    for r in by_x(rows, "replay-none") {
        assert_eq!(r.extra, 0.0, "replay-none restored {} us at {} chunks", r.extra, r.x);
    }
}

// ---- Ablation, destage deadline: y = filler fraction of destaged pages,
// extra = tail-read staleness µs, x = deadline µs

/// A longer deadline waits for fuller pages: the filler fraction falls
/// strictly from 50 µs to 5 ms (0.969 → 0.038).
fn deadline_filler_falls(rows: &[Row]) {
    for pair in by_x(rows, "destage-deadline").windows(2) {
        assert!(
            pair[1].y < pair[0].y,
            "filler {} at {} us vs {} at {} us",
            pair[1].y,
            pair[1].x,
            pair[0].y,
            pair[0].x
        );
    }
}

/// … and the log's tail stays unreadable on flash longer: staleness rises
/// strictly with the deadline (678 → 5 628 µs).
fn deadline_staleness_rises(rows: &[Row]) {
    for pair in by_x(rows, "destage-deadline").windows(2) {
        assert!(
            pair[1].extra > pair[0].extra,
            "staleness {} at {} us vs {} at {} us",
            pair[1].extra,
            pair[1].x,
            pair[0].extra,
            pair[0].x
        );
    }
}

// ---- Ablation, replicated TPC-C: y = txn/s, extra = mean commit µs,
// x = secondaries

/// Log shipping rides the device, not the database: throughput with 0, 1
/// and 2 secondaries within 0.1 % (147 484 / 147 479 / 147 479 txn/s) —
/// the closed loop stays CPU-bound.
fn replicated_tpcc_throughput_cpu_bound(rows: &[Row]) {
    let base = cell(rows, "0-secondaries", 0.0).y;
    for r in rows {
        assert!(within(r.y, base, 0.001), "{}: {} vs {base} txn/s", r.series, r.y);
    }
}

/// The first secondary costs one replication delay — latency rises, by
/// under 10 % (81.11 → 84.51 µs) — and the second almost nothing (84.70 µs,
/// under 1 % more): the mirror flows run in parallel.
fn replicated_tpcc_latency_one_replication_delay(rows: &[Row]) {
    let lat = |n: f64| cell(rows, &format!("{n}-secondaries"), n).extra;
    let (zero, one, two) = (lat(0.0), lat(1.0), lat(2.0));
    assert!(zero < one && one < 1.10 * zero, "first secondary: {zero} -> {one} us");
    assert!(one <= two && two < 1.01 * one, "second secondary: {one} -> {two} us");
}

// ---- chaos_tpcc: one row per outcome, x = the fault seed

/// Zero committed-transaction loss: recovery from each surviving secondary
/// (`recovery.txns` y and extra) finds every logged transaction
/// (`txns.logged`, 299).
fn chaos_every_logged_txn_recovered(rows: &[Row]) {
    let logged = rows.iter().find(|r| r.series == "txns.logged").expect("txns.logged").y;
    let recovered = rows.iter().find(|r| r.series == "recovery.txns").expect("recovery.txns");
    assert!(logged > 0.0, "nothing logged");
    assert_eq!((recovered.y, recovered.extra), (logged, logged), "recovered vs {logged} logged");
}

/// The run survived every fault class it armed: each `fault.*` row counts
/// both of its faults above zero (flash retries and retired blocks, NTB
/// replays and link-down deferrals, NVMe retries and timeouts).
fn chaos_every_fault_class_fired(rows: &[Row]) {
    let faults: Vec<&Row> = rows.iter().filter(|r| r.series.starts_with("fault.")).collect();
    assert_eq!(faults.len(), 3, "flash, NTB and NVMe fault rows");
    for r in faults {
        assert!(r.y > 0.0 && r.extra > 0.0, "{}: {} / {}", r.series, r.y, r.extra);
    }
}
