//! Host-work counts, gated exactly against the committed
//! `BENCH_counts.json` at the repository root.
//!
//! Wall clock cannot settle a 10 % question on a shared host; a count made
//! by the program repeats exactly. Each slice runs a fixed, seeded workload
//! through the workspace's entry points and records integers a host
//! performance change moves: allocations, bytes allocated and the peak live
//! heap, counted on the test's own thread by the `counting` allocator that
//! `alloc_budget` also installs.
//!
//! Three slices. `tpcc_nolog` is TPC-C at the benchmark's scale with no log
//! backend: the driver's 400 simulated ms, whose growth is the database's
//! (each new row and its index entry) and the runner's samples; it also
//! counts the index's descents from the root, the nodes they and the
//! positioned and hinted lookups visited (`Database::index_node_visits`)
//! and how the hint probes went (`Database::index_hints`).
//! `ycsb_a_nvme` is the benchmark's `ycsb_nvme` in small: YCSB-A over
//! 8 192 rows at θ 0.8, `NvmeLog` on a conventional SSD, the pipelined log
//! path at depth 4, 300 simulated ms measured; the same counts, whose
//! growth is the runner's samples and the log path's, since YCSB-A's reads
//! and updates add no row, and the zipfian chooser's evaluations of its
//! closed form (`Zipfian::formula_evals`, each one a `powf`).
//! `mixed_device` is `destage_mixed` in small: one Villars-SRAM device
//! taking 16 KiB `x_pwrite`s beside conventional writes and reads, which
//! also counts the flash scheduler's window scans. Any difference fails
//! and prints the file as this build counts it; a change that moves a count
//! on purpose commits that file, so its diff is the change's record.
//!
//! Release only: a debug build runs the index and arena invariant checks,
//! whose allocations are not the program's. `scripts/check.sh` runs it.
mod counting;

use memdb::{Database, NoLog, NvmeLog, TableId, WalConfig, WalManager};
use nvme::{CommandKind, Completion, IoCommand};
use simkit::telemetry::json::Json;
use simkit::{Bytes, DetRng, SimDuration, SimTime};
use ssd::{ConventionalSsd, SsdConfig};
use xssd_bench::driver::{self, DriverConfig, Workload};
use xssd_bench::ycsb::{self, YcsbConfig, YcsbMix};
use xssd_core::{Cluster, VillarsConfig, XLogFile};

#[global_allocator]
static ALLOCATOR: counting::CountingAlloc = counting::CountingAlloc;

const COUNTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_counts.json");

/// `"name": value` lines of one database slice, in a fixed order: a driver
/// run of `workload` over `db` through `wal`, counted from the run's start.
fn database_slice<B: memdb::LogBackend>(
    db: &mut Database,
    wal: &mut WalManager<B>,
    workload: &mut impl Workload,
    cfg: &DriverConfig,
) -> Vec<(&'static str, u64)> {
    let rows = |db: &Database| -> u64 {
        let tables = (0..db.table_names().len()).filter_map(|t| db.table(t as TableId));
        tables.map(|t| t.len() as u64).sum()
    };
    let rows_before = rows(db);
    let (descents, visits) = (db.index_descents(), db.index_node_visits());
    counting::reset_thread_peak();
    let before = counting::thread_counts();
    let report = driver::run(db, wal, workload, cfg);
    let after = counting::thread_counts();
    vec![
        ("commits", report.run.committed),
        ("rows_stored", rows(db) - rows_before),
        ("index_descents", db.index_descents() - descents),
        ("index_node_visits", db.index_node_visits() - visits),
        ("allocations", after.allocs - before.allocs),
        ("bytes_allocated", after.bytes - before.bytes),
        ("peak_live_heap_bytes", (after.peak - before.live) as u64),
    ]
}

fn tpcc_nolog() -> Vec<(&'static str, u64)> {
    let (mut db, mut workload, _) = tpcc::setup(tpcc::TpccConfig::bench(), 19);
    let mut wal = WalManager::new(NoLog::new(), WalConfig::default());
    let cfg = DriverConfig {
        workers: 4,
        measure: SimDuration::from_millis(400),
        seed: 19,
        ..DriverConfig::default()
    };
    let hints = db.index_hints();
    let mut counts = database_slice(&mut db, &mut wal, &mut workload, &cfg);
    let after = db.index_hints();
    counts.extend([
        ("index_hint_hits", after.hits - hints.hits),
        ("index_hint_stale", after.stale - hints.stale),
        ("index_hint_misses", after.misses - hints.misses),
    ]);
    counts
}

/// The benchmark's `ycsb_nvme` shape (`benchmark/src/workloads/ycsb_nvme.rs`)
/// with a 20 ms ramp-up and a 300 ms measured window.
fn ycsb_a_nvme() -> Vec<(&'static str, u64)> {
    let (mut db, mut workload, _) =
        ycsb::setup(YcsbConfig { mix: YcsbMix::A, ..YcsbConfig::default() }, 29);
    let mut ssd_cfg = SsdConfig::default();
    ssd_cfg.timing.t_prog = SimDuration::from_micros(200);
    let backend = NvmeLog::new(ConventionalSsd::new(ssd_cfg), 0, 8192);
    let mut wal =
        WalManager::new(backend, WalConfig { group_threshold: 4 << 10, ..WalConfig::default() });
    let cfg = DriverConfig {
        workers: 4,
        ramp_up: SimDuration::from_millis(20),
        measure: SimDuration::from_millis(300),
        seed: 29,
        log_pipeline_depth: 4,
        ..DriverConfig::default()
    };
    let evals = workload.zipfian_formula_evals();
    let mut counts = database_slice(&mut db, &mut wal, &mut workload, &cfg);
    counts.push(("zipfian_formula_evals", workload.zipfian_formula_evals() - evals));
    counts
}

/// One Villars-SRAM device for 40 simulated ms: a 16 KiB `x_pwrite` and a
/// conventional command each at 30 % of the flash program envelope (two
/// page writes, then a read of a page already written; LBAs uniform over a
/// 1024-page window clear of the destage ring), submitted through
/// `Cluster::submit` / `advance` / `completions_into` as the benchmark's
/// `destage_mixed` does. Counted after the device is built.
fn mixed_device() -> Vec<(&'static str, u64)> {
    const SHARE: f64 = 0.30;
    const WINDOW_BASE_LBA: u64 = 1 << 21;
    const WINDOW_PAGES: u64 = 1024;
    let config = VillarsConfig::villars_sram();
    let geometry = config.conventional.geometry;
    let page = geometry.page_bytes as usize;
    let envelope_bps = config.conventional.timing.program_bandwidth_gbps(&geometry) * 1e9;
    let interval = SimDuration::from_secs_f64(page as f64 / (envelope_bps * SHARE));
    let end = SimTime::from_millis(40);
    let mut cl = Cluster::new();
    let dev = cl.add_device(config);
    let mut file = XLogFile::open(dev);
    let mut rng = DetRng::new(23);
    let mut written: Vec<u64> = Vec::new();
    let mut completions: Vec<Completion> = Vec::new();
    let fast_page: Vec<u8> = (0..page).map(|i| i as u8).collect();
    let (mut next_conv, mut next_fast) = (SimTime::ZERO, SimTime::ZERO);
    let (mut conv_seq, mut ops) = (0u64, 0u64);

    counting::reset_thread_peak();
    let before = counting::thread_counts();
    let visits_before = cl.device(dev).conventional().sched_window_visits();
    while next_conv < end || next_fast < end {
        let at = next_conv.min(next_fast);
        if next_conv <= next_fast {
            let kind = if conv_seq % 3 == 2 {
                let lba = written[rng.uniform(0, written.len() as u64 - 1) as usize];
                IoCommand::Read { lba, blocks: 1 }
            } else {
                let lba = WINDOW_BASE_LBA + rng.uniform(0, WINDOW_PAGES - 1);
                let data = Bytes::from(vec![conv_seq as u8; page]);
                cl.device_mut(dev).conventional_mut().stage_write_data(lba, data);
                written.push(lba);
                IoCommand::Write { lba, blocks: 1 }
            };
            conv_seq += 1;
            cl.submit(dev, at, CommandKind::Io(kind));
            next_conv =
                if next_conv + interval < end { next_conv + interval } else { SimTime::MAX };
        } else {
            let t = file
                .x_pwrite(&mut cl, at, &fast_page)
                .expect("the fast stream stays below saturation");
            ops += 1;
            next_fast = (at + interval).max(t);
            if next_fast >= end {
                next_fast = SimTime::MAX;
            }
        }
        let until = next_conv.min(next_fast).min(end);
        cl.advance(until);
        completions.clear();
        cl.completions_into(dev, until, &mut completions);
        ops += completions.len() as u64;
    }
    let after = counting::thread_counts();
    let visits = cl.device(dev).conventional().sched_window_visits() - visits_before;
    vec![
        ("ops", ops),
        ("sched_window_visits", visits),
        ("allocations", after.allocs - before.allocs),
        ("bytes_allocated", after.bytes - before.bytes),
        ("peak_live_heap_bytes", (after.peak - before.live) as u64),
    ]
}

/// The counts file, one object per slice, as simkit's JSON writer prints it.
fn render(slices: &[(&str, Vec<(&str, u64)>)]) -> String {
    let slice =
        |counts: &[(&str, u64)]| Json::object(counts.iter().map(|&(k, v)| (k, Json::U64(v))));
    Json::object(slices.iter().map(|(name, counts)| (*name, slice(counts)))).pretty() + "\n"
}

#[test]
#[cfg_attr(debug_assertions, ignore = "counts are taken in release builds (scripts/check.sh)")]
fn host_counts_match_the_committed_file() {
    let counted = render(&[
        ("tpcc_nolog", tpcc_nolog()),
        ("ycsb_a_nvme", ycsb_a_nvme()),
        ("mixed_device", mixed_device()),
    ]);
    let committed = std::fs::read_to_string(COUNTS).unwrap_or_default();
    if counted != committed {
        eprintln!("BENCH_counts.json as this build counts it:\n{counted}");
        panic!("host counts differ from the committed BENCH_counts.json (new file above)");
    }
}
