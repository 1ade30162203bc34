//! YCSB mixes × log backends, on the declarative driver.
//!
//! The YCSB companion to Fig. 9: where TPC-C fills 16 KiB commit groups
//! with multi-row transactions, YCSB commits one small random update at
//! a time — the small-append regime of the log path. The A–F mixes run
//! against three logging backends (NVDIMM memory, conventional NVMe,
//! Villars-SRAM) with a 4 KiB group threshold so group commits form from
//! single-row records rather than one transaction's worth of pages.
//!
//! This one uses the driver's full measured surface: a 50 ms ramp-up
//! excluded from every statistic, and 50 ms time-series buckets across the
//! 250 ms measured window, so each cell's telemetry carries
//! `db.series.tNNNN.*` beside the `db.*` aggregates, `db.mix.<kind>.*`
//! and the workload's own `db.ycsb.*` counters (docs/OBSERVABILITY.md).

use memdb::{NvmeLog, PmConfig, PmLog, WalConfig, XssdLog};
use simkit::{SimDuration, Snapshot};
use xssd_bench::driver::{self, DriverConfig};
use xssd_bench::table::{Cell, Col, Table};
use xssd_bench::ycsb::{self, YcsbConfig, YcsbMix};
use xssd_bench::{cli, section, sweep, Measurement, Report};

/// The three log backends each mix runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backend {
    Memory,
    Nvme,
    VillarsSram,
}

impl Backend {
    const ALL: [Backend; 3] = [Backend::Memory, Backend::Nvme, Backend::VillarsSram];

    fn label(self) -> &'static str {
        match self {
            Backend::Memory => "memory-nvdimm",
            Backend::Nvme => "nvme-conventional",
            Backend::VillarsSram => "villars-sram",
        }
    }
}

/// One (mix, backend) cell: [`driver::run_cell`] with a 4 KiB group
/// threshold instead of the TPC-C 16 KiB, so single-row YCSB records still
/// form multi-record groups.
fn run(mix: YcsbMix, backend: Backend, cell: usize) -> Snapshot {
    let (mut db, mut workload, _rng) =
        ycsb::setup(YcsbConfig { mix, ..YcsbConfig::default() }, 0x7C5B + cell as u64);
    let cfg = DriverConfig {
        workers: 4,
        ramp_up: SimDuration::from_millis(50),
        measure: SimDuration::from_millis(250),
        seed: 0x7C5B_0000 + cell as u64,
        series_bucket: Some(SimDuration::from_millis(50)),
        ..DriverConfig::default()
    };
    let wal = WalConfig { group_threshold: 4 << 10, ..WalConfig::default() };
    let (db, workload) = (&mut db, &mut workload);
    match backend {
        Backend::Memory => {
            driver::run_cell(db, workload, PmLog::new(PmConfig::default()), wal, &cfg)
        }
        Backend::Nvme => {
            driver::run_cell(db, workload, NvmeLog::new(driver::log_ssd(), 0, 8192), wal, &cfg)
        }
        Backend::VillarsSram => {
            let backend = XssdLog::new(driver::villars_cluster(true), 0, "villars-sram");
            driver::run_cell(db, workload, backend, wal, &cfg)
        }
    }
}

/// (ktxn/s, mean µs, p99 µs) from a cell's snapshot.
fn derive(snap: &Snapshot) -> (f64, f64, f64) {
    let commits = snap.counter("db.commits") as f64;
    let elapsed_s = snap.counter("db.elapsed_ns") as f64 / 1e9;
    let tps = if elapsed_s > 0.0 { commits / elapsed_s } else { 0.0 };
    let latency = snap.latency("db.commit_latency_us");
    (tps / 1e3, latency.mean, latency.p99)
}

fn main() {
    cli::no_args("fig_ycsb", "YCSB A-F mixes x log backends on the workload driver");
    let mut report = Report::new(
        "fig_ycsb",
        "YCSB",
        "YCSB A-F throughput & latency per logging backend",
        "8192 rows, zipfian theta 0.8, 4 KiB group commit, 4 workers; 50 ms ramp + 250 ms measured in 50 ms buckets",
    );
    // The (mix, backend) grid in row order; each cell is an isolated
    // simulation, so the sweep runs them on all cores and hands the
    // snapshots back in this exact order.
    let grid: Vec<(usize, YcsbMix, Backend)> = YcsbMix::ALL
        .iter()
        .flat_map(|&m| Backend::ALL.iter().map(move |&b| (m, b)))
        .enumerate()
        .map(|(i, (m, b))| (i, m, b))
        .collect();
    let snaps = sweep::map(&grid, |&(cell, m, b)| run(m, b, cell));
    section("throughput (committed ktxn/s) and commit latency (us), measured window");
    let table = Table::new(&[
        Col::left("mix", 4),
        Col::left("backend", 20),
        Col::right("ktxn/s", 12),
        Col::right("mean_lat_us", 14),
        Col::right("p99_lat_us", 14),
    ]);
    println!("{}", table.header());
    for (&(i, m, b), snap) in grid.iter().zip(snaps) {
        let (ktps, mean_us, p99_us) = derive(&snap);
        report.row(
            &table.row(&[
                Cell::str(m.label()),
                Cell::str(b.label()),
                Cell::Float(ktps, 1),
                Cell::Float(mean_us, 1),
                Cell::Float(p99_us, 1),
            ]),
            Measurement::point(
                "fig_ycsb",
                format!("{}-{}", m.label(), b.label()),
                (i / Backend::ALL.len()) as f64,
                "mix_index",
                ktps * 1e3,
                "txn_per_sec",
            )
            .with_extra(mean_us),
        );
        report.telemetry(format!("{}.{}", m.label(), b.label()), snap);
        if b == Backend::ALL[Backend::ALL.len() - 1] {
            println!();
        }
    }
    report.finish().expect("write results json");
}
