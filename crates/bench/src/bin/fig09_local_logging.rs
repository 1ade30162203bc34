//! Fig. 9 — Logging to local storage.
//!
//! "Comparison of latency (left) and throughput (right) with an increasing
//! number of log writes and under different local logging setups" (paper
//! §6.1). Five setups: No Log / Memory (NVDIMM) / NVMe (conventional side)
//! / Villars-SRAM / Villars-DRAM, each swept over 1–8 workers running
//! TPC-C with a 16 KiB group-commit threshold.
//!
//! Each cell is one `bench::driver` run: the TPC-C workload under the
//! standard mix, closed-loop, measured for 150 ms of simulated time.
//! Every printed number is derived from the telemetry [`Snapshot`] captured
//! after each run — the same snapshot the `results/fig09_local_logging.json`
//! file embeds — so the table and the export cannot drift apart.

use memdb::{NoLog, NvmeLog, PmConfig, PmLog, WalConfig, XssdLog};
use simkit::{SimDuration, Snapshot};
use tpcc::{setup, TpccConfig};
use xssd_bench::driver::{self, DriverConfig};
use xssd_bench::table::{Cell, Col, Table};
use xssd_bench::{cli, section, sweep, Measurement, Report};

/// The five Fig. 9 logging setups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Setup {
    NoLog,
    Memory,
    Nvme,
    VillarsSram,
    VillarsDram,
}

impl Setup {
    fn label(self) -> &'static str {
        match self {
            Setup::NoLog => "no-log",
            Setup::Memory => "memory-nvdimm",
            Setup::Nvme => "nvme-conventional",
            Setup::VillarsSram => "villars-sram",
            Setup::VillarsDram => "villars-dram",
        }
    }
}

/// Run one (setup, workers) cell: [`driver::run_cell`] over the setup's
/// backend with the paper's 16 KiB group threshold.
fn run(setup_kind: Setup, workers: usize) -> Snapshot {
    let (mut db, mut workload, _rng) = setup(TpccConfig::bench(), 0x716 + workers as u64);
    let cfg = DriverConfig {
        workers,
        measure: SimDuration::from_millis(150),
        seed: 0xF160_9000 + workers as u64,
        ..DriverConfig::default()
    };
    let (db, workload, wal) = (&mut db, &mut workload, WalConfig::default());
    let villars = |sram, label| XssdLog::new(driver::villars_cluster(sram), 0, label);
    match setup_kind {
        Setup::NoLog => driver::run_cell(db, workload, NoLog::new(), wal, &cfg),
        Setup::Memory => driver::run_cell(db, workload, PmLog::new(PmConfig::default()), wal, &cfg),
        Setup::Nvme => {
            driver::run_cell(db, workload, NvmeLog::new(driver::log_ssd(), 0, 8192), wal, &cfg)
        }
        Setup::VillarsSram => {
            driver::run_cell(db, workload, villars(true, "villars-sram"), wal, &cfg)
        }
        Setup::VillarsDram => {
            driver::run_cell(db, workload, villars(false, "villars-dram"), wal, &cfg)
        }
    }
}

/// Derive the figure's three series values from a snapshot.
fn derive(snap: &Snapshot) -> (f64, f64, f64) {
    let commits = snap.counter("db.commits") as f64;
    let elapsed_s = snap.counter("db.elapsed_ns") as f64 / 1e9;
    let tps = if elapsed_s > 0.0 { commits / elapsed_s } else { 0.0 };
    let latency = snap.latency("db.commit_latency_us");
    (tps, latency.mean, latency.p99)
}

fn main() {
    cli::no_args("fig09_local_logging", "TPC-C latency & throughput per local-logging setup");
    let mut report = Report::new(
        "fig09_local_logging",
        "Figure 9",
        "Local logging: latency & throughput vs. worker count",
        "TPC-C (bench scale), 16 KiB group commit, setups: no-log / NVDIMM / NVMe / Villars-SRAM / Villars-DRAM",
    );
    let setups = [Setup::NoLog, Setup::Memory, Setup::Nvme, Setup::VillarsSram, Setup::VillarsDram];
    let workers = [1usize, 2, 4, 8];
    // The (setup, workers) grid in row order; each cell is an isolated
    // simulation, so the sweep runs them on all cores and hands the
    // snapshots back in this exact order.
    let grid: Vec<(Setup, usize)> =
        setups.iter().flat_map(|&s| workers.iter().map(move |&w| (s, w))).collect();
    let snaps = sweep::map(&grid, |&(s, w)| run(s, w));
    section("throughput (committed txn/s) and mean latency (us)");
    let table = Table::new(&[
        Col::left("setup", 20),
        Col::right("workers", 8),
        Col::right("ktxn/s", 14),
        Col::right("mean_lat_us", 14),
        Col::right("p99_lat_us", 14),
    ]);
    println!("{}", table.header());
    for (&(s, w), snap) in grid.iter().zip(snaps) {
        let (tps, mean_us, p99_us) = derive(&snap);
        report.row(
            &table.row(&[
                Cell::str(s.label()),
                Cell::from(w),
                Cell::Float(tps / 1e3, 1),
                Cell::Float(mean_us, 1),
                Cell::Float(p99_us, 1),
            ]),
            Measurement::point("fig09", s.label(), w as f64, "workers", tps, "txn_per_sec")
                .with_extra(mean_us),
        );
        report.telemetry(format!("{}.w{}", s.label(), w), snap);
    }
    report.finish().expect("write results json");
}
