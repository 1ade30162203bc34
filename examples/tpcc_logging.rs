//! TPC-C over every log backend: the Fig. 9 experiment as a runnable tour.
//!
//! Run with: `cargo run --release --example tpcc_logging`
//!
//! Loads a TPC-C database, then runs the standard transaction mix with four
//! workers against each logging setup — no-log, NVDIMM, conventional NVMe,
//! Villars SRAM/DRAM — and prints throughput and commit latency.

use xssd_suite::db::runner::run;
use xssd_suite::db::{
    DriverConfig, NoLog, NvmeLog, PmConfig, PmLog, WalConfig, WalManager, XssdLog,
};
use xssd_suite::sim::SimDuration;
use xssd_suite::ssd::{ConventionalSsd, SsdConfig};
use xssd_suite::tpcc::{setup, TpccConfig};
use xssd_suite::xssd::{Cluster, VillarsConfig};

fn villars(sram: bool) -> Cluster {
    let mut cl = Cluster::new();
    cl.add_device(if sram { VillarsConfig::villars_sram() } else { VillarsConfig::villars_dram() });
    cl
}

fn main() {
    println!("== TPC-C across log backends (4 workers, 16 KiB group commit) ==");
    println!(
        "{:<18} {:>12} {:>14} {:>12} {:>10}",
        "backend", "ktxn/s", "mean_lat_us", "log_MB", "flushes"
    );

    let cfg = DriverConfig {
        workers: 4,
        measure: SimDuration::from_millis(100),
        ..DriverConfig::default()
    };

    for backend_name in ["no-log", "pm-nvdimm", "nvme-block", "villars-sram", "villars-dram"] {
        // Fresh database per backend so every run starts from the same state.
        let (mut db, mut workload, _rng) = setup(TpccConfig::bench(), 1234);

        let report = match backend_name {
            "no-log" => {
                let mut wal = WalManager::new(NoLog::new(), WalConfig::default());
                run(&mut db, &mut wal, &mut workload, &cfg)
            }
            "pm-nvdimm" => {
                let mut wal =
                    WalManager::new(PmLog::new(PmConfig::default()), WalConfig::default());
                run(&mut db, &mut wal, &mut workload, &cfg)
            }
            "nvme-block" => {
                let device = ConventionalSsd::new(SsdConfig::default());
                let mut wal = WalManager::new(NvmeLog::new(device, 0, 8192), WalConfig::default());
                run(&mut db, &mut wal, &mut workload, &cfg)
            }
            "villars-sram" => {
                let mut wal = WalManager::new(
                    XssdLog::new(villars(true), 0, "villars-sram"),
                    WalConfig::default(),
                );
                run(&mut db, &mut wal, &mut workload, &cfg)
            }
            "villars-dram" => {
                let mut wal = WalManager::new(
                    XssdLog::new(villars(false), 0, "villars-dram"),
                    WalConfig::default(),
                );
                run(&mut db, &mut wal, &mut workload, &cfg)
            }
            _ => unreachable!(),
        }
        .run;
        println!(
            "{:<18} {:>12.1} {:>14.1} {:>12.2} {:>10}",
            backend_name,
            report.throughput_tps() / 1e3,
            report.mean_latency_us(),
            report.log_bytes as f64 / 1e6,
            report.flushes
        );
    }
    println!();
    println!("takeaway: the Villars fast side gives PM-class commit latency from a");
    println!("standard NVMe device — no DIMM slots consumed, no PM programming model.");
}
