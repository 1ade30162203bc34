//! The benchmark driver: the database cells every workload harness runs.
//!
//! A harness cell is a [`Workload`] (`tpcc::TpccWorkload` or
//! [`crate::ycsb::YcsbWorkload`]), a [`DriverConfig`] literal and a log
//! backend; [`run_cell`] drives them through [`memdb::runner::run`] — the
//! weighted kind pick, the pinned-worker schedule, the ramp-up window
//! excluded from statistics, the per-kind and time-series accounting — and
//! collects the [`DriverReport`] with the WAL, the backend's device stack
//! and the workload into one snapshot.
//!
//! Determinism contract: for a zero ramp and a workload whose mix totals
//! 100, the runner's weighted pick draws `rng.uniform(1, total)` — the
//! exact draw `TpccWorkload::pick` made — so a harness reproduces every
//! `rows` entry and every telemetry value of its `results/*.json` golden
//! (`crates/bench/tests/driver.rs` pins the draw;
//! `scripts/check_results.sh` gates rows exactly and telemetry additively).

pub use memdb::runner::{run, DriverConfig, DriverReport, KindReport, TimeBucket, Workload};

use memdb::{Database, LogBackend, WalConfig, WalManager};
use simkit::{Instrument, MetricsRegistry, SimDuration, Snapshot};
use ssd::{ConventionalSsd, SsdConfig};
use xssd_core::{Cluster, VillarsConfig};

/// The conventional device the NVMe setups log to: the stock platform with
/// the log region in fast-page (SLC-cached) mode, as log-dedicated regions
/// commonly run.
pub fn log_ssd() -> ConventionalSsd {
    let mut cfg = SsdConfig::default();
    cfg.timing.t_prog = SimDuration::from_micros(200);
    ConventionalSsd::new(cfg)
}

/// A single Villars device (SRAM- or DRAM-backed CMB) with the paper's
/// 32 KiB flow-control queue (the [`xssd_core::CmbConfig`] default).
pub fn villars_cluster(sram: bool) -> Cluster {
    let config = if sram { VillarsConfig::villars_sram() } else { VillarsConfig::villars_dram() };
    let mut cl = Cluster::new();
    cl.add_device(config);
    cl
}

/// One database cell: drive `workload` through a WAL over `backend` and
/// collect the full cross-stack snapshot — the run's `db.*` metrics, the WAL
/// counters, the backend's device stack (PCIe / SSD / flash / core groups
/// where it has one) and the workload's own counters.
pub fn run_cell<B, W>(
    db: &mut Database,
    workload: &mut W,
    backend: B,
    wal: WalConfig,
    cfg: &DriverConfig,
) -> Snapshot
where
    B: LogBackend + Instrument,
    W: Workload + Instrument,
{
    let mut wal = WalManager::new(backend, wal);
    let report = run(db, &mut wal, workload, cfg);
    let mut reg = MetricsRegistry::new();
    reg.collect("", &report);
    reg.collect("", &wal);
    reg.collect("", &*workload);
    reg.snapshot()
}
