//! `tpcc_local` — the paper's headline Fig. 9 cell.
//!
//! TPC-C at `TpccConfig::bench()` scale (tables do not fit the host's
//! caches), 4 simulated workers in a closed loop, `XssdLog` on one
//! Villars-SRAM device with the 32 KiB intake queue, 16 KiB group commit,
//! blocking log path (`log_pipeline_depth = 1`); 50 ms ramp-up + 1000 ms
//! measured. An *op* is a committed transaction.

use super::db;
use super::{counter, Check, Outcome, Scale};
use crate::wrap::Spanned;
use memdb::{WalConfig, WalManager, XssdLog};
use simkit::{MetricsRegistry, SimDuration};
use tpcc::TpccConfig;
use xssd_bench::driver::DriverConfig;
use xssd_core::{Cluster, VillarsConfig};

const WORKERS: usize = 4;
const RAMP_UP: SimDuration = SimDuration::from_millis(50);
const MEASURE: SimDuration = SimDuration::from_millis(1000);
/// Destaging trails the log by up to one `max_latency` deadline (1 ms);
/// running the device on this long after the last commit lets every byte
/// reach flash, so bytes-per-user-byte counts the filler too.
const DRAIN: SimDuration = SimDuration::from_millis(5);

/// Driver kind label → per-layer metric name.
const KIND_METRICS: &[(&str, &str)] = &[
    ("new_order", "tpcc.new_order.sim_lat_mean_us"),
    ("payment", "tpcc.payment.sim_lat_mean_us"),
    ("order_status", "tpcc.order_status.sim_lat_mean_us"),
    ("delivery", "tpcc.delivery.sim_lat_mean_us"),
    ("stock_level", "tpcc.stock_level.sim_lat_mean_us"),
];

/// Run the workload once.
pub fn run(seed: u64, scale: Scale) -> Outcome {
    let ramp_up = scale.duration(RAMP_UP);
    let (mut db, mut workload, _rng) = tpcc::setup(TpccConfig::bench(), seed);
    let mut config = VillarsConfig::villars_sram();
    config.cmb.intake_queue_bytes = 32 << 10;
    let page_bytes = config.conventional.geometry.page_bytes as u64;
    let dies = config.conventional.geometry.total_dies() as u64;
    let mut cluster = Cluster::new();
    cluster.add_device(config);
    let backend = Spanned::new(XssdLog::new(cluster, 0, "villars-sram"), ramp_up);
    let mut wal = WalManager::new(backend, WalConfig::default());
    let cfg = DriverConfig {
        workers: WORKERS,
        ramp_up,
        measure: scale.duration(MEASURE),
        seed: seed ^ 0x7CC0_D21E,
        log_pipeline_depth: 1,
        ..DriverConfig::default()
    };

    let run = db::drive(&mut db, &mut wal, &mut workload, &cfg);

    let sim_end = run.sim_end + DRAIN;
    wal.backend_mut().inner_mut().cluster_mut().advance(sim_end);
    let mut reg = MetricsRegistry::new();
    reg.collect("", &run.report);
    reg.collect("", &wal);
    reg.collect("", &workload);
    let snapshot = reg.snapshot();

    let mut checks = run.checks();
    let appended = counter(&snapshot, "db.log.bytes_appended");
    checks.push(Check::present_eq(
        "log_bytes_appended_equal_cmb_bytes_in",
        appended,
        counter(&snapshot, "core.cmb.lane0.bytes_in"),
    ));
    checks.push(Check::present_eq(
        "wal_flushes_equal_credit_reads",
        counter(&snapshot, "db.wal.flushes"),
        counter(&snapshot, "core.fast.credit_reads"),
    ));
    checks.push(Check::present_eq(
        "every_log_byte_destaged",
        counter(&snapshot, "core.destage.lane0.persisted_offset"),
        appended,
    ));
    checks.push(Check::present_eq(
        "below_gc_onset",
        counter(&snapshot, "ssd.ftl.gc_writes"),
        Some(0),
    ));

    // The spec's 1 % invalid-item NewOrder rollbacks are intended outcomes;
    // anything else that aborted (a validation conflict) is a failure.
    let failed = db.aborts().saturating_sub(workload.stats().rollbacks);
    Outcome {
        window: run.window,
        ops: run.report.run.committed,
        attempted: run.attempted,
        failed,
        sim_elapsed: run.report.run.elapsed,
        sim_end,
        latency: run.latency,
        user_bytes: snapshot.counter("db.log.bytes_appended"),
        page_bytes,
        dies,
        device_prefix: "",
        layer: run.layer(KIND_METRICS),
        snapshot,
        checks,
        fingerprint: Some(db.fingerprint()),
    }
}
