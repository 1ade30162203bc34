//! `ycsb_nvme` — the same `memdb` layer, used differently.
//!
//! YCSB-A (8192 rows, zipfian θ = 0.8, 100 B values: the table fits the
//! host's caches, where TPC-C's do not), 4 simulated workers in a closed
//! loop, `NvmeLog` on a conventional SSD (`t_prog` 200 µs, as Fig. 9's
//! NVMe setup), 4 KiB group commit, **pipelined** log path
//! (`log_pipeline_depth = 4`): `append_submit`/`drain_completions` and
//! `run_pipelined` instead of `append`/`sync` and `run_blocking`, the block
//! path (`nvme`/`ssd`/`flash`) instead of the fast side. 2 s ramp-up +
//! 30 s measured. An *op* is a committed transaction.

use super::db;
use super::{counter, Check, Outcome, Scale};
use crate::wrap::Spanned;
use memdb::{NvmeLog, WalConfig, WalManager};
use simkit::{MetricsRegistry, SimDuration};
use ssd::{ConventionalSsd, SsdConfig};
use xssd_bench::driver::DriverConfig;
use xssd_bench::ycsb::{self, YcsbConfig, YcsbMix};

const WORKERS: usize = 4;
const PIPELINE_DEPTH: usize = 4;
const RAMP_UP: SimDuration = SimDuration::from_millis(2_000);
const MEASURE: SimDuration = SimDuration::from_millis(30_000);
/// Log ring on the block device, in LBAs (as the figure harnesses use).
const RING_LBAS: u64 = 8192;

/// Run the workload once.
pub fn run(seed: u64, scale: Scale) -> Outcome {
    let ramp_up = scale.duration(RAMP_UP);
    let (mut db, mut workload, _rng) =
        ycsb::setup(YcsbConfig { mix: YcsbMix::A, ..YcsbConfig::default() }, seed);
    let mut ssd_cfg = SsdConfig::default();
    ssd_cfg.timing.t_prog = SimDuration::from_micros(200);
    let page_bytes = ssd_cfg.geometry.page_bytes as u64;
    let dies = ssd_cfg.geometry.total_dies() as u64;
    let backend = Spanned::new(NvmeLog::new(ConventionalSsd::new(ssd_cfg), 0, RING_LBAS), ramp_up);
    let mut wal =
        WalManager::new(backend, WalConfig { group_threshold: 4 << 10, ..WalConfig::default() });
    let cfg = DriverConfig {
        workers: WORKERS,
        ramp_up,
        measure: scale.duration(MEASURE),
        seed: seed ^ 0x7C5B_A000,
        log_pipeline_depth: PIPELINE_DEPTH,
        ..DriverConfig::default()
    };

    let run = db::drive(&mut db, &mut wal, &mut workload, &cfg);

    let sim_end = run.sim_end;
    let mut reg = MetricsRegistry::new();
    reg.collect("", &run.report);
    reg.collect("", &wal);
    reg.collect("", &workload);
    let snapshot = reg.snapshot();

    let mut checks = run.checks();
    checks.push(Check::present_eq(
        "port_submitted_equal_completed",
        counter(&snapshot, "db.log.port.submitted"),
        counter(&snapshot, "db.log.port.completed"),
    ));
    checks.push(Check::eq("nothing_in_flight", wal.flushes_in_flight(), 0));
    checks.push(Check::present_eq(
        "below_gc_onset",
        counter(&snapshot, "ssd.ftl.gc_writes"),
        Some(0),
    ));

    // YCSB kinds are reported as counts, not latencies: no per-kind metrics.
    let mut layer = run.layer(&[]);
    layer.extend([
        ("nvme.port.submitted", snapshot.counter("db.log.port.submitted") as f64),
        ("nvme.port.completed", snapshot.counter("db.log.port.completed") as f64),
        ("nvme.port.max_inflight", snapshot.gauge("db.log.port.max_inflight")),
        ("nvme.port.retries", snapshot.counter("db.log.port.retry.resubmits") as f64),
    ]);
    Outcome {
        window: run.window,
        ops: run.report.run.committed,
        attempted: run.attempted,
        failed: db.aborts(),
        sim_elapsed: run.report.run.elapsed,
        sim_end,
        latency: run.latency,
        user_bytes: snapshot.counter("db.log.bytes_appended"),
        page_bytes,
        dies,
        device_prefix: "",
        layer,
        snapshot,
        checks,
        fingerprint: Some(db.fingerprint()),
    }
}
