//! The set of paths a component reports is fixed by how it was configured,
//! not by what has happened to it: a fresh WAL, one that ran the blocking
//! log path, one that pipelined four groups, and one whose device ran under
//! an armed [`FaultPlan`] all report the same paths (a value that has not
//! happened yet reads 0). `scripts/check_results.sh` may then treat new
//! telemetry as additive without a path ever disappearing between runs.

use memdb::{LogBackend, NoLog, NvmeLog, PmConfig, PmLog, WalConfig, WalManager, XssdLog};
use simkit::faults::{site, FlashFaultConfig, TransportFaultConfig};
use simkit::{FaultPlan, Instrument, MetricsRegistry, SimDuration, SimTime};
use ssd::{ConventionalSsd, SsdConfig};
use xssd_bench::driver::{self, DriverConfig};
use xssd_bench::kernels;
use xssd_bench::ycsb::{self, YcsbConfig, YcsbMix};
use xssd_core::{Cluster, VillarsConfig};

fn paths(component: &impl Instrument) -> Vec<String> {
    let mut reg = MetricsRegistry::new();
    reg.collect("", component);
    reg.snapshot().iter().map(|(path, _)| String::from(path)).collect()
}

/// Every fault class the device layers take, at rates that fire within a
/// few milliseconds of logging.
fn armed_plan() -> FaultPlan {
    FaultPlan {
        seed: 0xFA17,
        flash: FlashFaultConfig {
            transient_read: 0.1,
            transient_program: 0.1,
            permanent_program: 0.01,
            max_retries: 3,
        },
        transport: TransportFaultConfig {
            tlp_drop: 0.05,
            replay_timeout: SimDuration::from_micros(5),
        },
        ..FaultPlan::default()
    }
}

/// Drive YCSB-A through `wal` at `depth`; the WAL's and the report's paths.
fn after_run<B: LogBackend + Instrument>(
    mut wal: WalManager<B>,
    depth: usize,
) -> (Vec<String>, Vec<String>) {
    let (mut db, mut workload, _) =
        ycsb::setup(YcsbConfig { mix: YcsbMix::A, ..YcsbConfig::default() }, 0x1A70);
    let cfg = DriverConfig {
        workers: 4,
        measure: SimDuration::from_millis(3),
        seed: 0x1A70,
        log_pipeline_depth: depth,
        ..DriverConfig::default()
    };
    let report = driver::run(&mut db, &mut wal, &mut workload, &cfg);
    assert!(report.run.committed > 0 && report.run.flushes > 0, "nothing was logged");
    (paths(&wal), paths(&report))
}

/// `backend(plan)` builds the backend, arming its device when given a plan.
fn assert_history_free<B: LogBackend + Instrument>(
    name: &str,
    backend: impl Fn(Option<&FaultPlan>) -> B,
) {
    let wal = |plan| {
        WalManager::new(
            backend(plan),
            WalConfig { group_threshold: 2 << 10, ..WalConfig::default() },
        )
    };
    let fresh = paths(&wal(None));
    let (blocking, blocking_report) = after_run(wal(None), 1);
    let (pipelined, pipelined_report) = after_run(wal(None), 4);
    let (armed, armed_report) = after_run(wal(Some(&armed_plan())), 4);
    assert_eq!(fresh, blocking, "{name}: the blocking log path changed the WAL's path set");
    assert_eq!(fresh, pipelined, "{name}: the pipelined log path changed the WAL's path set");
    assert_eq!(fresh, armed, "{name}: arming faults changed the WAL's path set");
    assert_eq!(blocking_report, pipelined_report, "{name}: depth changed the report's path set");
    assert_eq!(blocking_report, armed_report, "{name}: faults changed the report's path set");
}

fn villars(secondaries: usize, plan: Option<&FaultPlan>) -> XssdLog {
    let mut cluster = Cluster::new();
    let primary = cluster.add_device(VillarsConfig::small());
    let secs: Vec<usize> =
        (0..secondaries).map(|_| cluster.add_device(VillarsConfig::small())).collect();
    if !secs.is_empty() {
        cluster.configure_replication(SimTime::ZERO, primary, &secs);
    }
    if let Some(plan) = plan {
        cluster.arm_faults(plan);
    }
    XssdLog::new(cluster, primary, "villars")
}

#[test]
fn no_log_paths_are_history_free() {
    assert_history_free("no-log", |_| NoLog::new());
}

#[test]
fn pm_log_paths_are_history_free() {
    assert_history_free("pm", |_| PmLog::new(PmConfig::default()));
}

#[test]
fn nvme_log_paths_are_history_free() {
    assert_history_free("nvme", |plan| {
        let mut device = ConventionalSsd::new(SsdConfig::small());
        if let Some(plan) = plan {
            device.arm_flash_faults(plan.flash, plan.rng_for(site::FLASH_READ));
        }
        NvmeLog::new(device, 0, 64)
    });
}

#[test]
fn xssd_log_paths_are_history_free() {
    assert_history_free("villars", |plan| villars(0, plan));
}

#[test]
fn replicated_xssd_log_paths_are_history_free() {
    assert_history_free("villars + 1 secondary", |plan| villars(1, plan));
}

/// A latency is published once, as its `Latency` entry: no gauge beside it
/// repeats the mean or carries a second p99.
#[test]
fn a_latency_is_one_entry() {
    let (cycles, _) = kernels::queue_size_cycles(4 << 10, 4 << 10, 8);
    let bench: Vec<&str> =
        cycles.iter().map(|(path, _)| path).filter(|path| path.starts_with("bench.")).collect();
    assert_eq!(bench, ["bench.commit_us", "bench.elapsed_ns", "bench.payload_bytes"]);
    assert_eq!(cycles.latency("bench.commit_us").count, 8);

    let cell = kernels::tpcc_villars_sram_cell(2, SimDuration::from_millis(2));
    let latency: Vec<&str> =
        cell.iter().map(|(path, _)| path).filter(|path| path.contains("latency")).collect();
    assert_eq!(latency, ["db.commit_latency_us"]);
    assert_eq!(cell.latency("db.commit_latency_us").count, cell.counter("db.commits"));
}
