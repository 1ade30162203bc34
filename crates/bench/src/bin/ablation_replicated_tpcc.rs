//! Ablation — end-to-end TPC-C throughput under device-level replication.
//!
//! The paper's headline use case (Fig. 1 right): the database writes its
//! log once and the device ships it. This ablation quantifies what eager
//! device-level replication costs the database: TPC-C throughput and commit
//! latency with 0, 1, and 2 secondaries, at 4 workers.
//!
//! Throughput and latency are derived from the run's telemetry snapshot;
//! `results/ablation_replicated_tpcc.json` carries the full cross-stack
//! snapshot per replica count — including per-device (`dev0.`, `dev1.` …)
//! CMB, destage, and transport counters.

use memdb::{WalConfig, WalManager, XssdLog};
use simkit::{MetricsRegistry, SimDuration, SimTime, Snapshot};
use tpcc::{setup, TpccConfig};
use xssd_bench::driver::{self, DriverConfig};
use xssd_bench::table::{Cell, Col, Table};
use xssd_bench::{cli, section, sweep, Measurement, Report};
use xssd_core::{Cluster, VillarsConfig};

fn run(secondaries: usize) -> Snapshot {
    let mut cluster = Cluster::new();
    let p = cluster.add_device(VillarsConfig::villars_sram());
    let secs: Vec<usize> =
        (0..secondaries).map(|_| cluster.add_device(VillarsConfig::villars_sram())).collect();
    if !secs.is_empty() {
        cluster.configure_replication(SimTime::ZERO, p, &secs);
    }
    let (mut db, mut workload, _rng) = setup(TpccConfig::bench(), 0xAB5);
    let mut wal =
        WalManager::new(XssdLog::new(cluster, p, "villars-replicated"), WalConfig::default());
    let report = driver::run(
        &mut db,
        &mut wal,
        &mut workload,
        &DriverConfig {
            workers: 4,
            measure: SimDuration::from_millis(100),
            ..DriverConfig::default()
        },
    );
    let mut reg = MetricsRegistry::new();
    reg.collect("", &report);
    reg.collect("", &wal);
    reg.collect("", &workload);
    reg.snapshot()
}

/// (throughput txn/s, mean commit latency µs) from the snapshot.
fn derive(snap: &Snapshot) -> (f64, f64) {
    let commits = snap.counter("db.commits") as f64;
    let elapsed_s = snap.counter("db.elapsed_ns") as f64 / 1e9;
    let tps = if elapsed_s > 0.0 { commits / elapsed_s } else { 0.0 };
    (tps, snap.latency("db.commit_latency_us").mean)
}

fn main() {
    cli::no_args(
        "ablation_replicated_tpcc",
        "TPC-C throughput/latency with device-level eager log shipping",
    );
    let mut report = Report::new(
        "ablation_replicated_tpcc",
        "Ablation: replicated TPC-C",
        "Database throughput/latency with device-level eager log shipping",
        "TPC-C, 4 workers, 16 KiB group commit; 0/1/2 secondaries over NTB",
    );
    section("throughput and commit latency vs. replica count");
    let table = Table::new(&[
        Col::left("secondaries", 14),
        Col::right("ktxn/s", 12),
        Col::right("mean_lat_us", 16),
    ]);
    println!("{}", table.header());
    let replica_counts = [0usize, 1, 2];
    let snaps = sweep::map(&replica_counts, |&n| run(n));
    for (&n, snap) in replica_counts.iter().zip(snaps) {
        let (tps, lat) = derive(&snap);
        report.row(
            &table.row(&[Cell::from(n), Cell::Float(tps / 1e3, 1), Cell::Float(lat, 1)]),
            Measurement::point(
                "ablation_replicated",
                format!("{n}-secondaries"),
                n as f64,
                "secondaries",
                tps,
                "txn_per_sec",
            )
            .with_extra(lat),
        );
        report.telemetry(format!("{n}-secondaries"), snap);
    }
    report.finish().expect("write results json");
}
