//! Ablation — replication policies over the shadow-counter mechanism.
//!
//! Paper §4.2: "other replication schemes can be implemented simply by
//! changing which counter or combination thereof the database sees" — lazy
//! returns the primary counter; chain returns the last secondary's. This
//! harness measures the visible-commit latency (`x_pwrite`+`x_fsync` of a
//! 4 KiB group) under Eager / Lazy / Chain / Quorum with 1–3 secondaries.
//!
//! Each (policy, secondaries) run snapshots the whole cluster; the mean
//! latency is read back out of the snapshot's `bench.commit_us` summary.

use simkit::{MetricsRegistry, SampleSeries, SimDuration, SimTime, Snapshot};
use xssd_bench::table::{Cell, Col, Table};
use xssd_bench::{cli, section, sweep, Measurement, Report};
use xssd_core::{Cluster, ReplicationPolicy, VillarsConfig, XLogFile};

fn run(policy: ReplicationPolicy, secondaries: usize) -> Snapshot {
    let mut cfg = VillarsConfig::villars_sram();
    cfg.replication = policy;
    let mut cl = Cluster::new();
    let p = cl.add_device(cfg.clone());
    let secs: Vec<usize> = (0..secondaries).map(|_| cl.add_device(cfg.clone())).collect();
    let mut now = cl.configure_replication(SimTime::ZERO, p, &secs);
    // Heterogeneous secondaries: each later one reports its counter less
    // often (a remote rack, a busier host) — this is what separates the
    // policies; identical replicas make every combination equal.
    for (i, s) in secs.iter().enumerate() {
        let period_ns = 400 * (1 << i) as u32; // 0.4us, 0.8us, 1.6us...

        // Tagged submission on the secondary's I/O port + the shared
        // closed-loop wait (what `vendor_blocking` is made of).
        let tag = cl.submit(
            *s,
            now,
            nvme::CommandKind::Admin(nvme::AdminCommand::Vendor(nvme::VendorCommand::new(
                xssd_core::vendor::SET_SHADOW_PERIOD,
                [period_ns * 16, 0, 0, 0, 0, 0],
            ))),
        );
        let done = cl.wait_for_completion(*s, now, tag);
        assert!(done.entry.status.is_ok());
        now = done.at;
    }
    let mut f = XLogFile::open(p);
    let chunk = vec![0x44u8; 4096];
    let mut lat = SampleSeries::new();
    for _ in 0..200 {
        let t0 = now;
        now = f.x_pwrite(&mut cl, now, &chunk).expect("write");
        now = f.x_fsync(&mut cl, now).expect("fsync");
        lat.record(now.saturating_since(t0).as_micros_f64());
        now += SimDuration::from_micros(5);
    }
    let mut reg = MetricsRegistry::new();
    reg.collect("", &cl);
    reg.scope("bench").latency("commit_us", lat.summary());
    reg.snapshot()
}

fn mean_us(snap: &Snapshot) -> f64 {
    snap.latency("bench.commit_us").mean
}

fn main() {
    cli::no_args("ablation_replication_policy", "Commit latency per counter-combination policy");
    let mut report = Report::new(
        "ablation_replication_policy",
        "Ablation: replication policy",
        "Visible-commit latency of a 4 KiB group under different counter combinations",
        "Eager (min over all) / Lazy (local) / Chain (last secondary) / Quorum(2)",
    );
    section("mean x_pwrite+x_fsync latency (us)");
    let table = Table::new(&[
        Col::left("policy", 12),
        Col::right("1 secondary", 14),
        Col::right("2 secondaries", 14),
        Col::right("3 secondaries", 14),
    ]);
    println!("{}", table.header());
    let policies = [
        ("eager", ReplicationPolicy::Eager),
        ("lazy", ReplicationPolicy::Lazy),
        ("chain", ReplicationPolicy::Chain),
        ("quorum2", ReplicationPolicy::Quorum(2)),
    ];
    // Full (policy, secondaries) grid: 12 isolated cells, three per row.
    let grid: Vec<(&str, ReplicationPolicy, usize)> =
        policies.iter().flat_map(|&(l, p)| (1..=3).map(move |n| (l, p, n))).collect();
    let cells = sweep::map(&grid, |&(_, policy, n)| run(policy, n));
    for (row, snaps) in policies.iter().zip(cells.chunks_exact(3)) {
        let (label, _) = *row;
        let [l1, l2, l3] = [mean_us(&snaps[0]), mean_us(&snaps[1]), mean_us(&snaps[2])];
        report.row(
            &table.row(&[
                Cell::str(label),
                Cell::Float(l1, 2),
                Cell::Float(l2, 2),
                Cell::Float(l3, 2),
            ]),
            Measurement::point("ablation_policy", label, 1.0, "secondaries", l1, "latency_us")
                .with_extra(l3),
        );
        for (i, snap) in snaps.iter().enumerate() {
            report.telemetry(format!("{label}.{}sec", i + 1), snap.clone());
        }
    }
    report.finish().expect("write results json");
}
