//! Runner contract tests: draw-for-draw parity between TPC-C's own pick
//! and the runner's, and ramp-up exclusion.

use memdb::{Database, PmConfig, PmLog, WalConfig, WalManager};
use simkit::{DetRng, MetricsRegistry, SimDuration};
use tpcc::{setup, TpccConfig};
use xssd_bench::driver::{self, DriverConfig, Workload};
use xssd_bench::ycsb::{self, YcsbConfig, YcsbMix};

/// The runner's load-bearing invariant: TPC-C as a five-kind workload,
/// picked by the runner, replays `|db, rng| workload.execute(db, rng, 0)`
/// — a one-kind workload that picks with TPC-C's own `pick` — draw for
/// draw: same commit count, same latency samples, and every metric the
/// one-kind run reports unchanged but its one-kind breakdown. That is why
/// harnesses moved onto the weighted pick reproduced their
/// `results/*.json` values.
#[test]
fn tpcc_driver_replays_the_legacy_closed_loop() {
    let cfg = DriverConfig {
        workers: 4,
        measure: SimDuration::from_millis(30),
        seed: 0xF00D,
        ..DriverConfig::default()
    };

    let (mut db_a, mut wl_a, _) = setup(TpccConfig::bench(), 0x716);
    let mut wal_a = WalManager::new(PmLog::new(PmConfig::default()), WalConfig::default());
    let one_kind = &mut |db: &mut Database, rng: &mut DetRng| wl_a.execute(db, rng, 0);
    let mut legacy = driver::run(&mut db_a, &mut wal_a, one_kind, &cfg);
    assert_eq!(legacy.per_kind.len(), 1);
    let legacy_kind = &legacy.per_kind[0];
    let legacy_kind = (legacy_kind.committed, legacy_kind.mean_us, legacy_kind.p99_us);
    let legacy_samples = legacy.run.latency_us.samples().to_vec();

    let (mut db_b, mut wl_b, _) = setup(TpccConfig::bench(), 0x716);
    let mut wal_b = WalManager::new(PmLog::new(PmConfig::default()), WalConfig::default());
    let driven = driver::run(&mut db_b, &mut wal_b, &mut wl_b, &cfg);

    assert_eq!(legacy.run.committed, driven.run.committed);
    assert_eq!(legacy.run.aborted, driven.run.aborted);
    assert_eq!(legacy.run.elapsed, driven.run.elapsed);
    // The same samples: the five-kind breakdown leaves them grouped by
    // kind, the one-kind run in recording order.
    let ascending = |s: &[f64]| {
        let mut v = s.to_vec();
        v.sort_by(f64::total_cmp);
        v
    };
    assert_eq!(ascending(&legacy_samples), ascending(driven.run.latency_us.samples()));
    assert_eq!(legacy.run.log_bytes, driven.run.log_bytes);
    assert_eq!(legacy.run.flushes, driven.run.flushes);

    // Every path but the kind breakdown is the same in both snapshots.
    let mut reg_a = MetricsRegistry::new();
    reg_a.collect("", &legacy);
    reg_a.collect("", &wal_a);
    reg_a.collect("", &wl_a);
    let mut reg_b = MetricsRegistry::new();
    reg_b.collect("", &driven);
    reg_b.collect("", &wal_b);
    reg_b.collect("", &wl_b);
    let (snap_a, snap_b) = (reg_a.snapshot(), reg_b.snapshot());
    let paths = |snap: &simkit::Snapshot| -> Vec<String> {
        snap.iter().map(|(p, _)| p.to_string()).filter(|p| !p.starts_with("db.mix.")).collect()
    };
    assert_eq!(paths(&snap_a), paths(&snap_b), "the two runs export different paths");
    for path in paths(&snap_a) {
        assert_eq!(snap_b.get(&path), snap_a.get(&path), "{path} differs between the picks");
    }

    // The published percentiles agree too (what fig09 prints), and they
    // are the samples' own; so are the one kind's.
    let published = snap_b.latency("db.commit_latency_us");
    assert_eq!(snap_a.latency("db.commit_latency_us"), published);
    assert_eq!(published.count, legacy.run.committed);
    assert_eq!(published.mean, legacy.mean_latency_us());
    assert_eq!(legacy.run.latency_us.samples(), legacy_samples, "the one kind reordered them");
    assert_eq!(published.p50, legacy.run.latency_us.percentile(50.0));
    assert_eq!(published.p99, legacy.run.latency_us.percentile(99.0));
    assert_eq!(legacy_kind, (published.count, published.mean, published.p99));

    // The per-kind breakdown covers every commit and matches the
    // workload's own mix counters.
    let kinds_total: u64 = driven.per_kind.iter().map(|k| k.committed + k.aborted).sum();
    assert_eq!(kinds_total, driven.run.committed + driven.run.aborted);
    let stats = wl_b.stats();
    let executed =
        [stats.new_order, stats.payment, stats.order_status, stats.delivery, stats.stock_level];
    for (k, &n) in driven.per_kind.iter().zip(executed.iter()) {
        assert_eq!(k.committed + k.aborted, n, "{} mix counter diverged", k.label);
    }
}

fn ycsb_run(ramp_ms: u64, measure_ms: u64, series: bool) -> driver::DriverReport {
    let (mut db, mut wl, _) =
        ycsb::setup(YcsbConfig { mix: YcsbMix::A, ..YcsbConfig::default() }, 0xAB);
    let mut wal = WalManager::new(PmLog::new(PmConfig::default()), WalConfig::default());
    let cfg = DriverConfig {
        workers: 2,
        ramp_up: SimDuration::from_millis(ramp_ms),
        measure: SimDuration::from_millis(measure_ms),
        seed: 0xAB,
        series_bucket: series.then(|| SimDuration::from_millis(5)),
        ..DriverConfig::default()
    };
    driver::run(&mut db, &mut wal, &mut wl, &cfg)
}

/// Ramp-window transactions never reach the report: not the counters,
/// not the latency percentiles, not the per-kind or series breakdowns —
/// but the *schedule* is untouched, so (ramp + measured) commits equal a
/// zero-ramp run of the same total duration and seed.
#[test]
fn ramp_up_transactions_are_excluded_everywhere() {
    let full = ycsb_run(0, 40, false);
    let ramped = ycsb_run(20, 20, false);

    // Same schedule: the ramp only reclassifies transactions.
    assert_eq!(
        ramped.run.committed + ramped.ramp_excluded,
        full.run.committed,
        "ramp changed the execution schedule"
    );
    assert!(ramped.ramp_excluded > 0, "nothing landed in the ramp window");
    assert!(ramped.run.committed > 0, "nothing landed in the measured window");

    // Every counter and percentile is measured-window only.
    assert_eq!(ramped.run.committed as usize, ramped.run.latency_us.samples().len());
    let per_kind: u64 = ramped.per_kind.iter().map(|k| k.committed).sum();
    assert_eq!(per_kind, ramped.run.committed);
    let per_kind_samples: usize = ramped.per_kind.iter().map(|k| (k.committed) as usize).sum();
    assert_eq!(per_kind_samples, ramped.run.latency_us.samples().len());

    // Elapsed covers the measured window, not the ramp.
    assert!(ramped.run.elapsed <= full.run.elapsed);
    assert!(ramped.run.elapsed >= SimDuration::from_millis(20));
    assert!(ramped.run.elapsed < SimDuration::from_millis(25));
}

/// The time-series buckets partition the measured commits.
#[test]
fn time_series_buckets_partition_measured_commits() {
    let r = ycsb_run(10, 30, true);
    assert!(r.series.len() >= 6, "expected ~6 buckets of 5 ms, got {}", r.series.len());
    let bucketed: u64 = r.series.iter().map(|b| b.committed).sum();
    assert_eq!(bucketed, r.run.committed);
    // The report exposes them in sorted, zero-padded order.
    let mut reg = MetricsRegistry::new();
    reg.collect("", &r);
    let snap = reg.snapshot();
    assert_eq!(snap.counter("db.series.t0000.committed"), r.series[0].committed);
    assert_eq!(snap.counter("db.ramp_excluded"), r.ramp_excluded);
    assert!(snap.counter("db.mix.read.committed") > 0);
}

/// A mix override reweights the kinds without touching the workload.
#[test]
fn mix_override_changes_the_blend() {
    let (mut db, mut wl, _) = ycsb::setup(YcsbConfig::default(), 0xC0);
    let mut wal = WalManager::new(PmLog::new(PmConfig::default()), WalConfig::default());
    let cfg = DriverConfig {
        workers: 1,
        measure: SimDuration::from_millis(10),
        seed: 0xC0,
        mix: Some(vec![0, 100, 0, 0, 0]),
        ..DriverConfig::default()
    };
    let r = driver::run(&mut db, &mut wal, &mut wl, &cfg);
    assert_eq!(r.per_kind[0].committed, 0, "reads were weighted out");
    assert_eq!(r.per_kind[1].committed, r.run.committed, "all traffic is updates");
    assert_eq!(wl.kinds()[1], "update");
}
