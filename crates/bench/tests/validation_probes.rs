//! Pins the commit-validation mechanism the way `alloc_budget.rs` pins the
//! allocation-free read path.
//!
//! `memdb::Database` re-finds the rows a transaction read only when some
//! row changed between its `begin` and its `commit`. Every workload in the
//! repository runs `begin … commit` inside one `Workload::execute` call,
//! so through the real multi-worker driver that must never happen:
//! [`memdb::Database::validation_probes`] stays 0. A workload or runner
//! change that starts interleaving transactions shows here as a count, not
//! as a slow benchmark. (The interleaved case itself — probes > 0, and
//! agreement with the always-re-probe reference — is covered by the unit
//! tests in `crates/memdb/src/storage.rs`.)

use memdb::{PmConfig, PmLog, WalConfig, WalManager};
use simkit::SimDuration;
use xssd_bench::driver::{self, DriverConfig, Workload};
use xssd_bench::ycsb::{self, YcsbConfig, YcsbMix};

/// Warm for 5 simulated ms, measure for `measure_ms` on four workers, and
/// return (measured commits, by-key validation probes over the whole run).
fn drive(db: &mut memdb::Database, workload: &mut impl Workload, measure_ms: u64) -> (u64, u64) {
    let mut wal = WalManager::new(PmLog::new(PmConfig::default()), WalConfig::default());
    let cfg = DriverConfig {
        workers: 4,
        ramp_up: SimDuration::from_millis(5),
        measure: SimDuration::from_millis(measure_ms),
        seed: 0x57A3,
        ..DriverConfig::default()
    };
    let report = driver::run(db, &mut wal, workload, &cfg);
    (report.run.committed, db.validation_probes())
}

#[test]
fn tpcc_mix_never_validates_by_key() {
    let (mut db, mut workload, _) = tpcc::setup(tpcc::TpccConfig::small(), 11);
    let (committed, probes) = drive(&mut db, &mut workload, 20);
    assert!(committed >= 2000, "only {committed} transactions measured");
    assert_eq!(probes, 0, "a TPC-C commit re-found rows it had read");
}

#[test]
fn ycsb_a_never_validates_by_key() {
    let (mut db, mut workload, _) =
        ycsb::setup(YcsbConfig { mix: YcsbMix::A, ..YcsbConfig::default() }, 13);
    let (committed, probes) = drive(&mut db, &mut workload, 20);
    assert!(committed >= 2000, "only {committed} transactions measured");
    assert_eq!(probes, 0, "a YCSB-A commit re-found rows it had read");
}
