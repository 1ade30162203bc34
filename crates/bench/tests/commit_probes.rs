//! Pins the commit's index work the way `alloc_budget.rs` pins the
//! allocation-free read path.
//!
//! A commit finds each row it writes exactly once:
//! [`memdb::Database::write_probes`] equals the rows the run wrote, counted
//! from the log the run left. The two-pass commit it replaced (a pre-check
//! descent, then the install) made twice that.
//!
//! Both runs go through the real four-worker driver, and every commit in
//! them also holds `memdb::Database::commit`'s serial contract: no row
//! changed between a transaction's `begin` and its `commit`. Every workload
//! runs `begin … commit` inside one `Workload::execute` call, so a workload
//! or runner change that starts interleaving transactions panics here.

use memdb::{decode_stream, LogOp, PmConfig, PmLog, SegmentConfig, WalConfig, WalManager};
use simkit::SimDuration;
use xssd_bench::driver::{self, DriverConfig, Workload};
use xssd_bench::ycsb::{self, YcsbConfig, YcsbMix};

/// What one driven run did to the database.
struct Counts {
    /// Measured commits.
    committed: u64,
    /// Index descents commits made for writes over the whole run.
    write_probes: u64,
    /// Insert, update and delete records the run logged.
    rows_written: u64,
}

/// Warm for 5 simulated ms, measure for `measure_ms` on four workers, and
/// count what the run did.
fn drive(db: &mut memdb::Database, workload: &mut impl Workload, measure_ms: u64) -> Counts {
    let mut wal = WalManager::new(PmLog::new(PmConfig::default()), WalConfig::default());
    // Host-side retention of every record the run logs; nothing it does
    // reaches the backend.
    wal.enable_segments(SegmentConfig { segment_bytes: 1 << 20 });
    let cfg = DriverConfig {
        workers: 4,
        ramp_up: SimDuration::from_millis(5),
        measure: SimDuration::from_millis(measure_ms),
        seed: 0x57A3,
        ..DriverConfig::default()
    };
    let write_probes = db.write_probes();
    let report = driver::run(db, &mut wal, workload, &cfg);
    let mut rows_written = 0;
    for view in wal.segments().expect("segments enabled").views() {
        let (records, used) = decode_stream(view.bytes);
        assert_eq!(used, view.bytes.len(), "the log decodes whole");
        rows_written += records.iter().filter(|r| r.op != LogOp::Commit).count() as u64;
    }
    Counts {
        committed: report.run.committed,
        write_probes: db.write_probes() - write_probes,
        rows_written,
    }
}

/// The pins every workload must hold.
fn check(counts: Counts, what: &str) {
    assert!(counts.committed >= 2000, "only {} transactions measured", counts.committed);
    assert!(counts.rows_written >= 1000, "{what} wrote only {} rows", counts.rows_written);
    assert_eq!(
        counts.write_probes, counts.rows_written,
        "{what}: a commit must find each row it writes exactly once"
    );
}

#[test]
fn tpcc_mix_finds_each_written_row_once() {
    let (mut db, mut workload, _) = tpcc::setup(tpcc::TpccConfig::small(), 11);
    check(drive(&mut db, &mut workload, 20), "TPC-C");
}

#[test]
fn ycsb_a_finds_each_written_row_once() {
    let (mut db, mut workload, _) =
        ycsb::setup(YcsbConfig { mix: YcsbMix::A, ..YcsbConfig::default() }, 13);
    check(drive(&mut db, &mut workload, 20), "YCSB-A");
}
