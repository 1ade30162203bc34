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

use memdb::{decode_stream, AppendTag, LogBackend, LogOp, PmConfig, PmLog, WalConfig, WalManager};
use simkit::{SimDuration, SimTime};
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

/// PM logging that keeps a copy of every byte it persists, so a run's
/// written rows are counted from the log the backend was handed.
struct Persisted {
    pm: PmLog,
    log: Vec<u8>,
}

impl LogBackend for Persisted {
    fn append(&mut self, now: SimTime, data: &[u8]) -> SimTime {
        self.log.extend_from_slice(data);
        self.pm.append(now, data)
    }

    fn sync(&mut self, now: SimTime) -> SimTime {
        self.pm.sync(now)
    }

    fn append_submit(&mut self, now: SimTime, data: &[u8]) -> (AppendTag, SimTime) {
        self.log.extend_from_slice(data);
        self.pm.append_submit(now, data)
    }

    fn drain_completions(&mut self, now: SimTime, out: &mut Vec<(AppendTag, SimTime)>) {
        self.pm.drain_completions(now, out);
    }

    fn appends_in_flight(&self) -> usize {
        self.pm.appends_in_flight()
    }

    fn next_completion_at(&self) -> Option<SimTime> {
        self.pm.next_completion_at()
    }

    fn bytes_written(&self) -> u64 {
        self.pm.bytes_written()
    }

    fn name(&self) -> &'static str {
        self.pm.name()
    }
}

/// Warm for 5 simulated ms, measure for `measure_ms` on four workers, and
/// count what the run did.
fn drive(db: &mut memdb::Database, workload: &mut impl Workload, measure_ms: u64) -> Counts {
    let persisted = Persisted { pm: PmLog::new(PmConfig::default()), log: Vec::new() };
    let mut wal = WalManager::new(persisted, WalConfig::default());
    let cfg = DriverConfig {
        workers: 4,
        ramp_up: SimDuration::from_millis(5),
        measure: SimDuration::from_millis(measure_ms),
        seed: 0x57A3,
        ..DriverConfig::default()
    };
    let write_probes = db.write_probes();
    let report = driver::run(db, &mut wal, workload, &cfg);
    assert_eq!(wal.pending_bytes(), 0, "the run hands every record to the backend");
    let log = &wal.backend().log;
    let (records, used) = decode_stream(log);
    assert_eq!(used, log.len(), "the log decodes whole");
    Counts {
        committed: report.run.committed,
        write_probes: db.write_probes() - write_probes,
        rows_written: records.iter().filter(|r| r.op != LogOp::Commit).count() as u64,
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
