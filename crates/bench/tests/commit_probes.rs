//! Pins the commit's index work the way `alloc_budget.rs` pins the
//! allocation-free read path.
//!
//! A commit finds each row it writes at most once, and a row its
//! transaction read before updating it not at all: the update carries the
//! read's position, and the install checks one key there.
//! [`memdb::Database::positioned_writes`] counts the installs that made no
//! descent (at the read's position, or at the key's hint) and
//! [`memdb::Database::write_probes`] the descents the commit made, and the
//! two split the rows the run wrote, counted from the log the run left.
//! Every TPC-C update follows the read of its own row, so on that mix the
//! updates are positioned and only inserts and deletes descend. YCSB-A's
//! updates are blind, and find their row through the index's hint for the
//! key when an earlier read or update left one that still holds it, by a
//! descent otherwise. The two-pass commit the undo list replaced (a
//! pre-check descent, then the install) made two descents per written
//! row.
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
    /// Updates commits installed with no descent.
    positioned_writes: u64,
    /// Update records the run logged.
    updates: u64,
    /// Insert and delete records the run logged.
    inserts_and_deletes: u64,
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
    let (write_probes, positioned_writes) = (db.write_probes(), db.positioned_writes());
    let report = driver::run(db, &mut wal, workload, &cfg);
    assert_eq!(wal.pending_bytes(), 0, "the run hands every record to the backend");
    let log = &wal.backend().log;
    let (records, used) = decode_stream(log);
    assert_eq!(used, log.len(), "the log decodes whole");
    let logged = |op: LogOp| records.iter().filter(|r| r.op == op).count() as u64;
    let counts = Counts {
        committed: report.run.committed,
        write_probes: db.write_probes() - write_probes,
        positioned_writes: db.positioned_writes() - positioned_writes,
        updates: logged(LogOp::Update),
        inserts_and_deletes: logged(LogOp::Insert) + logged(LogOp::Delete),
    };
    assert!(counts.committed >= 2000, "only {} transactions measured", counts.committed);
    assert!(counts.updates >= 1000, "only {} rows updated", counts.updates);
    counts
}

#[test]
fn tpcc_mix_finds_each_written_row_once() {
    let (mut db, mut workload, _) = tpcc::setup(tpcc::TpccConfig::small(), 11);
    let counts = drive(&mut db, &mut workload, 20);
    assert!(
        counts.inserts_and_deletes >= 1000,
        "{} inserts and deletes",
        counts.inserts_and_deletes
    );
    assert_eq!(
        counts.positioned_writes, counts.updates,
        "every TPC-C update follows the read of its row, so it installs where the read found it"
    );
    assert_eq!(
        counts.write_probes, counts.inserts_and_deletes,
        "a TPC-C commit descends once per row it inserts or deletes, and for nothing else"
    );
}

#[test]
fn ycsb_a_finds_each_written_row_once() {
    let (mut db, mut workload, _) =
        ycsb::setup(YcsbConfig { mix: YcsbMix::A, ..YcsbConfig::default() }, 13);
    let counts = drive(&mut db, &mut workload, 20);
    assert!(counts.positioned_writes > 0, "no blind update found its row through a hint");
    assert_eq!(
        counts.positioned_writes + counts.write_probes,
        counts.updates + counts.inserts_and_deletes,
        "a commit must find each row it writes exactly once: by its hint or by one descent"
    );
}
