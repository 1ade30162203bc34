//! The WAL manager: group commit over a pluggable log backend.
//!
//! Matches the logging pipeline the paper measures (§6.1): "the system
//! waits until it has 16 KB worth of log records before it commits" —
//! transactions execute and buffer their records; a batch flushes when the
//! group threshold fills (or a timeout expires), and every transaction in
//! the batch becomes durable at the batch's sync completion.
//!
//! The manager carries both log-writer models and
//! [`WalManager::commit_group`] is the one switch between them: the
//! serialized writer of §6.1 ([`WalManager::flush`]: `append` + `sync`,
//! one group on the device at a time, later groups queue behind
//! `log_writer_free`) and the pipelined writer
//! ([`WalManager::flush_submit`] / [`WalManager::poll_flushes`]: several
//! groups in flight, a full pipeline leaves the batch open). They seal
//! different groups and time durability differently — see the
//! `crate::runner` module docs before trying to express one through the
//! other.

use crate::backend::{AppendTag, LogBackend};
use crate::log::LogRecord;
use simkit::{SimDuration, SimTime};

/// A transaction's position in the log, used to wait for durability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Lsn(pub u64);

/// One resolved group flush.
#[derive(Debug, Clone, Copy)]
pub struct FlushReport {
    /// Every LSN at or below this is durable.
    pub durable_upto: Lsn,
    /// When durability was reached.
    pub at: SimTime,
    /// Bytes in the flushed batch.
    pub bytes: u64,
}

/// WAL manager configuration.
#[derive(Debug, Clone, Copy)]
pub struct WalConfig {
    /// Flush when this many bytes accumulate (paper: 16 KiB).
    pub group_threshold: u64,
    /// Flush a non-empty batch no later than this after its first record.
    pub group_timeout: SimDuration,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig { group_threshold: 16 << 10, group_timeout: SimDuration::from_millis(5) }
    }
}

/// The group-commit WAL manager.
pub struct WalManager<B: LogBackend> {
    backend: B,
    config: WalConfig,
    /// Encoded, not yet appended bytes.
    pending: Vec<u8>,
    /// When the current batch opened (first record time).
    batch_opened: Option<SimTime>,
    /// Total bytes ever enqueued (the LSN space).
    enqueued: u64,
    /// Durable frontier.
    durable: Lsn,
    flushes: u64,
    /// When the log-writer finished its previous flush: flushes serialize
    /// (queue depth 1 on the log device, paper §6.1). On the pipelined
    /// path this is the CPU hand-off instant of the latest submission.
    log_writer_free: SimTime,
    /// Asynchronously submitted groups not yet reported durable.
    in_flight: Vec<PendingFlush>,
    /// Scratch for draining backend completions.
    scratch: Vec<(AppendTag, SimTime)>,
}

/// One asynchronously submitted group commit awaiting durability.
#[derive(Debug, Clone, Copy)]
struct PendingFlush {
    tag: AppendTag,
    durable_upto: Lsn,
    bytes: u64,
}

impl<B: LogBackend> WalManager<B> {
    /// A manager over `backend`.
    pub fn new(backend: B, config: WalConfig) -> Self {
        WalManager {
            backend,
            config,
            pending: Vec::new(),
            batch_opened: None,
            enqueued: 0,
            durable: Lsn(0),
            flushes: 0,
            log_writer_free: SimTime::ZERO,
            in_flight: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// The backend (stats).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable backend access (crash injection in tests).
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// The configuration.
    pub fn config(&self) -> &WalConfig {
        &self.config
    }

    /// Everything at or below this LSN is durable.
    pub fn durable_upto(&self) -> Lsn {
        self.durable
    }

    /// Group flushes performed.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Bytes currently waiting in the open batch.
    pub fn pending_bytes(&self) -> u64 {
        self.pending.len() as u64
    }

    /// Enqueue a committed transaction's records into the open batch and
    /// return the transaction's LSN. Nothing is flushed: the caller checks
    /// [`threshold_reached`](WalManager::threshold_reached) and hands the
    /// batch to the writer with [`commit_group`](WalManager::commit_group).
    pub fn append_records(&mut self, now: SimTime, records: &[LogRecord]) -> Lsn {
        if self.batch_opened.is_none() {
            self.batch_opened = Some(now);
        }
        for r in records {
            r.encode_into(&mut self.pending);
        }
        self.enqueued += records.iter().map(|r| r.encoded_len() as u64).sum::<u64>();
        Lsn(self.enqueued)
    }

    /// Hand the open batch to the log writer — the one place the two
    /// writer models differ. With `depth == 1` this is the serialized
    /// writer of paper §6.1: the group is sealed and queued behind the
    /// previous one ([`flush`](WalManager::flush)), its report is pushed
    /// to `out`, and the answer is always `true`. With a deeper pipeline
    /// the group is submitted ([`flush_submit`](WalManager::flush_submit))
    /// when fewer than `depth` groups are in flight; otherwise the batch
    /// stays open and the answer is `false`. Returns whether the writer
    /// took the batch.
    pub fn commit_group(&mut self, now: SimTime, depth: usize, out: &mut Vec<FlushReport>) -> bool {
        if depth == 1 {
            out.push(self.flush(now));
            true
        } else if self.in_flight.len() < depth {
            self.flush_submit(now);
            true
        } else {
            false
        }
    }

    /// Whether the open batch has filled the group threshold.
    pub fn threshold_reached(&self) -> bool {
        self.pending.len() as u64 >= self.config.group_threshold
    }

    /// The deadline by which the open batch must flush, if one is open.
    pub fn flush_deadline(&self) -> Option<SimTime> {
        self.batch_opened.map(|t| t + self.config.group_timeout)
    }

    /// Flush the open batch now (threshold reached, timeout fired, or
    /// shutdown). No-op report when nothing is pending.
    ///
    /// The flush runs on the dedicated log-writer path: it starts when the
    /// previous flush has finished (queue depth 1 on the log device) and
    /// does NOT consume worker time — ERMIA pins its log writers to their
    /// own cores (paper §6).
    pub fn flush(&mut self, now: SimTime) -> FlushReport {
        if self.pending.is_empty() {
            return FlushReport { durable_upto: self.durable, at: now, bytes: 0 };
        }
        let before = self.durable;
        let bytes = self.pending.len() as u64;
        self.batch_opened = None;
        let start = now.max(self.log_writer_free);
        let t1 = self.backend.append(start, &self.pending);
        let t2 = self.backend.sync(t1);
        // Keep the group buffer's capacity: the next batch encodes into it
        // instead of growing a fresh allocation.
        self.pending.clear();
        self.log_writer_free = t2;
        self.durable = Lsn(self.enqueued);
        self.flushes += 1;
        self.check_durable(before);
        FlushReport { durable_upto: self.durable, at: t2, bytes }
    }

    /// When the log writer finishes its in-flight flush (back-pressure
    /// horizon for stalled workers).
    pub fn log_writer_free(&self) -> SimTime {
        self.log_writer_free
    }

    /// Submit the open batch to the backend asynchronously (pipelined
    /// group commit): the log writer hands the group off and is free to
    /// take the next one while the device persists this one. Durability
    /// arrives through [`poll_flushes`](WalManager::poll_flushes).
    ///
    /// Returns `None` when nothing is pending.
    pub fn flush_submit(&mut self, now: SimTime) -> Option<AppendTag> {
        if self.pending.is_empty() {
            return None;
        }
        let bytes = self.pending.len() as u64;
        self.batch_opened = None;
        let start = now.max(self.log_writer_free);
        let (tag, handoff) = self.backend.append_submit(start, &self.pending);
        self.pending.clear();
        self.log_writer_free = handoff;
        self.in_flight.push(PendingFlush { tag, durable_upto: Lsn(self.enqueued), bytes });
        Some(tag)
    }

    /// Collect groups the backend reports durable by `now`, advancing the
    /// durable frontier and emitting one [`FlushReport`] per group.
    pub fn poll_flushes(&mut self, now: SimTime, out: &mut Vec<FlushReport>) {
        if self.in_flight.is_empty() {
            return;
        }
        let before = self.durable;
        let mut done = std::mem::take(&mut self.scratch);
        done.clear();
        self.backend.drain_completions(now, &mut done);
        for &(tag, at) in &done {
            if let Some(pos) = self.in_flight.iter().position(|p| p.tag == tag) {
                let p = self.in_flight.remove(pos);
                self.durable = self.durable.max(p.durable_upto);
                self.flushes += 1;
                out.push(FlushReport { durable_upto: p.durable_upto, at, bytes: p.bytes });
            }
        }
        done.clear();
        self.scratch = done;
        self.check_durable(before);
    }

    /// Groups submitted via [`flush_submit`](WalManager::flush_submit)
    /// whose durability has not yet been reported.
    pub fn flushes_in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Earliest instant an in-flight group could become durable — the
    /// virtual-time jump target when every pipeline slot is occupied.
    pub fn next_flush_completion_at(&self) -> Option<SimTime> {
        self.backend.next_completion_at()
    }

    /// Shutdown path for the pipelined mode: submit any open batch, drive
    /// every in-flight group durable (the backend's `sync` dominates
    /// them), and deliver the corresponding reports. Returns the instant
    /// everything is durable.
    pub fn drain_all(&mut self, now: SimTime, out: &mut Vec<FlushReport>) -> SimTime {
        let before = self.durable;
        self.flush_submit(now);
        if self.in_flight.is_empty() {
            return now;
        }
        let t = self.backend.sync(now.max(self.log_writer_free)).max(now);
        self.poll_flushes(t, out);
        debug_assert!(
            self.in_flight.is_empty(),
            "{} groups still in flight after a dominating sync",
            self.in_flight.len()
        );
        self.check_durable(before);
        t
    }

    /// The durable frontier's invariant, checked in debug builds at the end
    /// of every call that moves it ([`flush`](WalManager::flush),
    /// [`poll_flushes`](WalManager::poll_flushes),
    /// [`drain_all`](WalManager::drain_all)): it never falls below where
    /// the call found it (`before`) and never passes the bytes enqueued.
    fn check_durable(&self, before: Lsn) {
        if cfg!(debug_assertions) {
            assert!(
                before <= self.durable && self.durable.0 <= self.enqueued,
                "WAL durable_upto: {} -> {}, enqueued {}",
                before.0,
                self.durable.0,
                self.enqueued
            );
        }
    }
}

impl<B: LogBackend + simkit::Instrument> simkit::Instrument for WalManager<B> {
    fn instrument(&self, out: &mut simkit::Scope<'_>) {
        out.counter("db.wal.flushes", self.flushes);
        out.counter("db.wal.bytes_enqueued", self.enqueued);
        out.gauge("db.wal.pending_bytes", self.pending.len() as f64);
        self.backend.instrument(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{NoLog, PmConfig, PmLog};
    use crate::log::{LogOp, LogRecord};

    fn rec(txn: u64, len: usize) -> LogRecord {
        LogRecord {
            txn_id: txn,
            op: LogOp::Insert,
            table: 0,
            key: vec![0; 8].into(),
            value: vec![0; len].into(),
        }
    }

    #[test]
    fn batch_flushes_at_threshold() {
        let mut wal = WalManager::new(
            NoLog::new(),
            WalConfig { group_threshold: 1000, group_timeout: SimDuration::from_millis(1) },
        );
        let lsn1 = wal.append_records(SimTime::ZERO, &[rec(1, 100)]);
        assert!(!wal.threshold_reached());
        assert!(lsn1 > Lsn(0));
        assert!(wal.pending_bytes() > 0);
        // Push past the threshold.
        wal.append_records(SimTime::ZERO, &[rec(2, 2000)]);
        assert!(wal.threshold_reached(), "threshold crossed");
        let mut reports = Vec::new();
        assert!(wal.commit_group(SimTime::ZERO, 1, &mut reports));
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].durable_upto, wal.durable_upto());
        assert_eq!(wal.pending_bytes(), 0);
        assert_eq!(wal.flushes(), 1);
    }

    #[test]
    fn timeout_deadline_tracks_batch_open() {
        let mut wal = WalManager::new(NoLog::new(), WalConfig::default());
        assert!(wal.flush_deadline().is_none());
        let t0 = SimTime::from_micros(7);
        wal.append_records(t0, &[rec(1, 10)]);
        assert_eq!(wal.flush_deadline(), Some(t0 + WalConfig::default().group_timeout));
        wal.flush(t0 + SimDuration::from_millis(10));
        assert!(wal.flush_deadline().is_none());
    }

    #[test]
    fn durability_advances_monotonically() {
        let mut wal = WalManager::new(PmLog::new(PmConfig::default()), WalConfig::default());
        let mut now = SimTime::ZERO;
        let mut last = Lsn(0);
        let mut reports = Vec::new();
        for i in 0..50 {
            wal.append_records(now, &[rec(i, 400)]);
            if wal.threshold_reached() {
                wal.commit_group(now, 1, &mut reports);
                let r = reports.pop().expect("the serialized writer always reports");
                assert!(r.durable_upto >= last);
                last = r.durable_upto;
                now = r.at;
            }
        }
        let final_report = wal.flush(now);
        assert!(final_report.durable_upto >= last);
        assert!(wal.backend().bytes_written() > 0);
    }

    #[test]
    fn empty_flush_is_noop() {
        let mut wal = WalManager::new(NoLog::new(), WalConfig::default());
        let r = wal.flush(SimTime::from_micros(3));
        assert_eq!(r.bytes, 0);
        assert_eq!(r.at, SimTime::from_micros(3));
        assert_eq!(wal.flushes(), 0);
    }

    #[test]
    fn pipelined_flushes_overlap_and_converge() {
        // A long fence makes durability lag the CPU hand-off, so two
        // submissions can genuinely be in flight at once.
        let pm = PmConfig { fence: SimDuration::from_micros(50) };
        let mut wal = WalManager::new(
            PmLog::new(pm),
            WalConfig { group_threshold: 1000, group_timeout: SimDuration::from_millis(1) },
        );
        let now = SimTime::ZERO;
        let lsn1 = wal.append_records(now, &[rec(1, 1200)]);
        wal.flush_submit(now).expect("first group submitted");
        let lsn2 = wal.append_records(now, &[rec(2, 1200)]);
        wal.flush_submit(now).expect("second group submitted");
        assert_eq!(wal.flushes_in_flight(), 2);
        assert_eq!(wal.durable_upto(), Lsn(0), "nothing durable before completions drain");

        let mut reports = Vec::new();
        let t = wal.drain_all(now, &mut reports);
        assert_eq!(wal.flushes_in_flight(), 0);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].durable_upto, lsn1);
        assert_eq!(reports[1].durable_upto, lsn2);
        assert!(reports.iter().all(|r| r.at <= t));
        assert_eq!(wal.durable_upto(), lsn2);
        assert_eq!(wal.flushes(), 2);
    }

    #[test]
    fn pipelined_poll_delivers_in_completion_order() {
        let mut wal = WalManager::new(
            NoLog::new(),
            WalConfig { group_threshold: 100, group_timeout: SimDuration::from_millis(1) },
        );
        let t0 = SimTime::from_micros(3);
        wal.append_records(t0, &[rec(1, 200)]);
        assert!(wal.threshold_reached());
        wal.flush_submit(t0);
        let mut reports = Vec::new();
        wal.poll_flushes(t0, &mut reports);
        // NoLog completes at the submit instant.
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].at, t0);
        assert_eq!(wal.flushes_in_flight(), 0);
    }

    #[test]
    fn lsn_reflects_encoded_bytes() {
        let mut wal = WalManager::new(NoLog::new(), WalConfig::default());
        let record = rec(1, 100);
        let lsn = wal.append_records(SimTime::ZERO, std::slice::from_ref(&record));
        assert_eq!(lsn, Lsn(record.encoded_len() as u64));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "WAL durable_upto: 1099511627776 -> 130, enqueued 130")]
    fn a_flush_that_lowers_the_durable_frontier_breaks_the_invariant() {
        let mut wal = WalManager::new(NoLog::new(), WalConfig::default());
        // A test-only corruption: a frontier past anything enqueued, which
        // the next flush then pulls back to the enqueued bytes.
        wal.durable = Lsn(1 << 40);
        wal.append_records(SimTime::ZERO, &[rec(1, 100)]);
        wal.flush(SimTime::ZERO);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "WAL durable_upto: 0 -> 131, enqueued 130")]
    fn a_group_durable_past_the_enqueued_bytes_breaks_the_invariant() {
        let mut wal = WalManager::new(NoLog::new(), WalConfig::default());
        wal.append_records(SimTime::ZERO, &[rec(1, 100)]);
        wal.flush_submit(SimTime::ZERO);
        // A test-only corruption: the group claims a byte never enqueued.
        wal.in_flight[0].durable_upto = Lsn(wal.enqueued + 1);
        wal.drain_all(SimTime::ZERO, &mut Vec::new());
    }
}
