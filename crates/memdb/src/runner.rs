//! The multi-worker workload runner behind the Fig. 9 experiment.
//!
//! Workers are simulated cores pinned to log writers (the paper: "ERMIA
//! pins each of its log writers to a core, therefore the experiments can
//! scale to up to 8 threads"). A transaction's records join the open
//! group-commit batch and its latency runs until the batch is durable —
//! which is why transaction latency *drops* as workers increase (the
//! 16 KiB threshold fills sooner, §6.1).
//!
//! There is one worker loop ([`run_observed`]). What the *log writer* does
//! with a full or stale batch is the WAL's decision
//! ([`WalManager::commit_group`]), and
//! [`RunnerConfig::log_pipeline_depth`] picks between two writer
//! **models**, not two code paths for one model:
//!
//! 1. *Group boundaries.* The serialized writer (depth 1) seals every
//!    group at the threshold and queues it behind the writer; workers are
//!    held back only by [`RunnerConfig::max_log_deficit`]. A pipelined
//!    writer with no free slot leaves the batch open — it keeps growing —
//!    and parks the filling worker. Group sizes differ.
//! 2. *Device protocol.* `NvmeLog::sync` is write → wait → flush → wait
//!    at queue depth 1, which *is* Fig. 9's "NVMe saturates" line;
//!    `append_submit` queues the write and the flush together.
//! 3. *Durability instant.* `XssdLog::sync` is `x_fsync` — MMIO credit
//!    reads and an exact completion instant; `drain_completions` reads
//!    the host-cached credit and stamps the poll instant.
//!
//! Forcing depth 1 through the pipelined path therefore moves the goldens
//! (fig09 NVMe at 8 workers: 40.4 → 246.2 ktxn/s; measured in PR 17, table
//! in ROADMAP.md). Do not merge the two without a model proposal;
//! `tests/runner_schedule.rs` pins both schedules.

use crate::backend::LogBackend;
use crate::log::LogRecord;
use crate::storage::{Database, TxnError};
use crate::wal::{FlushReport, Lsn, WalManager};
use simkit::{DetRng, SampleSeries, SimDuration, SimTime};

/// Runner configuration.
#[derive(Debug, Clone, Copy)]
pub struct RunnerConfig {
    /// Number of worker threads (1–8 in the paper).
    pub workers: usize,
    /// Mean CPU time to execute one transaction (ERMIA-class engines do
    /// ~37 ktxn/s/core on TPC-C ⇒ ~27 µs/txn).
    pub cpu_per_txn: SimDuration,
    /// ±fractional jitter applied to per-transaction CPU time.
    pub cpu_jitter: f64,
    /// Simulated run length.
    pub duration: SimDuration,
    /// Stall workers when the log writer's completion horizon runs this
    /// far ahead of the simulation clock (the log-buffer back-pressure: a
    /// full buffer parks workers until the device drains).
    pub max_log_deficit: SimDuration,
    /// Workload RNG seed.
    pub seed: u64,
    /// Maximum group commits the log writer may keep in flight at once.
    /// `1` (the default) is the serialized blocking path the paper's
    /// Fig. 9 measures; larger values pipeline groups through the
    /// backend's asynchronous append path.
    pub log_pipeline_depth: usize,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            workers: 4,
            cpu_per_txn: SimDuration::from_micros_f64(27.0),
            cpu_jitter: 0.2,
            duration: SimDuration::from_millis(100),
            max_log_deficit: SimDuration::from_micros(500),
            seed: 0xE121A,
            log_pipeline_depth: 1,
        }
    }
}

/// What one run measured.
#[derive(Debug)]
pub struct RunReport {
    /// Committed transactions.
    pub committed: u64,
    /// Aborted transactions (validation conflicts).
    pub aborted: u64,
    /// Simulated wall clock consumed.
    pub elapsed: SimDuration,
    /// Commit-to-durable latency samples, µs.
    pub latency_us: SampleSeries,
    /// Bytes pushed to the log backend.
    pub log_bytes: u64,
    /// Group flushes performed.
    pub flushes: u64,
    /// High-water mark of group commits simultaneously in flight (1 on
    /// the blocking path; can exceed 1 only with `log_pipeline_depth > 1`).
    pub max_log_inflight: u64,
}

impl RunReport {
    /// Committed transactions per second.
    pub fn throughput_tps(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.committed as f64 / self.elapsed.as_secs_f64()
        }
    }

    /// Mean transaction latency in µs.
    pub fn mean_latency_us(&self) -> f64 {
        self.latency_us.mean()
    }
}

impl simkit::Instrument for RunReport {
    fn instrument(&self, out: &mut simkit::Scope<'_>) {
        let mut db = out.scope("db");
        db.counter("commits", self.committed);
        db.counter("aborts", self.aborted);
        db.counter("log_bytes", self.log_bytes);
        db.counter("flushes", self.flushes);
        db.counter("elapsed_ns", self.elapsed.as_nanos());
        db.latency("commit_latency_us", self.latency_us.summary());
        db.gauge("max_log_inflight", self.max_log_inflight as f64);
    }
}

/// One transaction produced by the workload: its WAL records (already
/// applied to the database) or an abort.
pub type TxnOutcome = Result<Vec<LogRecord>, TxnError>;

/// Extra observation settings for [`run_observed`] — everything the
/// benchmark driver layer (`xssd-bench`'s `driver` module) needs beyond
/// the plain [`RunnerConfig`]: transaction kinds, a ramp-up window
/// excluded from statistics, and optional time-series bucketing.
#[derive(Debug, Clone, Copy)]
pub struct ObserveConfig {
    /// Number of distinct transaction kinds the workload closure may
    /// return; sizes [`ObservedRun::per_kind`].
    pub kinds: usize,
    /// Warm-up window at the start of the run: transactions *started*
    /// before this offset are executed (they heat caches and fill the
    /// log) but appear in no counter, latency series, or bucket — only
    /// in [`ObservedRun::ramp_excluded`].
    pub ramp_up: SimDuration,
    /// When set, committed transactions are additionally bucketed by
    /// durability instant into fixed windows of this width (offset from
    /// the end of the ramp) — the per-simulated-second time-series.
    pub series_bucket: Option<SimDuration>,
}

impl Default for ObserveConfig {
    fn default() -> Self {
        ObserveConfig { kinds: 1, ramp_up: SimDuration::ZERO, series_bucket: None }
    }
}

/// Measured-window statistics for one transaction kind.
#[derive(Debug, Default)]
pub struct KindCounts {
    /// Committed transactions of this kind (measured window only).
    pub committed: u64,
    /// Aborted transactions of this kind (measured window only).
    pub aborted: u64,
    /// Commit-to-durable latency samples of this kind, µs.
    pub latency_us: SampleSeries,
}

/// One time-series bucket (see [`ObserveConfig::series_bucket`]).
#[derive(Debug, Default)]
pub struct SeriesBucket {
    /// Transactions that became durable inside this bucket.
    pub committed: u64,
    /// Their commit-to-durable latency samples, µs.
    pub latency_us: SampleSeries,
}

/// What [`run_observed`] measured: the classic [`RunReport`] (counters
/// restricted to the measured window) plus the per-kind and time-series
/// breakdowns.
#[derive(Debug)]
pub struct ObservedRun {
    /// Aggregate report over the measured window. With a zero ramp this
    /// is byte-identical to what [`run_workload`] returns.
    pub report: RunReport,
    /// Per-kind breakdown, indexed by the kind the closure returned.
    pub per_kind: Vec<KindCounts>,
    /// Time-series buckets (empty unless `series_bucket` was set).
    pub series: Vec<SeriesBucket>,
    /// Committed transactions excluded because they started in the ramp.
    pub ramp_excluded: u64,
}

/// Drive `workers` simulated cores over `txn_fn` for the configured
/// duration. `txn_fn` executes exactly one transaction against `db` and
/// returns its log records.
pub fn run_workload<B, F>(
    db: &mut Database,
    wal: &mut WalManager<B>,
    cfg: RunnerConfig,
    mut txn_fn: F,
) -> RunReport
where
    B: LogBackend,
    F: FnMut(&mut Database, &mut DetRng, usize) -> TxnOutcome,
{
    run_observed(db, wal, cfg, ObserveConfig::default(), |db, rng, w, _t0| (0, txn_fn(db, rng, w)))
        .report
}

/// The kind-aware, ramp-aware generalization of [`run_workload`]. The
/// closure additionally receives the transaction's start instant and
/// returns `(kind, outcome)`; the execution schedule (worker timeline,
/// RNG stream, flush cadence) is *identical* to [`run_workload`] — the
/// observation settings only change what gets counted.
pub fn run_observed<B, F>(
    db: &mut Database,
    wal: &mut WalManager<B>,
    cfg: RunnerConfig,
    obs: ObserveConfig,
    mut txn_fn: F,
) -> ObservedRun
where
    B: LogBackend,
    F: FnMut(&mut Database, &mut DetRng, usize, SimTime) -> (usize, TxnOutcome),
{
    assert!(cfg.workers >= 1);
    assert!(cfg.log_pipeline_depth >= 1, "the log writer needs at least one slot");
    assert!(obs.kinds >= 1, "a workload has at least one transaction kind");
    assert!(obs.ramp_up <= cfg.duration, "ramp-up cannot exceed the run duration");
    let depth = cfg.log_pipeline_depth;
    let mut rng = DetRng::new(cfg.seed);
    let mut worker_rngs: Vec<DetRng> = (0..cfg.workers).map(|i| rng.fork(i as u64)).collect();
    let mut available: Vec<SimTime> = vec![SimTime::ZERO; cfg.workers];
    // Transactions whose batch is not yet durable: (start, lsn, kind).
    let mut waiting: Vec<(SimTime, Lsn, usize)> = Vec::new();
    let mut observer = Observer::new(&obs);
    let mut reports: Vec<FlushReport> = Vec::new();
    let mut max_inflight = 0usize;
    let end = SimTime::ZERO + cfg.duration;
    let mut horizon = SimTime::ZERO;

    loop {
        // Pick the earliest-free worker.
        let (w, &t0) =
            available.iter().enumerate().min_by_key(|(_, t)| **t).expect("at least one worker");
        if t0 >= end {
            break;
        }
        // Collect durability completions the device reached by t0 (none
        // are ever outstanding behind the serialized writer).
        wal.poll_flushes(t0, &mut reports);
        // Group-commit timeout: a stale batch goes to the writer before
        // running on (a pipelined writer with no free slot keeps it open
        // until the next submission window).
        if let Some(deadline) = wal.flush_deadline() {
            if deadline < t0 {
                wal.commit_group(deadline, depth, &mut reports);
            }
        }
        // Resolved before this transaction joins `waiting`: a read-only
        // transaction's LSN equals the frontier a stale flush reports.
        resolve(&mut reports, &mut waiting, &mut observer, &mut horizon);
        // Execute one transaction (the jitter draw precedes `txn_fn` on
        // the worker's RNG stream).
        let jitter = 1.0 + cfg.cpu_jitter * (worker_rngs[w].unit() * 2.0 - 1.0);
        let cpu =
            SimDuration::from_nanos((cfg.cpu_per_txn.as_nanos() as f64 * jitter).round() as u64);
        let t1 = t0 + cpu;
        horizon = horizon.max(t1);
        let (kind, outcome) = txn_fn(db, &mut worker_rngs[w], w, t0);
        available[w] = t1;
        match outcome {
            Ok(records) => {
                observer.on_commit(t0, kind);
                let lsn = wal.append_records(t1, &records);
                waiting.push((t0, lsn, kind));
                // The dedicated log writer takes a full group and the
                // filling worker moves straight on — unless every pipeline
                // slot is occupied: then the log buffer is full, and this
                // worker parks until the earliest in-flight group can
                // complete.
                if wal.threshold_reached() && !wal.commit_group(t1, depth, &mut reports) {
                    let Some(next) = wal.next_flush_completion_at() else {
                        panic!(
                            "log writer stalled: nothing pending at {t1} while {} group(s) \
                             ride in-flight appends on `{}`",
                            wal.flushes_in_flight(),
                            wal.backend().name(),
                        )
                    };
                    available[w] = next.max(t1);
                }
                // Bounded run-ahead: when the log writer's horizon runs
                // too far ahead of the clock, the log buffer is full —
                // park this worker until the device drains.
                if wal.log_writer_free() > t1 + cfg.max_log_deficit {
                    available[w] = available[w].max(wal.log_writer_free());
                }
            }
            Err(_) => observer.on_abort(t0, kind),
        }
        // Nothing retires between the poll above and here, so this is the
        // iteration's high-water mark.
        max_inflight = max_inflight.max(wal.flushes_in_flight());
        resolve(&mut reports, &mut waiting, &mut observer, &mut horizon);
    }

    // Drain the tail so every committed txn gets a latency sample. The
    // tail group goes to the writer even when every pipeline slot is
    // taken, so `max_log_inflight` can read `depth + 1` (the benchmark's
    // `memdb.log.max_inflight` reports it).
    if !wal.commit_group(horizon, depth, &mut reports) {
        wal.flush_submit(horizon);
    }
    max_inflight = max_inflight.max(wal.flushes_in_flight());
    let drained = wal.drain_all(horizon, &mut reports);
    horizon = horizon.max(drained);
    resolve(&mut reports, &mut waiting, &mut observer, &mut horizon);
    debug_assert!(waiting.is_empty(), "all transactions must resolve");

    // The serialized writer never overlaps groups: one in flight once it
    // has flushed anything.
    let max_log_inflight = (max_inflight as u64).max(wal.flushes().min(1));
    observer.finish(wal, horizon, max_log_inflight)
}

/// Measured-window accounting.
struct Observer {
    ramp_start: SimTime,
    bucket: Option<SimDuration>,
    latency: SampleSeries,
    per_kind: Vec<KindCounts>,
    series: Vec<SeriesBucket>,
    committed: u64,
    aborted: u64,
    ramp_excluded: u64,
}

impl Observer {
    fn new(obs: &ObserveConfig) -> Self {
        Observer {
            ramp_start: SimTime::ZERO + obs.ramp_up,
            bucket: obs.series_bucket,
            latency: SampleSeries::new(),
            per_kind: (0..obs.kinds).map(|_| KindCounts::default()).collect(),
            series: Vec::new(),
            committed: 0,
            aborted: 0,
            ramp_excluded: 0,
        }
    }

    fn on_commit(&mut self, start: SimTime, kind: usize) {
        if start >= self.ramp_start {
            self.committed += 1;
            self.per_kind[kind].committed += 1;
        } else {
            self.ramp_excluded += 1;
        }
    }

    fn on_abort(&mut self, start: SimTime, kind: usize) {
        if start >= self.ramp_start {
            self.aborted += 1;
            self.per_kind[kind].aborted += 1;
        }
    }

    fn on_durable(&mut self, start: SimTime, kind: usize, at: SimTime) {
        if start < self.ramp_start {
            return;
        }
        let us = at.saturating_since(start).as_micros_f64();
        self.latency.record(us);
        self.per_kind[kind].latency_us.record(us);
        if let Some(width) = self.bucket {
            let idx = (at.saturating_since(self.ramp_start).as_nanos() / width.as_nanos()) as usize;
            while self.series.len() <= idx {
                self.series.push(SeriesBucket::default());
            }
            self.series[idx].committed += 1;
            self.series[idx].latency_us.record(us);
        }
    }

    fn finish<B: LogBackend>(
        self,
        wal: &WalManager<B>,
        horizon: SimTime,
        max_log_inflight: u64,
    ) -> ObservedRun {
        ObservedRun {
            report: RunReport {
                committed: self.committed,
                aborted: self.aborted,
                elapsed: horizon.saturating_since(self.ramp_start),
                latency_us: self.latency,
                log_bytes: wal.backend().bytes_written(),
                flushes: wal.flushes(),
                max_log_inflight,
            },
            per_kind: self.per_kind,
            series: self.series,
            ramp_excluded: self.ramp_excluded,
        }
    }
}

/// Record latency samples for every waiting transaction the flushes in
/// `reports` covered, in the order the reports were produced, and empty it.
fn resolve(
    reports: &mut Vec<FlushReport>,
    waiting: &mut Vec<(SimTime, Lsn, usize)>,
    observer: &mut Observer,
    horizon: &mut SimTime,
) {
    for report in reports.drain(..) {
        *horizon = (*horizon).max(report.at);
        waiting.retain(|(start, lsn, kind)| {
            if *lsn <= report.durable_upto {
                observer.on_durable(*start, *kind, report.at);
                false
            } else {
                true
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{NoLog, PmConfig, PmLog};
    use crate::wal::WalConfig;

    /// A trivial counter-bumping workload with ~200-byte log records.
    fn bump_workload(db: &mut Database, rng: &mut DetRng, _w: usize) -> TxnOutcome {
        let t = 0;
        let mut ctx = db.begin();
        let key = crate::storage::keys::composite(&[rng.uniform(0, 999) as u32]);
        let mut row =
            db.get(&mut ctx, t, &key).map(|r| r.to_vec()).unwrap_or_else(|| vec![0u8; 160]);
        row[0] = row[0].wrapping_add(1);
        if db.peek(t, &key).is_some() {
            db.update(&mut ctx, t, key, row);
        } else {
            db.insert(&mut ctx, t, key, row);
        }
        db.commit(ctx)
    }

    fn run(workers: usize, dur_ms: u64) -> RunReport {
        let mut db = Database::new();
        db.create_table("counters");
        let mut wal = WalManager::new(PmLog::new(PmConfig::default()), WalConfig::default());
        run_workload(
            &mut db,
            &mut wal,
            RunnerConfig {
                workers,
                duration: SimDuration::from_millis(dur_ms),
                ..RunnerConfig::default()
            },
            bump_workload,
        )
    }

    #[test]
    fn throughput_scales_with_workers() {
        let one = run(1, 50);
        let four = run(4, 50);
        assert!(one.committed > 100);
        let speedup = four.throughput_tps() / one.throughput_tps();
        assert!(speedup > 2.5, "4 workers only {speedup:.2}x over 1");
    }

    #[test]
    fn latency_drops_with_more_workers() {
        // The paper's Fig. 9 latency effect: more workers fill the 16 KiB
        // group sooner, so commit-to-durable latency falls.
        let one = run(1, 50);
        let eight = run(8, 50);
        assert!(
            eight.mean_latency_us() < one.mean_latency_us() * 0.6,
            "one={:.0}us eight={:.0}us",
            one.mean_latency_us(),
            eight.mean_latency_us()
        );
    }

    #[test]
    fn every_commit_gets_a_latency_sample() {
        let r = run(3, 20);
        assert_eq!(r.committed as usize, r.latency_us.len());
        assert!(r.flushes > 0);
        assert!(r.log_bytes > 0);
    }

    #[test]
    fn no_log_runs_are_cpu_bound() {
        let mut db = Database::new();
        db.create_table("counters");
        let mut wal = WalManager::new(NoLog::new(), WalConfig::default());
        let cfg = RunnerConfig {
            workers: 2,
            duration: SimDuration::from_millis(50),
            ..RunnerConfig::default()
        };
        let r = run_workload(&mut db, &mut wal, cfg, bump_workload);
        // 2 workers * 50ms / 27us ~ 3700 txns, modulo jitter.
        let expected = 2.0 * 0.05 / 27e-6;
        let ratio = r.committed as f64 / expected;
        assert!((0.85..1.15).contains(&ratio), "committed {} vs expected {expected}", r.committed);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(4, 20);
        let b = run(4, 20);
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.latency_us.samples(), b.latency_us.samples());
    }

    fn run_deep_pm(depth: usize) -> RunReport {
        let mut db = Database::new();
        db.create_table("counters");
        // A long fence makes each group's durability lag its hand-off, so
        // groups genuinely overlap on the device.
        let pm = PmConfig { fence: SimDuration::from_micros(200), ..PmConfig::default() };
        let mut wal = WalManager::new(
            PmLog::new(pm),
            WalConfig { group_threshold: 2 << 10, ..WalConfig::default() },
        );
        let cfg = RunnerConfig {
            workers: 8,
            duration: SimDuration::from_millis(50),
            log_pipeline_depth: depth,
            ..RunnerConfig::default()
        };
        run_workload(&mut db, &mut wal, cfg, bump_workload)
    }

    #[test]
    fn pipelined_runner_sustains_multiple_inflight_groups() {
        let r = run_deep_pm(4);
        assert!(r.max_log_inflight >= 2, "only {} group(s) in flight", r.max_log_inflight);
        assert!(r.committed > 100);
        // Every committed transaction still resolves to a latency sample.
        assert_eq!(r.committed as usize, r.latency_us.len());
        // The high-water mark is visible in a collected snapshot.
        let mut reg = simkit::MetricsRegistry::new();
        reg.collect("", &r);
        assert!(reg.snapshot().gauge("db.max_log_inflight") >= 2.0);
    }

    #[test]
    fn pipelined_runner_is_deterministic() {
        let a = run_deep_pm(4);
        let b = run_deep_pm(4);
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.latency_us.samples(), b.latency_us.samples());
    }

    #[test]
    fn blocking_report_never_claims_overlap() {
        let r = run(2, 20);
        assert_eq!(r.max_log_inflight, 1);
    }
}
