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
use simkit::stats::percentile_once;
use simkit::{DetRng, SampleSeries, SimDuration, SimTime};
use std::ops::Range;

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
#[derive(Debug, Default)]
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

/// Measured-window counts for one transaction kind. Its latencies are in
/// the aggregate series; [`ObservedRun::kind_latency`] reads them.
#[derive(Debug, Default)]
pub struct KindCounts {
    /// Committed transactions of this kind (measured window only).
    pub committed: u64,
    /// Aborted transactions of this kind (measured window only).
    pub aborted: u64,
    /// Its commit-to-durable latencies summed in recording order, µs.
    latency_sum_us: f64,
}

/// One time-series bucket (see [`ObserveConfig::series_bucket`]). Its
/// latencies are in the aggregate series; [`ObservedRun::bucket_latency`]
/// reads them.
#[derive(Debug, Default)]
pub struct SeriesBucket {
    /// Transactions that became durable inside this bucket.
    pub committed: u64,
    /// Their commit-to-durable latencies summed in recording order, µs.
    latency_sum_us: f64,
}

/// What [`run_observed`] measured: the classic [`RunReport`] (counters
/// restricted to the measured window) plus the per-kind and time-series
/// breakdowns.
#[derive(Debug)]
pub struct ObservedRun {
    /// Aggregate report over the measured window. With a zero ramp this
    /// is byte-identical to what [`run_workload`] returns. Its latency
    /// series holds every measured sample once, in recording order until a
    /// per-kind or per-bucket query groups it.
    pub report: RunReport,
    /// Per-kind breakdown, indexed by the kind the closure returned.
    pub per_kind: Vec<KindCounts>,
    /// Time-series buckets (empty unless `series_bucket` was set).
    pub series: Vec<SeriesBucket>,
    /// Committed transactions excluded because they started in the ramp.
    pub ramp_excluded: u64,
    /// What each sample of `report.latency_us` belongs to.
    tags: Tags,
    /// The per-kind and per-bucket series the tags replaced.
    #[cfg(test)]
    reference: Reference,
}

impl ObservedRun {
    /// Mean and p99 commit-to-durable latency (µs) of each kind, in kind
    /// order, `(0, 0)` for a kind with no measured commit — what a series
    /// of the kind's own samples gives for [`SampleSeries::mean`] and
    /// [`SampleSeries::percentile`], bit for bit. Groups the aggregate
    /// series by kind in place.
    pub fn kind_latency(&mut self) -> Vec<(f64, f64)> {
        let sums: Vec<f64> = self.per_kind.iter().map(|k| k.latency_sum_us).collect();
        self.latency_by(&sums, |tags, i| tags.kind.get(i).map_or(0, |&k| k as usize))
    }

    /// [`ObservedRun::kind_latency`] for each time-series bucket, in time
    /// order. Groups the aggregate series by bucket in place.
    pub fn bucket_latency(&mut self) -> Vec<(f64, f64)> {
        let sums: Vec<f64> = self.series.iter().map(|b| b.latency_sum_us).collect();
        self.latency_by(&sums, |tags, i| tags.bucket[i] as usize)
    }

    /// Group the aggregate samples by `group` (one group per entry of
    /// `sums`) and read each group's mean and p99 off its own range. The
    /// selection carries the tags along, so a later query by the other tag
    /// still finds every sample's.
    fn latency_by(
        &mut self,
        sums: &[f64],
        group: impl Fn(&Tags, usize) -> usize,
    ) -> Vec<(f64, f64)> {
        if sums.is_empty() {
            return Vec::new();
        }
        let samples = self.report.latency_us.samples_mut();
        let tags = &mut self.tags;
        let ranges = group_by(samples, tags, sums.len(), group);
        ranges
            .into_iter()
            .zip(sums)
            .map(|(range, &sum)| {
                let n = range.len();
                let mean = if n == 0 { 0.0 } else { sum / n as f64 };
                let at = range.start;
                let p99 = percentile_once(&mut samples[range], 99.0, |i, j| {
                    tags.swap(at + i, at + j);
                });
                (mean, p99)
            })
            .collect()
    }
}

/// What each sample of the aggregate series belongs to, index for index:
/// its kind when a run has more than one, its time-series bucket when it
/// has a series. An unused tag stays empty.
#[derive(Debug, Default)]
struct Tags {
    kind: Vec<u8>,
    bucket: Vec<u32>,
}

impl Tags {
    fn swap(&mut self, i: usize, j: usize) {
        if !self.kind.is_empty() {
            self.kind.swap(i, j);
        }
        if !self.bucket.is_empty() {
            self.bucket.swap(i, j);
        }
    }
}

/// Reorder `samples`, and `tags` with them, so that each of `groups`
/// groups is contiguous and in group order; return the groups' ranges. A
/// counting sort in place: one pass to count, then every sample not yet in
/// its group's range is swapped straight into it.
fn group_by(
    samples: &mut [f64],
    tags: &mut Tags,
    groups: usize,
    group: impl Fn(&Tags, usize) -> usize,
) -> Vec<Range<usize>> {
    let mut ranges = vec![0..0; groups];
    for i in 0..samples.len() {
        ranges[group(tags, i)].end += 1;
    }
    let mut start = 0;
    for r in &mut ranges {
        *r = start..start + r.end;
        start = r.end;
    }
    // The first slot of each group not yet known to hold one of its own.
    let mut next: Vec<usize> = ranges.iter().map(|r| r.start).collect();
    for g in 0..groups {
        while next[g] < ranges[g].end {
            let i = next[g];
            let h = group(tags, i);
            if h == g {
                next[g] += 1;
            } else {
                let j = next[h];
                samples.swap(i, j);
                tags.swap(i, j);
                next[h] += 1;
            }
        }
    }
    ranges
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

/// Measured-window accounting: the [`ObservedRun`] under construction.
/// Each measured latency is stored once, in the report's series, with its
/// tags beside it; per kind and per bucket only a count and a running sum
/// are kept.
struct Observer {
    ramp_start: SimTime,
    bucket: Option<SimDuration>,
    run: ObservedRun,
}

impl Observer {
    fn new(obs: &ObserveConfig) -> Self {
        assert!(obs.kinds <= 1 << u8::BITS, "a kind tag is one byte: at most 256 kinds");
        Observer {
            ramp_start: SimTime::ZERO + obs.ramp_up,
            bucket: obs.series_bucket,
            run: ObservedRun {
                report: RunReport::default(),
                per_kind: (0..obs.kinds).map(|_| KindCounts::default()).collect(),
                series: Vec::new(),
                ramp_excluded: 0,
                tags: Tags::default(),
                #[cfg(test)]
                reference: Reference {
                    kinds: (0..obs.kinds).map(|_| SampleSeries::new()).collect(),
                    buckets: Vec::new(),
                },
            },
        }
    }

    fn on_commit(&mut self, start: SimTime, kind: usize) {
        if start >= self.ramp_start {
            self.run.report.committed += 1;
            self.run.per_kind[kind].committed += 1;
        } else {
            self.run.ramp_excluded += 1;
        }
    }

    fn on_abort(&mut self, start: SimTime, kind: usize) {
        if start >= self.ramp_start {
            self.run.report.aborted += 1;
            self.run.per_kind[kind].aborted += 1;
        }
    }

    fn on_durable(&mut self, start: SimTime, kind: usize, at: SimTime) {
        if start < self.ramp_start {
            return;
        }
        let run = &mut self.run;
        let us = at.saturating_since(start).as_micros_f64();
        run.report.latency_us.record(us);
        if run.per_kind.len() > 1 {
            run.tags.kind.push(kind as u8);
        }
        run.per_kind[kind].latency_sum_us += us;
        #[cfg(test)]
        run.reference.kinds[kind].record(us);
        if let Some(width) = self.bucket {
            let idx = at.saturating_since(self.ramp_start).as_nanos() / width.as_nanos();
            run.tags.bucket.push(u32::try_from(idx).expect("a bucket tag is four bytes"));
            let idx = idx as usize;
            if run.series.len() <= idx {
                run.series.resize_with(idx + 1, SeriesBucket::default);
            }
            run.series[idx].committed += 1;
            run.series[idx].latency_sum_us += us;
            #[cfg(test)]
            run.reference.bucket(idx).record(us);
        }
    }

    fn finish<B: LogBackend>(
        self,
        wal: &WalManager<B>,
        horizon: SimTime,
        max_log_inflight: u64,
    ) -> ObservedRun {
        let mut run = self.run;
        run.report.elapsed = horizon.saturating_since(self.ramp_start);
        run.report.log_bytes = wal.backend().bytes_written();
        run.report.flushes = wal.flushes();
        run.report.max_log_inflight = max_log_inflight;
        run
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

/// Reference model for the tests: the per-kind and per-bucket recording the
/// tags replaced — every measured sample stored again in its kind's series
/// and in its bucket's.
#[cfg(test)]
#[derive(Debug)]
struct Reference {
    kinds: Vec<SampleSeries>,
    buckets: Vec<SampleSeries>,
}

#[cfg(test)]
impl Reference {
    fn bucket(&mut self, idx: usize) -> &mut SampleSeries {
        if self.buckets.len() <= idx {
            self.buckets.resize_with(idx + 1, SampleSeries::new);
        }
        &mut self.buckets[idx]
    }

    /// Each series' mean and p99, as the driver used to read them.
    fn latency(series: &mut [SampleSeries]) -> Vec<(f64, f64)> {
        series.iter_mut().map(|s| (s.mean(), s.percentile(99.0))).collect()
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

    /// Query `run` by kind and by bucket (`kind_first` picks the order) and
    /// hold both answers to the reference series, bit for bit; the
    /// aggregate keeps every sample once.
    fn assert_matches_reference(mut run: ObservedRun, kind_first: bool, what: &str) {
        let mut recorded: Vec<u64> =
            run.report.latency_us.samples().iter().map(|x| x.to_bits()).collect();
        let (kinds, buckets) = if kind_first {
            let kinds = run.kind_latency();
            (kinds, run.bucket_latency())
        } else {
            let buckets = run.bucket_latency();
            (run.kind_latency(), buckets)
        };
        let bits = |v: &[(f64, f64)]| -> Vec<(u64, u64)> {
            v.iter().map(|(m, p)| (m.to_bits(), p.to_bits())).collect()
        };
        let reference = &mut run.reference;
        assert_eq!(bits(&kinds), bits(&Reference::latency(&mut reference.kinds)), "{what}: kinds");
        assert_eq!(
            bits(&buckets),
            bits(&Reference::latency(&mut reference.buckets)),
            "{what}: buckets"
        );
        let mut grouped: Vec<u64> =
            run.report.latency_us.samples().iter().map(|x| x.to_bits()).collect();
        recorded.sort_unstable();
        grouped.sort_unstable();
        assert_eq!(grouped, recorded, "{what}: the queries lost or invented a sample");
    }

    /// The seeded property behind the one-copy recording: over random kind
    /// and bucket patterns — empty kinds, a single-sample kind, empty
    /// buckets, durability instants out of order, heavy ties — the
    /// per-kind and per-bucket mean and p99 read off the tagged aggregate
    /// equal the per-kind and per-bucket series', in either query order.
    #[test]
    fn kind_and_bucket_latency_equal_the_reference_series_bit_for_bit() {
        let mut rng = DetRng::new(0x0B5E_77ED);
        let wal = WalManager::new(NoLog::new(), WalConfig::default());
        for case in 0..240 {
            let kinds = [1usize, 2, 5, 256][case % 4];
            let series_bucket = (case % 3 != 0)
                .then(|| SimDuration::from_nanos(rng.uniform(1, 20) * 1_000 + rng.uniform(0, 999)));
            let ramp_up = SimDuration::from_micros(rng.uniform(0, 20));
            let mut observer = Observer::new(&ObserveConfig { kinds, ramp_up, series_bucket });
            // Kinds below `drawn` are drawn at random; with three or more,
            // kind `kinds - 2` is never drawn (empty) and the last kind gets
            // exactly one sample.
            let drawn = if kinds >= 3 { kinds as u64 - 2 } else { 1 };
            let distinct = if case % 2 == 0 { 4 } else { 1 << 24 };
            let n = [0u64, 1, 2, 40, 3_000][rng.uniform(0, 4) as usize];
            for _ in 0..n {
                let kind = rng.uniform(0, drawn - 1) as usize;
                let start = SimTime::from_nanos(rng.uniform(0, 100_000));
                let at = start + SimDuration::from_nanos(rng.uniform(0, distinct) * 37);
                observer.on_commit(start, kind);
                observer.on_durable(start, kind, at);
            }
            if kinds >= 2 {
                // Measured whatever the ramp: it starts at the ramp's end.
                let start = SimTime::ZERO + ramp_up;
                observer.on_commit(start, kinds - 1);
                observer.on_durable(start, kinds - 1, start + SimDuration::from_nanos(1_234));
            }
            let run = observer.finish(&wal, SimTime::from_micros(200), 1);
            assert_matches_reference(run, case % 2 == 0, &format!("case {case}"));
        }
    }

    /// The same on real runs: three kinds and 2 ms buckets over the
    /// blocking and the pipelined writer.
    #[test]
    fn observed_runs_match_the_reference_series() {
        for (depth, kind_first) in [(1, true), (4, false)] {
            let mut db = Database::new();
            db.create_table("counters");
            let mut wal = WalManager::new(
                PmLog::new(PmConfig {
                    fence: SimDuration::from_micros(200),
                    ..PmConfig::default()
                }),
                WalConfig { group_threshold: 2 << 10, ..WalConfig::default() },
            );
            let cfg = RunnerConfig {
                workers: 4,
                duration: SimDuration::from_millis(30),
                log_pipeline_depth: depth,
                ..RunnerConfig::default()
            };
            let obs = ObserveConfig {
                kinds: 3,
                ramp_up: SimDuration::from_millis(5),
                series_bucket: Some(SimDuration::from_millis(2)),
            };
            let run = run_observed(&mut db, &mut wal, cfg, obs, |db, rng, w, _t0| {
                let kind = rng.uniform(0, 1) as usize;
                (kind, bump_workload(db, rng, w))
            });
            assert!(run.report.committed > 1_000 && run.series.len() >= 12);
            assert_eq!(run.per_kind[2].committed, 0, "kind 2 is never drawn");
            assert_matches_reference(run, kind_first, &format!("depth {depth}"));
        }
    }
}
