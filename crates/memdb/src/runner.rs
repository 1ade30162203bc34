//! The workload runner behind the Fig. 9 experiment: the one way to drive
//! transactions through a [`WalManager`].
//!
//! Workers are simulated cores pinned to log writers (the paper: "ERMIA
//! pins each of its log writers to a core, therefore the experiments can
//! scale to up to 8 threads"). A transaction's records join the open
//! group-commit batch and its latency runs until the batch is durable —
//! which is why transaction latency *drops* as workers increase (the
//! 16 KiB threshold fills sooner, §6.1).
//!
//! [`run`] takes a [`Workload`] — named transaction kinds with mix weights
//! — and a [`DriverConfig`], and returns a [`DriverReport`]. A closure
//! `|db, rng| -> TxnOutcome` is a one-kind workload: it makes no kind
//! draw, and without a series bucket its report keeps the aggregate's
//! samples in recording order.
//!
//! What the *log writer* does with a full or stale batch is the WAL's
//! decision ([`WalManager::commit_group`]), and
//! [`DriverConfig::log_pipeline_depth`] picks between two writer
//! **models**, not two code paths for one model:
//!
//! 1. *Group boundaries.* The serialized writer (depth 1) seals every
//!    group at the threshold and queues it behind the writer; workers are
//!    held back only by `MAX_LOG_DEFICIT`. A pipelined writer with no
//!    free slot leaves the batch open — it keeps growing — and parks the
//!    filling worker. Group sizes differ.
//! 2. *Device protocol.* `NvmeLog::sync` is write → wait → flush → wait;
//!    `append_submit` queues the write and the flush together. The two
//!    time a lone unit on an idle device identically; they differ only
//!    when units overlap.
//! 3. *Durability instant.* `XssdLog::sync` is `x_fsync` — MMIO credit
//!    reads and an exact completion instant; `drain_completions` reads
//!    the host-cached credit and stamps the poll instant.
//!
//! Forcing depth 1 through the pipelined path therefore moves the goldens
//! (fig09 NVMe at 8 workers: 40.4 → 246.2 ktxn/s, ROADMAP.md). The cause
//! is point 1, not point 2 (ROADMAP.md item 31): the serialized
//! writer queues each 16 KiB group behind the previous flush, so Fig. 9's
//! NVMe cap is one group per device round trip. Do not merge the two
//! without a model proposal;
//! `tests/runner_schedule.rs` pins both schedules.

use crate::backend::LogBackend;
use crate::log::LogRecord;
use crate::storage::{Database, TxnError};
use crate::wal::{FlushReport, Lsn, WalManager};
use simkit::stats::percentile_once;
use simkit::{DetRng, Instrument, SampleSeries, SimDuration, SimTime};
use std::ops::Range;

/// One transaction produced by the workload: its WAL records (already
/// applied to the database) or an abort.
pub type TxnOutcome = Result<Vec<LogRecord>, TxnError>;

/// A deterministic per-seed transaction stream with weighted kinds.
///
/// Implementations must be pure functions of `(db, rng, kind)`: every
/// stochastic choice draws from `rng`, so equal seeds replay bit-for-bit.
pub trait Workload {
    /// The transaction kind labels, aligned with the mix weights.
    fn kinds(&self) -> &'static [&'static str];

    /// The workload's standard mix weights (overridable per run through
    /// [`DriverConfig::mix`]). Same length as [`Workload::kinds`].
    fn default_mix(&self) -> &'static [u32];

    /// Execute one transaction of `kinds()[kind]` against `db`.
    /// `now_ns` is the transaction's simulated start instant, for
    /// workloads that stamp wall-clock-like fields into rows.
    fn execute(
        &mut self,
        db: &mut Database,
        rng: &mut DetRng,
        kind: usize,
        now_ns: u64,
    ) -> TxnOutcome;
}

/// A closure over `(db, rng)` is a workload of one kind, `txn`.
impl<F: FnMut(&mut Database, &mut DetRng) -> TxnOutcome> Workload for F {
    fn kinds(&self) -> &'static [&'static str] {
        &["txn"]
    }

    fn default_mix(&self) -> &'static [u32] {
        &[1]
    }

    fn execute(&mut self, db: &mut Database, rng: &mut DetRng, _: usize, _: u64) -> TxnOutcome {
        self(db, rng)
    }
}

/// Mean CPU time to execute one transaction: ERMIA-class engines do
/// ~37 ktxn/s/core on TPC-C ⇒ ~27 µs/txn (EXPERIMENTS.md calibration row
/// "Worker CPU", paper §6), jittered by `CPU_JITTER`.
const CPU_PER_TXN: SimDuration = SimDuration::from_micros_f64(27.0);

/// ±fractional jitter applied to each transaction's CPU time
/// (`CPU_PER_TXN`), drawn from the worker's RNG stream.
const CPU_JITTER: f64 = 0.2;

/// Workers stall when the log writer's completion horizon runs this far
/// ahead of the simulation clock: the log-buffer back-pressure, where a
/// full buffer parks workers until the device drains.
const MAX_LOG_DEFICIT: SimDuration = SimDuration::from_micros(500);

/// One run, declaratively.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Simulated worker cores (1–8 in the paper).
    pub workers: usize,
    /// Warm-up window: executed, logged, but excluded from every counter
    /// and percentile in the report.
    pub ramp_up: SimDuration,
    /// Measured window; the run lasts `ramp_up + measure`.
    pub measure: SimDuration,
    /// Workload RNG seed.
    pub seed: u64,
    /// Mix weights per kind; `None` uses the workload's default mix.
    pub mix: Option<Vec<u32>>,
    /// When set, bucket committed transactions by durability instant
    /// into windows of this width, offset from the end of the ramp (the
    /// per-simulated-second series).
    pub series_bucket: Option<SimDuration>,
    /// Maximum group commits the log writer may keep in flight at once.
    /// `1` (the default) is the serialized blocking path the paper's
    /// Fig. 9 measures; larger values pipeline groups through the
    /// backend's asynchronous append path.
    pub log_pipeline_depth: usize,
}

impl Default for DriverConfig {
    /// Four workers for 100 ms with no ramp and no series.
    fn default() -> Self {
        DriverConfig {
            workers: 4,
            ramp_up: SimDuration::ZERO,
            measure: SimDuration::from_millis(100),
            seed: 0xE121A,
            mix: None,
            series_bucket: None,
            log_pipeline_depth: 1,
        }
    }
}

/// The aggregate over the measured window.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Committed transactions.
    pub committed: u64,
    /// Aborted transactions: a structural error at commit (duplicate key,
    /// missing key, unknown table) or an application rollback.
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

impl Instrument for RunReport {
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

/// Measured-window statistics for one transaction kind.
#[derive(Debug, Default)]
pub struct KindReport {
    /// The kind's label (from [`Workload::kinds`]).
    pub label: &'static str,
    /// Its weight in the mix that ran.
    pub weight: u32,
    /// Committed transactions.
    pub committed: u64,
    /// Aborted transactions.
    pub aborted: u64,
    /// Mean commit-to-durable latency, µs (0 when nothing committed).
    pub mean_us: f64,
    /// Exact-sample p99 latency, µs.
    pub p99_us: f64,
}

/// One time-series bucket of the measured window.
#[derive(Debug, Default)]
pub struct TimeBucket {
    /// Transactions that became durable inside the bucket.
    pub committed: u64,
    /// Their mean latency, µs.
    pub mean_us: f64,
    /// Their exact-sample p99 latency, µs.
    pub p99_us: f64,
}

/// What one run measured.
///
/// Collecting the report into a [`simkit::MetricsRegistry`] emits the
/// `db.*` aggregates of its [`RunReport`] plus `db.ramp_excluded`, the
/// per-kind `db.mix.<kind>.*` and — when `series_bucket` was set — the
/// `db.series.*` time series.
#[derive(Debug)]
pub struct DriverReport {
    /// The aggregate measured-window report. Its latency series holds
    /// every measured sample once: grouped by kind when the workload has
    /// more than one, then by bucket when a series was asked for, and in
    /// recording order otherwise.
    pub run: RunReport,
    /// Per-kind breakdown, in [`Workload::kinds`] order.
    pub per_kind: Vec<KindReport>,
    /// Time-series buckets (empty unless `series_bucket` was set).
    pub series: Vec<TimeBucket>,
    /// The bucket width the series was collected at.
    pub series_bucket: Option<SimDuration>,
    /// Committed transactions excluded by the ramp window.
    pub ramp_excluded: u64,
}

impl DriverReport {
    /// Committed transactions per second of measured time.
    pub fn throughput_tps(&self) -> f64 {
        self.run.throughput_tps()
    }

    /// Mean commit-to-durable latency, µs.
    pub fn mean_latency_us(&self) -> f64 {
        self.run.mean_latency_us()
    }
}

impl Instrument for DriverReport {
    fn instrument(&self, out: &mut simkit::Scope<'_>) {
        self.run.instrument(out);
        let mut db = out.scope("db");
        db.counter("ramp_excluded", self.ramp_excluded);
        {
            let mut mix = db.scope("mix");
            for k in &self.per_kind {
                let mut s = mix.scope(k.label);
                s.counter("committed", k.committed);
                s.counter("aborted", k.aborted);
                s.gauge("mean_us", k.mean_us);
                s.gauge("p99_us", k.p99_us);
            }
        }
        if let Some(width) = self.series_bucket {
            let mut series = db.scope("series");
            series.counter("bucket_ns", width.as_nanos());
            for (i, b) in self.series.iter().enumerate() {
                // Zero-padded so the BTreeMap-sorted JSON keeps buckets
                // in time order.
                let mut s = series.scope(&format!("t{i:04}"));
                s.counter("committed", b.committed);
                s.gauge("mean_us", b.mean_us);
                s.gauge("p99_us", b.p99_us);
            }
        }
    }
}

/// Drive `cfg.workers` simulated cores over `workload` for `ramp_up +
/// measure` and report the measured window.
///
/// Each transaction draws, on its worker's RNG stream, its CPU jitter,
/// then its kind — one `rng.uniform(1, total)` through the cumulative mix
/// weights, only when the workload names more than one kind — and then
/// whatever [`Workload::execute`] draws. For the TPC-C percentages the
/// kind draw is the one `TpccWorkload::pick` makes.
pub fn run<B, W>(
    db: &mut Database,
    wal: &mut WalManager<B>,
    workload: &mut W,
    cfg: &DriverConfig,
) -> DriverReport
where
    B: LogBackend,
    W: Workload + ?Sized,
{
    observe(db, wal, workload, cfg).finish()
}

/// The worker loop: [`run`] before the per-kind and per-bucket latencies
/// are read off the aggregate.
fn observe<B, W>(
    db: &mut Database,
    wal: &mut WalManager<B>,
    workload: &mut W,
    cfg: &DriverConfig,
) -> Observer
where
    B: LogBackend,
    W: Workload + ?Sized,
{
    assert!(cfg.workers >= 1);
    assert!(cfg.log_pipeline_depth >= 1, "the log writer needs at least one slot");
    let labels = workload.kinds();
    let mix = cfg.mix.clone().unwrap_or_else(|| workload.default_mix().to_vec());
    assert_eq!(
        mix.len(),
        labels.len(),
        "mix weights must align with the workload's kinds ({labels:?})"
    );
    let cum: Vec<u64> = mix
        .iter()
        .scan(0u64, |acc, &w| {
            *acc += w as u64;
            Some(*acc)
        })
        .collect();
    let total = cum.last().copied().unwrap_or(0);
    assert!(total > 0, "mix weights must not all be zero");
    let per_kind = labels
        .iter()
        .zip(&mix)
        .map(|(&label, &weight)| KindReport { label, weight, ..KindReport::default() })
        .collect();
    let mut observer = Observer::new(per_kind, cfg.ramp_up, cfg.series_bucket);

    let depth = cfg.log_pipeline_depth;
    let mut rng = DetRng::new(cfg.seed);
    let mut worker_rngs: Vec<DetRng> = (0..cfg.workers).map(|i| rng.fork(i as u64)).collect();
    let mut available: Vec<SimTime> = vec![SimTime::ZERO; cfg.workers];
    // Transactions whose batch is not yet durable: (start, lsn, kind), in
    // LSN order.
    let mut waiting: Vec<(SimTime, Lsn, usize)> = Vec::new();
    let mut reports: Vec<FlushReport> = Vec::new();
    let mut max_inflight = 0usize;
    let end = SimTime::ZERO + cfg.ramp_up + cfg.measure;
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
        // Execute one transaction: jitter draw, kind draw, then the
        // workload's own draws, all on the worker's RNG stream.
        let rng = &mut worker_rngs[w];
        let jitter = 1.0 + CPU_JITTER * (rng.unit() * 2.0 - 1.0);
        let cpu = SimDuration::from_nanos((CPU_PER_TXN.as_nanos() as f64 * jitter).round() as u64);
        let t1 = t0 + cpu;
        horizon = horizon.max(t1);
        let kind = if cum.len() > 1 {
            let p = rng.uniform(1, total);
            cum.partition_point(|&c| c < p)
        } else {
            0
        };
        let outcome = workload.execute(db, rng, kind, t0.as_nanos());
        available[w] = t1;
        match outcome {
            Ok(records) => {
                observer.on_commit(t0, kind);
                let lsn = wal.append_records(t1, &records);
                debug_assert!(
                    waiting.last().is_none_or(|&(_, last, _)| last <= lsn),
                    "waiting transactions are held in LSN order"
                );
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
                if wal.log_writer_free() > t1 + MAX_LOG_DEFICIT {
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

    let run = &mut observer.report.run;
    run.elapsed = horizon.saturating_since(observer.ramp_start);
    run.log_bytes = wal.backend().bytes_written();
    run.flushes = wal.flushes();
    // The serialized writer never overlaps groups: one in flight once it
    // has flushed anything.
    run.max_log_inflight = (max_inflight as u64).max(wal.flushes().min(1));
    observer
}

/// Slots in one kind-owned block of the observer's sample buffer.
const BLOCK: usize = 1024;

/// Measured-window accounting: the [`DriverReport`] under construction.
/// Each measured latency is stored once, in a block of slots owned by its
/// kind, with its bucket tag beside it; per kind and per bucket only a
/// count and a running sum are kept until [`Observer::finish`] reads each
/// group's mean and p99 and hands the samples to the report's series.
struct Observer {
    ramp_start: SimTime,
    report: DriverReport,
    /// Every measured latency, µs, in blocks of [`BLOCK`] slots that each
    /// belong to one kind. A kind fills its blocks in recording order; the
    /// slots after its last sample are holes.
    samples: Vec<f64>,
    /// The kind that owns each block of `samples`.
    owners: Vec<usize>,
    /// Each kind's next free slot in `samples`; a multiple of [`BLOCK`]
    /// when it has no room (no block yet, or its last block is full).
    next: Vec<usize>,
    /// All measured latencies summed in recording order, µs.
    sum: f64,
    /// Each kind's latencies summed in recording order, µs.
    kind_sums: Vec<f64>,
    /// Each bucket's latencies summed in recording order, µs.
    bucket_sums: Vec<f64>,
    /// The time-series bucket of each slot of `samples` (empty when the
    /// run has no series). A hole's tag is never read.
    buckets: Vec<u32>,
    /// The per-kind and per-bucket series the blocks and tags replaced.
    #[cfg(test)]
    reference: Reference,
}

impl Observer {
    fn new(
        per_kind: Vec<KindReport>,
        ramp_up: SimDuration,
        series_bucket: Option<SimDuration>,
    ) -> Self {
        let kinds = per_kind.len();
        Observer {
            ramp_start: SimTime::ZERO + ramp_up,
            report: DriverReport {
                run: RunReport::default(),
                per_kind,
                series: Vec::new(),
                series_bucket,
                ramp_excluded: 0,
            },
            samples: Vec::new(),
            owners: Vec::new(),
            next: vec![0; kinds],
            sum: 0.0,
            kind_sums: vec![0.0; kinds],
            bucket_sums: Vec::new(),
            buckets: Vec::new(),
            #[cfg(test)]
            reference: Reference {
                kinds: (0..kinds).map(|_| SampleSeries::new()).collect(),
                buckets: Vec::new(),
            },
        }
    }

    fn on_commit(&mut self, start: SimTime, kind: usize) {
        if start >= self.ramp_start {
            self.report.run.committed += 1;
            self.report.per_kind[kind].committed += 1;
        } else {
            self.report.ramp_excluded += 1;
        }
    }

    fn on_abort(&mut self, start: SimTime, kind: usize) {
        if start >= self.ramp_start {
            self.report.run.aborted += 1;
            self.report.per_kind[kind].aborted += 1;
        }
    }

    fn on_durable(&mut self, start: SimTime, kind: usize, at: SimTime) {
        if start < self.ramp_start {
            return;
        }
        let us = at.saturating_since(start).as_micros_f64();
        let mut slot = self.next[kind];
        if slot.is_multiple_of(BLOCK) {
            slot = self.samples.len();
            self.samples.resize(slot + BLOCK, 0.0);
            self.owners.push(kind);
        }
        self.next[kind] = slot + 1;
        self.samples[slot] = us;
        self.sum += us;
        self.kind_sums[kind] += us;
        #[cfg(test)]
        self.reference.kinds[kind].record(us);
        if let Some(width) = self.report.series_bucket {
            let report = &mut self.report;
            let idx = at.saturating_since(self.ramp_start).as_nanos() / width.as_nanos();
            self.buckets.resize(self.samples.len(), 0);
            self.buckets[slot] = u32::try_from(idx).expect("a bucket tag is four bytes");
            let idx = idx as usize;
            if report.series.len() <= idx {
                report.series.resize_with(idx + 1, TimeBucket::default);
                self.bucket_sums.resize(idx + 1, 0.0);
            }
            report.series[idx].committed += 1;
            self.bucket_sums[idx] += us;
            #[cfg(test)]
            self.reference.bucket(idx).record(us);
        }
    }

    /// How many slots of block `b` hold a sample while the blocks are in
    /// recording order: all of them but in its kind's unfilled last block.
    fn filled(&self, b: usize) -> usize {
        let next = self.next[self.owners[b]];
        let fill = next % BLOCK;
        if fill != 0 && next / BLOCK == b {
            fill
        } else {
            BLOCK
        }
    }

    /// Read each kind's and each bucket's mean and p99 off the samples —
    /// what a series of the group's own samples gives for
    /// [`SampleSeries::mean`] and [`SampleSeries::percentile`], bit for bit
    /// — and hand them to the report's series, in place: the blocks are
    /// grouped by kind, the holes squeezed out, and then the samples are
    /// grouped by bucket.
    fn finish(mut self) -> DriverReport {
        // Group the blocks by kind, each kind's unfilled block after its
        // full ones, so that dropping the holes leaves the kind contiguous.
        let mut keys: Vec<usize> = (0..self.owners.len())
            .map(|b| 2 * self.owners[b] + usize::from(self.filled(b) < BLOCK))
            .collect();
        let (samples, buckets) = (&mut self.samples, &mut self.buckets);
        let blocks = group_by(
            &mut keys,
            2 * self.next.len(),
            |k| k,
            |i, j| {
                swap_blocks(samples, i, j);
                swap_blocks(buckets, i, j);
            },
        );
        // Each kind's samples now run unbroken from its first block: move
        // them down over the holes of the kinds before it, then select its
        // p99 in place (later kinds lie beyond its range).
        let tagged = !buckets.is_empty();
        let keep_order = self.next.len() == 1 && !tagged;
        let report = &mut self.report;
        let mut len = 0;
        for (kind, k) in report.per_kind.iter_mut().enumerate() {
            let (full, unfilled) = (&blocks[2 * kind], &blocks[2 * kind + 1]);
            let from = full.start * BLOCK;
            let n = full.len() * BLOCK + unfilled.len() * (self.next[kind] % BLOCK);
            samples.copy_within(from..from + n, len);
            if tagged {
                buckets.copy_within(from..from + n, len);
            }
            let range = len..len + n;
            len += n;
            k.mean_us = mean(self.kind_sums[kind], n);
            k.p99_us = if keep_order {
                // One kind and no series: the samples stay in recording
                // order, and the p99 is read through a copy.
                percentile_once(&mut samples[range].to_vec(), 99.0, |_, _| {})
            } else {
                let at = range.start;
                percentile_once(&mut samples[range], 99.0, |i, j| {
                    if tagged {
                        buckets.swap(at + i, at + j);
                    }
                })
            };
        }
        samples.truncate(len);
        buckets.truncate(len);
        let ranges =
            group_by(buckets, report.series.len(), |b| b as usize, |i, j| samples.swap(i, j));
        for ((b, range), &sum) in report.series.iter_mut().zip(ranges).zip(&self.bucket_sums) {
            b.mean_us = mean(sum, range.len());
            b.p99_us = percentile_once(&mut samples[range], 99.0, |_, _| {});
        }
        report.run.latency_us = SampleSeries::from_recorded(std::mem::take(samples), self.sum);
        self.report
    }
}

/// `sum / n`, 0 when `n` is 0.
fn mean(sum: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Exchange blocks `i` and `j` of `v` (a no-op on an unused, empty `v`).
fn swap_blocks<T>(v: &mut [T], i: usize, j: usize) {
    if v.is_empty() {
        return;
    }
    let (lo, hi) = (i.min(j), i.max(j));
    let (head, tail) = v.split_at_mut(hi * BLOCK);
    head[lo * BLOCK..][..BLOCK].swap_with_slice(&mut tail[..BLOCK]);
}

/// Reorder `tags`, and whatever `swap` exchanges beside them, so that the
/// tags of each of `groups` groups (`group(tag)`) are contiguous and in
/// group order; return the groups' ranges. A counting sort in place: one
/// pass to count, then every tag not yet in its group's range is swapped
/// straight into it.
fn group_by<T: Copy>(
    tags: &mut [T],
    groups: usize,
    group: impl Fn(T) -> usize,
    mut swap: impl FnMut(usize, usize),
) -> Vec<Range<usize>> {
    let mut ranges = vec![0..0; groups];
    for &t in tags.iter() {
        ranges[group(t)].end += 1;
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
            let h = group(tags[i]);
            if h == g {
                next[g] += 1;
            } else {
                let j = next[h];
                tags.swap(i, j);
                swap(i, j);
                next[h] += 1;
            }
        }
    }
    ranges
}

/// Record latency samples for every waiting transaction the flushes in
/// `reports` covered, in the order the reports were produced, and empty it.
/// `waiting` is in LSN order, so what a report covers is its prefix.
fn resolve(
    reports: &mut Vec<FlushReport>,
    waiting: &mut Vec<(SimTime, Lsn, usize)>,
    observer: &mut Observer,
    horizon: &mut SimTime,
) {
    for report in reports.drain(..) {
        *horizon = (*horizon).max(report.at);
        let durable = waiting.partition_point(|&(_, lsn, _)| lsn <= report.durable_upto);
        for (start, _, kind) in waiting.drain(..durable) {
            observer.on_durable(start, kind, report.at);
        }
    }
}

/// Reference model for the tests: the per-kind and per-bucket recording the
/// blocks and tags replaced — every measured sample stored again in its
/// kind's series and in its bucket's.
#[cfg(test)]
#[derive(Debug, Default)]
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

    /// Each series' mean and p99, as the per-kind series used to give them.
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
    fn bump_workload(db: &mut Database, rng: &mut DetRng) -> TxnOutcome {
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

    fn run_pm(workers: usize, dur_ms: u64) -> RunReport {
        let mut db = Database::new();
        db.create_table("counters");
        let mut wal = WalManager::new(PmLog::new(PmConfig::default()), WalConfig::default());
        let cfg = DriverConfig {
            workers,
            measure: SimDuration::from_millis(dur_ms),
            ..DriverConfig::default()
        };
        run(&mut db, &mut wal, &mut bump_workload, &cfg).run
    }

    #[test]
    fn throughput_scales_with_workers() {
        let one = run_pm(1, 50);
        let four = run_pm(4, 50);
        assert!(one.committed > 100);
        let speedup = four.throughput_tps() / one.throughput_tps();
        assert!(speedup > 2.5, "4 workers only {speedup:.2}x over 1");
    }

    #[test]
    fn latency_drops_with_more_workers() {
        // The paper's Fig. 9 latency effect: more workers fill the 16 KiB
        // group sooner, so commit-to-durable latency falls.
        let one = run_pm(1, 50);
        let eight = run_pm(8, 50);
        assert!(
            eight.mean_latency_us() < one.mean_latency_us() * 0.6,
            "one={:.0}us eight={:.0}us",
            one.mean_latency_us(),
            eight.mean_latency_us()
        );
    }

    #[test]
    fn every_commit_gets_a_latency_sample() {
        let r = run_pm(3, 20);
        assert_eq!(r.committed as usize, r.latency_us.len());
        assert!(r.flushes > 0);
        assert!(r.log_bytes > 0);
    }

    #[test]
    fn no_log_runs_are_cpu_bound() {
        let mut db = Database::new();
        db.create_table("counters");
        let mut wal = WalManager::new(NoLog::new(), WalConfig::default());
        let cfg = DriverConfig {
            workers: 2,
            measure: SimDuration::from_millis(50),
            ..DriverConfig::default()
        };
        let r = run(&mut db, &mut wal, &mut bump_workload, &cfg).run;
        // 2 workers * 50ms / 27us ~ 3700 txns, modulo jitter.
        let expected = 2.0 * 0.05 / 27e-6;
        let ratio = r.committed as f64 / expected;
        assert!((0.85..1.15).contains(&ratio), "committed {} vs expected {expected}", r.committed);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_pm(4, 20);
        let b = run_pm(4, 20);
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.latency_us.samples(), b.latency_us.samples());
    }

    fn run_deep_pm(depth: usize) -> RunReport {
        let mut db = Database::new();
        db.create_table("counters");
        // A long fence makes each group's durability lag its hand-off, so
        // groups genuinely overlap on the device.
        let pm = PmConfig { fence: SimDuration::from_micros(200) };
        let mut wal = WalManager::new(
            PmLog::new(pm),
            WalConfig { group_threshold: 2 << 10, ..WalConfig::default() },
        );
        let cfg = DriverConfig {
            workers: 8,
            measure: SimDuration::from_millis(50),
            log_pipeline_depth: depth,
            ..DriverConfig::default()
        };
        run(&mut db, &mut wal, &mut bump_workload, &cfg).run
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
        let r = run_pm(2, 20);
        assert_eq!(r.max_log_inflight, 1);
    }

    /// Finish `observer` and hold each kind's and each bucket's mean and p99
    /// to the reference series, bit for bit; the aggregate keeps every
    /// sample of the blocks once, holes excluded, in recording order when
    /// nothing groups it.
    fn assert_matches_reference(mut observer: Observer, what: &str) -> DriverReport {
        let mut reference = std::mem::take(&mut observer.reference);
        let mut recorded: Vec<u64> = (0..observer.owners.len())
            .flat_map(|b| &observer.samples[b * BLOCK..][..observer.filled(b)])
            .map(|x| x.to_bits())
            .collect();
        let report = observer.finish();
        fn bits(v: impl IntoIterator<Item = (f64, f64)>) -> Vec<(u64, u64)> {
            v.into_iter().map(|(m, p)| (m.to_bits(), p.to_bits())).collect()
        }
        assert_eq!(
            bits(report.per_kind.iter().map(|k| (k.mean_us, k.p99_us))),
            bits(Reference::latency(&mut reference.kinds)),
            "{what}: kinds"
        );
        assert_eq!(
            bits(report.series.iter().map(|b| (b.mean_us, b.p99_us))),
            bits(Reference::latency(&mut reference.buckets)),
            "{what}: buckets"
        );
        let mut grouped: Vec<u64> =
            report.run.latency_us.samples().iter().map(|x| x.to_bits()).collect();
        if report.per_kind.len() == 1 && report.series_bucket.is_none() {
            assert_eq!(grouped, recorded, "{what}: one kind and no series reordered the samples");
        }
        recorded.sort_unstable();
        grouped.sort_unstable();
        assert_eq!(grouped, recorded, "{what}: the grouping lost or invented a sample");
        report
    }

    /// The seeded property behind the one-copy recording: over random kind
    /// and bucket patterns — one kind, empty kinds, a single-sample kind,
    /// empty buckets, durability instants out of order, heavy ties — the
    /// per-kind and per-bucket mean and p99 read off the tagged aggregate
    /// equal the per-kind and per-bucket series'.
    #[test]
    fn kind_and_bucket_latency_equal_the_reference_series_bit_for_bit() {
        let mut rng = DetRng::new(0x0B5E_77ED);
        for case in 0..240 {
            let kinds = [1usize, 2, 5, 256][case % 4];
            let series_bucket = (case % 3 != 0)
                .then(|| SimDuration::from_nanos(rng.uniform(1, 20) * 1_000 + rng.uniform(0, 999)));
            let ramp_up = SimDuration::from_micros(rng.uniform(0, 20));
            let per_kind = (0..kinds).map(|_| KindReport::default()).collect();
            let mut observer = Observer::new(per_kind, ramp_up, series_bucket);
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
            assert_matches_reference(observer, &format!("case {case}"));
        }
    }

    /// The block layout's edges: a kind that fills its blocks exactly, a
    /// kind with no sample, and 256 kinds that each leave most of their one
    /// block a hole — with and without a series.
    #[test]
    fn block_edges_match_the_reference_series() {
        let cases: [(&str, usize, &[usize]); 3] = [
            ("exact blocks", 2, &[2 * BLOCK, 5]),
            ("an empty kind", 3, &[700, 0, 1_500]),
            ("256 kinds", 256, &[3; 256]),
        ];
        let mut rng = DetRng::new(0xB10C);
        for (what, kinds, counts) in cases {
            for series_bucket in [None, Some(SimDuration::from_micros(7))] {
                let per_kind = (0..kinds).map(|_| KindReport::default()).collect();
                let mut observer = Observer::new(per_kind, SimDuration::ZERO, series_bucket);
                let mut left = counts.to_vec();
                // Kinds interleave: each step records one sample of a random
                // kind that still has some to record.
                while left.iter().any(|&n| n > 0) {
                    let kind = loop {
                        let k = rng.uniform(0, kinds as u64 - 1) as usize;
                        if left[k] > 0 {
                            break k;
                        }
                    };
                    left[kind] -= 1;
                    let start = SimTime::from_nanos(rng.uniform(0, 100_000));
                    let at = start + SimDuration::from_nanos(rng.uniform(1, 1 << 20));
                    observer.on_commit(start, kind);
                    observer.on_durable(start, kind, at);
                }
                let report = assert_matches_reference(observer, what);
                let committed: Vec<u64> = report.per_kind.iter().map(|k| k.committed).collect();
                assert_eq!(committed, counts.iter().map(|&n| n as u64).collect::<Vec<_>>());
                assert_eq!(report.run.latency_us.len(), counts.iter().sum::<usize>(), "{what}");
            }
        }
    }

    /// Three kinds, the third weighted out of the mix.
    struct ThreeKinds;

    impl Workload for ThreeKinds {
        fn kinds(&self) -> &'static [&'static str] {
            &["a", "b", "c"]
        }

        fn default_mix(&self) -> &'static [u32] {
            &[1, 1, 0]
        }

        fn execute(&mut self, db: &mut Database, rng: &mut DetRng, _: usize, _: u64) -> TxnOutcome {
            bump_workload(db, rng)
        }
    }

    /// The same on real runs: three kinds and 2 ms buckets over the
    /// blocking and the pipelined writer.
    #[test]
    fn observed_runs_match_the_reference_series() {
        for depth in [1, 4] {
            let mut db = Database::new();
            db.create_table("counters");
            let mut wal = WalManager::new(
                PmLog::new(PmConfig { fence: SimDuration::from_micros(200) }),
                WalConfig { group_threshold: 2 << 10, ..WalConfig::default() },
            );
            let cfg = DriverConfig {
                workers: 4,
                ramp_up: SimDuration::from_millis(5),
                measure: SimDuration::from_millis(25),
                series_bucket: Some(SimDuration::from_millis(2)),
                log_pipeline_depth: depth,
                ..DriverConfig::default()
            };
            let observer = observe(&mut db, &mut wal, &mut ThreeKinds, &cfg);
            let report = assert_matches_reference(observer, &format!("depth {depth}"));
            assert!(report.run.committed > 1_000 && report.series.len() >= 12);
            assert_eq!(report.per_kind[2].committed, 0, "kind 2 is weighted out");
        }
    }
}
