//! The declarative benchmark driver: one config-driven engine behind
//! every workload harness.
//!
//! A [`Workload`] names its transaction kinds and executes one
//! transaction of a given kind; the driver owns everything else — the
//! weighted kind pick, the pinned-worker schedule (via
//! [`memdb::run_observed`]), the ramp-up window excluded from statistics,
//! and the per-kind / time-series accounting that lands in the
//! [`DriverReport`]. A harness cell shrinks to a [`DriverConfig`]
//! literal plus a mapper from the report to its table row.
//!
//! Determinism contract: for a zero ramp and a workload whose mix totals
//! 100, the driver's weighted pick draws `rng.uniform(1, total)` — the
//! exact draw `TpccWorkload::pick` made — so a harness on the driver
//! reproduces every `rows` entry and every telemetry value of its
//! `results/*.json` golden (`crates/bench/tests/driver.rs` pins the draw;
//! `scripts/check_results.sh` gates rows exactly and telemetry additively).

use memdb::{
    run_observed, Database, LogBackend, ObserveConfig, RunReport, RunnerConfig, TxnOutcome,
    WalConfig, WalManager,
};
use simkit::{DetRng, Instrument, MetricsRegistry, SimDuration, Snapshot};
use ssd::{ConventionalSsd, SsdConfig};
use xssd_core::{Cluster, VillarsConfig};

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

/// The TPC-C mix as driver kinds: the index order matches
/// [`tpcc::TxnKind`] and the weights are the spec percentages
/// `TpccWorkload::pick` encodes, so the driver's pick reproduces the
/// same `uniform(1, 100)` → kind mapping draw-for-draw.
impl Workload for tpcc::TpccWorkload {
    fn kinds(&self) -> &'static [&'static str] {
        &["new_order", "payment", "order_status", "delivery", "stock_level"]
    }

    fn default_mix(&self) -> &'static [u32] {
        &[45, 43, 4, 4, 4]
    }

    fn execute(
        &mut self,
        db: &mut Database,
        rng: &mut DetRng,
        kind: usize,
        now_ns: u64,
    ) -> TxnOutcome {
        match kind {
            0 => self.new_order(db, rng, now_ns),
            1 => self.payment(db, rng, now_ns),
            2 => self.order_status(db, rng),
            3 => self.delivery(db, rng, now_ns),
            4 => self.stock_level(db, rng),
            _ => unreachable!("tpcc kind {kind} out of range"),
        }
    }
}

/// One driver run, declaratively.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Simulated worker cores.
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
    /// into windows of this width (the per-simulated-second series).
    pub series_bucket: Option<SimDuration>,
    /// Mean CPU time per transaction (see [`RunnerConfig::cpu_per_txn`]).
    pub cpu_per_txn: SimDuration,
    /// ±fractional CPU jitter per transaction.
    pub cpu_jitter: f64,
    /// Log-buffer back-pressure horizon (see
    /// [`RunnerConfig::max_log_deficit`]).
    pub max_log_deficit: SimDuration,
    /// Maximum group commits in flight (1 = the blocking log writer).
    pub log_pipeline_depth: usize,
}

impl Default for DriverConfig {
    /// Mirrors [`RunnerConfig::default`] with a zero ramp and no series,
    /// so a driver run with the defaults is the classic closed loop.
    fn default() -> Self {
        let runner = RunnerConfig::default();
        DriverConfig {
            workers: runner.workers,
            ramp_up: SimDuration::ZERO,
            measure: runner.duration,
            seed: runner.seed,
            mix: None,
            series_bucket: None,
            cpu_per_txn: runner.cpu_per_txn,
            cpu_jitter: runner.cpu_jitter,
            max_log_deficit: runner.max_log_deficit,
            log_pipeline_depth: runner.log_pipeline_depth,
        }
    }
}

/// Measured-window statistics for one transaction kind.
#[derive(Debug)]
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
#[derive(Debug)]
pub struct TimeBucket {
    /// Transactions that became durable inside the bucket.
    pub committed: u64,
    /// Their mean latency, µs.
    pub mean_us: f64,
    /// Their exact-sample p99 latency, µs.
    pub p99_us: f64,
}

/// What one driver run measured.
///
/// Collecting the report into a [`simkit::MetricsRegistry`] emits the
/// `db.*` aggregates of its [`RunReport`] plus `db.ramp_excluded`, the
/// per-kind `db.mix.<kind>.*` and — when `series_bucket` was set — the
/// `db.series.*` time series.
#[derive(Debug)]
pub struct DriverReport {
    /// The aggregate measured-window report.
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

/// Drive `workload` through `wal` under `cfg`. The schedule is the exact
/// [`memdb::run_workload`] closed loop (same worker timeline, same RNG
/// stream); the config only adds what gets *measured*.
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
    let labels = workload.kinds();
    let mix: Vec<u32> = match &cfg.mix {
        Some(m) => m.clone(),
        None => workload.default_mix().to_vec(),
    };
    assert_eq!(
        mix.len(),
        labels.len(),
        "mix weights must align with the workload's kinds ({labels:?})"
    );
    let total: u64 = mix.iter().map(|&w| w as u64).sum();
    assert!(total > 0, "mix weights must not all be zero");
    let cum: Vec<u64> = mix
        .iter()
        .scan(0u64, |acc, &w| {
            *acc += w as u64;
            Some(*acc)
        })
        .collect();

    let runner = RunnerConfig {
        workers: cfg.workers,
        cpu_per_txn: cfg.cpu_per_txn,
        cpu_jitter: cfg.cpu_jitter,
        duration: cfg.ramp_up + cfg.measure,
        max_log_deficit: cfg.max_log_deficit,
        seed: cfg.seed,
        log_pipeline_depth: cfg.log_pipeline_depth,
    };
    let obs = ObserveConfig {
        kinds: labels.len(),
        ramp_up: cfg.ramp_up,
        series_bucket: cfg.series_bucket,
    };
    let mut observed = run_observed(db, wal, runner, obs, |db, rng, _w, t0| {
        // One debiased draw in [1, total], mapped through the cumulative
        // weights: for the TPC-C percentages this is bit-identical to the
        // workload's own `pick`.
        let p = rng.uniform(1, total);
        let kind = cum.iter().position(|&c| p <= c).expect("draw exceeds total weight");
        (kind, workload.execute(db, rng, kind, t0.as_nanos()))
    });

    let per_kind = observed
        .kind_latency()
        .into_iter()
        .zip(&observed.per_kind)
        .zip(labels.iter().zip(mix.iter()))
        .map(|(((mean_us, p99_us), k), (&label, &weight))| KindReport {
            label,
            weight,
            committed: k.committed,
            aborted: k.aborted,
            mean_us,
            p99_us,
        })
        .collect();
    let series = observed
        .bucket_latency()
        .into_iter()
        .zip(&observed.series)
        .map(|((mean_us, p99_us), b)| TimeBucket { committed: b.committed, mean_us, p99_us })
        .collect();
    DriverReport {
        run: observed.report,
        per_kind,
        series,
        series_bucket: cfg.series_bucket,
        ramp_excluded: observed.ramp_excluded,
    }
}

/// The conventional device the NVMe setups log to: the stock platform with
/// the log region in fast-page (SLC-cached) mode, as log-dedicated regions
/// commonly run.
pub fn log_ssd() -> ConventionalSsd {
    let mut cfg = SsdConfig::default();
    cfg.timing.t_prog = SimDuration::from_micros(200);
    ConventionalSsd::new(cfg)
}

/// A single Villars device (SRAM- or DRAM-backed CMB) with the paper's
/// 32 KiB flow-control queue.
pub fn villars_cluster(sram: bool) -> Cluster {
    let mut config =
        if sram { VillarsConfig::villars_sram() } else { VillarsConfig::villars_dram() };
    config.cmb.intake_queue_bytes = 32 << 10;
    let mut cl = Cluster::new();
    cl.add_device(config);
    cl
}

/// One database cell: drive `workload` through a WAL over `backend` and
/// collect the full cross-stack snapshot — the run's `db.*` metrics, the WAL
/// counters, the backend's device stack (PCIe / SSD / flash / core groups
/// where it has one) and the workload's own counters.
pub fn run_cell<B, W>(
    db: &mut Database,
    workload: &mut W,
    backend: B,
    wal: WalConfig,
    cfg: &DriverConfig,
) -> Snapshot
where
    B: LogBackend + Instrument,
    W: Workload + Instrument,
{
    let mut wal = WalManager::new(backend, wal);
    let report = run(db, &mut wal, workload, cfg);
    let mut reg = MetricsRegistry::new();
    reg.collect("", &report);
    reg.collect("", &wal);
    reg.collect("", &*workload);
    reg.snapshot()
}
