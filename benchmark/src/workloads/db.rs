//! What the two database workloads share: one `bench::driver::run` call
//! bracketed by the root span, with the workload and the log backend
//! wrapped so both layer boundaries are visible from outside.

use crate::host::WindowStats;
use crate::span::{self, SpanName};
use crate::workloads::{Check, LatencySummary};
use crate::wrap::{BackendSim, Observed, Spanned};
use memdb::{Database, LogBackend, WalManager};
use simkit::SimTime;
use xssd_bench::driver::{self, DriverConfig, DriverReport, Workload};

/// One driver run as seen from outside.
pub struct DbRun {
    /// Host clock.
    pub window: WindowStats,
    /// The driver's own report (simulated clock).
    pub report: DriverReport,
    /// Transactions the driver started at or after the ramp-up.
    pub attempted: u64,
    /// Simulated time at the backend boundary (traced runs).
    pub backend: BackendSim,
    /// Exact latency statistics of the measured window.
    pub latency: LatencySummary,
    /// Simulated instant the run ended at.
    pub sim_end: SimTime,
}

/// Run `workload` through `wal` under `cfg`, measured window = everything
/// from the first post-ramp transaction to the driver's return (tail drain
/// included).
pub fn drive<B: LogBackend, W: Workload>(
    db: &mut Database,
    wal: &mut WalManager<Spanned<B>>,
    workload: &mut W,
    cfg: &DriverConfig,
) -> DbRun {
    let mut observed = Observed::new(workload, cfg.ramp_up);
    let mut report = span::scope(SpanName::Run, || driver::run(db, wal, &mut observed, cfg));
    let (window, attempted) = observed.finish();
    let window = window.close();
    let mean = report.mean_latency_us();
    // Any percentile query sorts the series in place (no copy of millions
    // of samples); `samples()` is ascending afterwards.
    report.run.latency_us.percentile(50.0);
    let latency = LatencySummary::of_sorted(report.run.latency_us.samples(), mean);
    let sim_end = SimTime::ZERO + cfg.ramp_up + report.run.elapsed;
    DbRun { window, report, attempted, backend: wal.backend().sim(), latency, sim_end }
}

impl DbRun {
    /// The checks every database workload makes on its own report.
    pub fn checks(&self) -> Vec<Check> {
        let r = &self.report.run;
        vec![
            Check::eq(
                "committed_plus_aborted_is_attempted",
                r.committed + r.aborted,
                self.attempted,
            ),
            Check::eq("every_commit_has_a_latency_sample", self.latency.samples, r.committed),
        ]
    }

    /// Per-layer values visible at the driver and backend boundaries.
    pub fn layer(
        &self,
        kind_prefix: &'static [(&'static str, &'static str)],
    ) -> Vec<(&'static str, f64)> {
        let mean = self.latency.mean_us;
        let mut out = vec![
            ("memdb.backend.sim_sync_us_mean", self.backend.sync_us_mean()),
            ("memdb.wal.group_bytes_mean", self.backend.group_bytes_mean()),
            // Commit latency not spent in the device: waiting for the
            // group to fill and for the log writer.
            ("memdb.commit_wait_sim_us_mean", (mean - self.backend.sync_us_mean()).max(0.0)),
        ];
        out.push(("memdb.log.max_inflight", self.report.run.max_log_inflight as f64));
        for k in &self.report.per_kind {
            if let Some((_, metric)) = kind_prefix.iter().find(|(label, _)| *label == k.label) {
                out.push((metric, k.mean_us));
            }
        }
        out
    }
}
