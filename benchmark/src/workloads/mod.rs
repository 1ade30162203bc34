//! The four workloads. Each builds its slice of the stack from a seed,
//! ramps up, opens the measured window, drives the stack through public
//! functions only, and returns what it saw on both clocks.
//!
//! Why these four is recorded next to each (`WORKLOADS[..].why`) and in
//! `benchmark/README.md`: two database workloads that use `memdb`
//! differently (blocking vs pipelined log path, cache-missing vs
//! cache-resident tables, fast side vs block path) and two device workloads
//! with no database at all (replication transport vs flash scheduling).

mod db;
pub mod destage_mixed;
pub mod log_replicated;
pub mod tpcc_local;
pub mod ycsb_nvme;

use crate::host::WindowStats;
use crate::json::Json;
use crate::stats;
use simkit::{MetricValue, SimDuration, SimTime, Snapshot};

/// One workload's name, rationale and entry point.
#[derive(Debug)]
pub struct WorkloadDef {
    /// The `--workload` value.
    pub name: &'static str,
    /// One line: why it is in the benchmark.
    pub why: &'static str,
    /// Run it once in this process.
    pub run: fn(u64, Scale) -> Outcome,
}

/// The benchmark's workloads, in reporting order.
pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "tpcc_local",
        why: "Fig. 9 headline cell: TPC-C (tables exceed cache) on one Villars-SRAM device, blocking log path; tpcc + memdb::storage dominate host time",
        run: tpcc_local::run,
    },
    WorkloadDef {
        name: "ycsb_nvme",
        why: "same memdb layer used differently: cache-resident YCSB-A, pipelined log path, NVMe block backend; core and tpcc bypassed",
        run: ycsb_nvme::run,
    },
    WorkloadDef {
        name: "log_replicated",
        why: "no database: x_pwrite+x_fsync on a primary with two eager secondaries over NTB, mixed sizes; core transport/cmb/destage and pcie::ntb do all the work",
        run: log_replicated::run,
    },
    WorkloadDef {
        name: "destage_mixed",
        why: "no database: open-loop fast-side stream beside conventional reads and writes on one device (Fig. 12); ssd, flash::scheduler, nvme and simkit events do the work",
        run: destage_mixed::run,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Full horizons, or the 1/50 horizons of `--quick` (a smoke run of every
/// code path; its numbers are not comparable with a full run's).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The horizons documented per workload.
    Full,
    /// 1/50 of them.
    Quick,
}

impl Scale {
    /// Scale a simulated duration.
    pub fn duration(self, full: SimDuration) -> SimDuration {
        match self {
            Scale::Full => full,
            Scale::Quick => full / 50,
        }
    }

    /// Scale an operation count.
    pub fn count(self, full: u64) -> u64 {
        match self {
            Scale::Full => full,
            Scale::Quick => full / 50,
        }
    }
}

/// One always-on correctness check.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// Stable identifier.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The two sides that were compared.
    pub detail: String,
}

impl Check {
    /// `left == right`, with both sides in the detail.
    pub fn eq<T: PartialEq + std::fmt::Debug>(name: impl Into<String>, left: T, right: T) -> Check {
        Check { name: name.into(), ok: left == right, detail: format!("{left:?} vs {right:?}") }
    }

    /// `left == right` where both sides must exist: a registry path the
    /// snapshot does not have (see [`counter`]) fails the check instead of
    /// comparing as a silent 0.
    pub fn present_eq<T: PartialEq + std::fmt::Debug>(
        name: impl Into<String>,
        left: Option<T>,
        right: Option<T>,
    ) -> Check {
        Check {
            name: name.into(),
            ok: left.is_some() && left == right,
            detail: format!("{left:?} vs {right:?}"),
        }
    }

    /// `left` within `tolerance` (a share of `right`) of `right`.
    pub fn within(name: impl Into<String>, left: f64, right: f64, tolerance: f64) -> Check {
        Check {
            name: name.into(),
            ok: (left - right).abs() <= tolerance * right.abs(),
            detail: format!("{left} vs {right} (within {} %)", tolerance * 100.0),
        }
    }

    /// The check as it appears in result documents.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("name", Json::str(self.name.clone())),
            ("ok", Json::Bool(self.ok)),
            ("detail", Json::str(self.detail.clone())),
        ])
    }
}

/// Counter `path` of `snapshot`; `None` when the registry has no counter
/// there, which `Snapshot::counter` would read as 0.
pub fn counter(snapshot: &Snapshot, path: &str) -> Option<u64> {
    match snapshot.get(path) {
        Some(MetricValue::Counter(value)) => Some(*value),
        _ => None,
    }
}

/// What one run of a workload measured.
#[derive(Debug)]
pub struct Outcome {
    /// Host clock: set-up and measured-window wall/CPU time.
    pub window: WindowStats,
    /// Operations completed in the measured window.
    pub ops: u64,
    /// Operations started in the measured window.
    pub attempted: u64,
    /// Of those: aborted, returned `Err`, or never acknowledged.
    pub failed: u64,
    /// Simulated length of the measured window.
    pub sim_elapsed: SimDuration,
    /// The simulated instant the snapshot was taken at (device time since
    /// creation; the denominator of utilisations).
    pub sim_end: SimTime,
    /// Simulated per-op latency over the measured window.
    pub latency: LatencySummary,
    /// Bytes the user asked to be written (log, plus conventional writes).
    pub user_bytes: u64,
    /// Flash page size of the device under test.
    pub page_bytes: u64,
    /// Flash dies of the device under test.
    pub dies: u64,
    /// Registry prefix of the device under test (`""`, or `"dev0."` in a
    /// multi-device cluster).
    pub device_prefix: &'static str,
    /// The full public telemetry snapshot, taken after the run drained.
    pub snapshot: Snapshot,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// Per-layer values only the workload can see (simulated time at its
    /// call boundaries, per-kind latencies).
    pub layer: Vec<(&'static str, f64)>,
    /// `Database::fingerprint()` after the run, for database workloads.
    pub fingerprint: Option<u64>,
}

/// The `nvme.port.*` per-layer values of a device's I/O port.
pub fn port_layer(port: &nvme::PortAccounting) -> Vec<(&'static str, f64)> {
    vec![
        ("nvme.port.submitted", port.submitted() as f64),
        ("nvme.port.completed", port.completed() as f64),
        ("nvme.port.max_inflight", port.max_in_flight() as f64),
        ("nvme.port.retries", port.retries() as f64),
    ]
}

/// Exact-sample latency statistics (not the power-of-two `Histogram`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Samples taken.
    pub samples: u64,
    /// Arithmetic mean, µs.
    pub mean_us: f64,
    /// Nearest-rank median, µs.
    pub p50_us: f64,
    /// Nearest-rank p99, µs.
    pub p99_us: f64,
    /// Nearest-rank p99.9, µs.
    pub p999_us: f64,
    /// FNV-1a over the bit patterns of the sorted samples: two runs with
    /// the same hash saw the same latency distribution, sample for sample.
    pub hash: u64,
}

impl LatencySummary {
    /// Summarise `sorted` (ascending, non-empty) whose mean is `mean_us`
    /// (taken by the caller in recording order, before sorting).
    pub fn of_sorted(sorted: &[f64], mean_us: f64) -> Self {
        let mut hash = FNV_OFFSET;
        for s in sorted {
            hash = fnv1a(hash, &s.to_bits().to_le_bytes());
        }
        LatencySummary {
            samples: sorted.len() as u64,
            mean_us,
            p50_us: stats::percentile_sorted(sorted, 50.0),
            p99_us: stats::percentile_sorted(sorted, 99.0),
            p999_us: stats::percentile_sorted(sorted, 99.9),
            hash,
        }
    }

    /// Summarise samples in recording order.
    pub fn of(samples: &[f64]) -> Self {
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        Self::of_sorted(&stats::sorted(samples), mean)
    }
}

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `data` into an FNV-1a 64-bit hash.
pub fn fnv1a(mut hash: u64, data: &[u8]) -> u64 {
    for b in data {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// The deterministic payload byte stream: the eight bytes at (8-aligned)
/// stream position `pos` are a function of `(seed, pos)` only, so any
/// window of a log or page can be re-derived and compared after the fact.
pub fn fill_pattern(seed: u64, pos: u64, out: &mut [u8]) {
    debug_assert!(
        pos.is_multiple_of(8) && out.len().is_multiple_of(8),
        "pattern is 8-byte granular"
    );
    for (i, word) in out.chunks_exact_mut(8).enumerate() {
        // splitmix64 finalizer over (seed, word index).
        let mut z = seed ^ (pos / 8 + i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        word.copy_from_slice(&(z ^ (z >> 31)).to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_is_position_addressable() {
        let mut whole = vec![0u8; 4096];
        fill_pattern(7, 0, &mut whole);
        let mut part = vec![0u8; 512];
        fill_pattern(7, 1024, &mut part);
        assert_eq!(part, whole[1024..1536]);
        let mut other = vec![0u8; 512];
        fill_pattern(8, 1024, &mut other);
        assert_ne!(part, other);
    }

    #[test]
    fn a_check_on_a_missing_counter_fails() {
        let mut reg = simkit::MetricsRegistry::new();
        reg.counter("ssd.ftl.gc_writes", 0);
        let snapshot = reg.snapshot();
        assert!(Check::present_eq("gc", counter(&snapshot, "ssd.ftl.gc_writes"), Some(0)).ok);
        assert!(!Check::present_eq("gc", counter(&snapshot, "ssd.ftl.gc_copies"), Some(0)).ok);
        // Two paths that are both gone do not compare as equal.
        let (a, b) = (counter(&snapshot, "x.submitted"), counter(&snapshot, "x.completed"));
        assert!(!Check::present_eq("port", a, b).ok);
        assert!(Check::within("near", 101.0, 100.0, 0.02).ok);
        assert!(!Check::within("far", 103.0, 100.0, 0.02).ok);
    }

    #[test]
    fn latency_summary_uses_exact_samples() {
        let samples: Vec<f64> = (1..=10_000).rev().map(f64::from).collect();
        let l = LatencySummary::of(&samples);
        assert_eq!((l.samples, l.p50_us, l.p99_us, l.p999_us), (10_000, 5000.0, 9900.0, 9990.0));
        assert_eq!(l.mean_us, 5000.5);
        let mut other = samples.clone();
        other[0] = 10_000.5;
        assert_ne!(LatencySummary::of(&other).hash, l.hash);
        assert_eq!(LatencySummary::of(&samples).hash, l.hash);
    }

    #[test]
    fn names_are_unique_and_whys_fit_one_line() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(find(w.name).is_some());
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn quick_scale_is_a_fiftieth() {
        assert_eq!(
            Scale::Quick.duration(SimDuration::from_millis(1000)),
            SimDuration::from_millis(20)
        );
        assert_eq!(Scale::Quick.count(120_000), 2400);
        assert_eq!(Scale::Full.count(120_000), 120_000);
    }
}
