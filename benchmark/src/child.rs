//! One (workload, repetition) in a fresh process.
//!
//! The same cell runs up to 3× slower when it shares a process with earlier
//! cells (heap growth makes every later page fault and allocation dearer),
//! so the runner re-executes itself for every repetition and this module is
//! what the child does: run the workload once, measure it on both clocks,
//! and print one JSON line.

use crate::host;
use crate::json::{self, Json};
use crate::metrics::{self, LayerInput};
use crate::probes;
use crate::span::{self, SpanName};
use crate::workloads::{fnv1a, Check, Outcome, Scale, WorkloadDef, FNV_OFFSET};
use simkit::SimTime;
use std::path::Path;

/// What one child measured, as the runner reads it back.
#[derive(Debug, Clone, PartialEq)]
pub struct ChildResult {
    /// Workload name.
    pub workload: String,
    /// Whether spans were recorded.
    pub traced: bool,
    /// Host clock: process start → window open.
    pub setup_s: f64,
    /// Host clock: measured window.
    pub window_s: f64,
    /// Share of the window this thread was off-CPU (`None` without
    /// `/proc/self/schedstat`).
    pub off_cpu_share: Option<f64>,
    /// Host memory: `VmHWM`.
    pub peak_rss_mb: f64,
    /// Ops completed in the window.
    pub ops: u64,
    /// Ops started in the window.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// Latency samples behind the percentiles.
    pub samples: u64,
    /// The simulated end-to-end metrics, by catalogue name.
    pub sim: Vec<(String, f64)>,
    /// Digest of the snapshot, the simulated metrics and the latency
    /// distribution: equal digests mean bit-identical simulated results.
    pub digest: String,
    /// `Database::fingerprint()`, on database workloads.
    pub fingerprint: Option<String>,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// The registry snapshot, `path → value`.
    pub counters: Json,
    /// Per-layer metrics (traced children only).
    pub layers: Vec<(String, f64)>,
}

impl ChildResult {
    /// Ops per host second of the measured window.
    pub fn host_ops_per_s(&self) -> f64 {
        self.ops as f64 / self.window_s
    }

    /// One end-to-end metric by catalogue name.
    pub fn end_to_end(&self, name: &str) -> f64 {
        match name {
            "setup_s" => self.setup_s,
            "host_ops_per_s" => self.host_ops_per_s(),
            "peak_rss_mb" => self.peak_rss_mb,
            _ => self
                .sim
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("child result has no metric `{name}`")),
        }
    }

    /// The document a child prints.
    pub fn to_json(&self) -> Json {
        let pairs = |list: &[(String, f64)]| {
            Json::Object(list.iter().map(|(k, v)| (k.clone(), Json::F64(*v))).collect())
        };
        Json::object([
            ("schema", Json::str("xssd-benchmark-child/v1")),
            ("workload", Json::str(self.workload.clone())),
            ("traced", Json::Bool(self.traced)),
            ("setup_s", Json::F64(self.setup_s)),
            ("window_s", Json::F64(self.window_s)),
            ("off_cpu_share", self.off_cpu_share.map_or(Json::Null, Json::F64)),
            ("peak_rss_mb", Json::F64(self.peak_rss_mb)),
            ("ops", Json::U64(self.ops)),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            ("samples", Json::U64(self.samples)),
            ("sim", pairs(&self.sim)),
            ("digest", Json::str(self.digest.clone())),
            ("fingerprint", self.fingerprint.clone().map_or(Json::Null, Json::Str)),
            ("checks", Json::Array(self.checks.iter().map(Check::to_json).collect())),
            ("counters", self.counters.clone()),
            ("layers", pairs(&self.layers)),
        ])
    }

    /// Read a child's document back.
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        let f = |key: &str| {
            json::need(doc, key)
                .and_then(|v| json::as_f64(v).ok_or(format!("`{key}` not a number")))
        };
        let u = |key: &str| {
            json::need(doc, key)
                .and_then(|v| json::as_u64(v).ok_or(format!("`{key}` not a whole number")))
        };
        let pairs = |key: &str| -> Result<Vec<(String, f64)>, String> {
            json::fields(json::need(doc, key)?)
                .iter()
                .map(|(k, v)| {
                    json::as_f64(v)
                        .map(|v| (k.clone(), v))
                        .ok_or(format!("`{key}.{k}` not a number"))
                })
                .collect()
        };
        let text = |v: &Json, key: &str| {
            json::get(v, key)
                .and_then(json::as_str)
                .map(String::from)
                .ok_or(format!("`{key}` missing"))
        };
        let checks = json::items(json::need(doc, "checks")?)
            .iter()
            .map(|c| {
                Ok(Check {
                    name: text(c, "name")?,
                    ok: matches!(json::get(c, "ok"), Some(Json::Bool(true))),
                    detail: text(c, "detail")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(ChildResult {
            workload: text(doc, "workload")?,
            traced: matches!(json::get(doc, "traced"), Some(Json::Bool(true))),
            setup_s: f("setup_s")?,
            window_s: f("window_s")?,
            off_cpu_share: json::get(doc, "off_cpu_share").and_then(json::as_f64),
            peak_rss_mb: f("peak_rss_mb")?,
            ops: u("ops")?,
            attempted: u("attempted")?,
            failed: u("failed")?,
            samples: u("samples")?,
            sim: pairs("sim")?,
            digest: text(doc, "digest")?,
            fingerprint: json::get(doc, "fingerprint").and_then(json::as_str).map(String::from),
            checks,
            counters: json::need(doc, "counters")?.clone(),
            layers: pairs("layers")?,
        })
    }
}

/// The simulated end-to-end metrics of one run, in catalogue order.
fn sim_metrics(o: &Outcome) -> Vec<(String, f64)> {
    let flash_bytes =
        o.snapshot.counter(&format!("{}flash.array.programs", o.device_prefix)) * o.page_bytes;
    let values = [
        ("sim_ops_per_s", o.ops as f64 / o.sim_elapsed.as_secs_f64()),
        ("sim_lat_mean_us", o.latency.mean_us),
        ("sim_lat_p50_us", o.latency.p50_us),
        ("sim_lat_p99_us", o.latency.p99_us),
        ("sim_lat_p999_us", o.latency.p999_us),
        ("flash_bytes_per_user_byte", flash_bytes as f64 / o.user_bytes as f64),
    ];
    values.iter().map(|(n, v)| (String::from(*n), *v)).collect()
}

/// Everything simulated, folded into one number.
fn digest(o: &Outcome, sim: &[(String, f64)]) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, o.snapshot.metrics_json().to_string().as_bytes());
    for (name, value) in sim {
        h = fnv1a(h, name.as_bytes());
        h = fnv1a(h, &value.to_bits().to_le_bytes());
    }
    for v in [o.ops, o.attempted, o.failed, o.latency.samples, o.latency.hash] {
        h = fnv1a(h, &v.to_le_bytes());
    }
    h
}

/// Run `workload` once in this process and return what it measured.
/// `trace_dir` turns tracing on and receives `trace-<workload>.json`.
pub fn run(
    workload: &WorkloadDef,
    seed: u64,
    scale: Scale,
    trace_dir: Option<&Path>,
) -> Result<ChildResult, String> {
    if trace_dir.is_some() {
        span::install(seed);
    }
    let outcome = (workload.run)(seed, scale);
    let tracer = span::take();
    // Read before probes and the trace file inflate it.
    let peak_rss_mb = host::peak_rss_mb().unwrap_or(0.0);

    let sim = sim_metrics(&outcome);
    let mut checks = outcome.checks.clone();
    if scale == Scale::Full {
        checks.push(Check {
            name: String::from("p999_has_ten_samples_beyond"),
            ok: crate::stats::percentile_supported(outcome.latency.samples as usize, 99.9),
            detail: format!("{} samples", outcome.latency.samples),
        });
    }

    let mut layers = Vec::new();
    if let (Some(tracer), Some(dir)) = (&tracer, trace_dir) {
        checks.push(Check::eq("every_span_closed", tracer.depth(), 0));
        // The span tree covers the measured window and nothing else, and
        // every name's self time is accounted to the root.
        let root = tracer.aggregate(SpanName::Run);
        let self_ns: u64 = SpanName::ALL.iter().map(|n| tracer.aggregate(*n).self_ns).sum();
        checks.push(Check::within(
            "root_span_is_the_measured_window",
            root.total_ns as f64 / 1e9,
            outcome.window.host_s,
            0.02,
        ));
        checks.push(Check::within(
            "self_times_account_for_the_root_span",
            self_ns as f64,
            root.total_ns as f64,
            0.02,
        ));
        let input = LayerInput {
            snapshot: &outcome.snapshot,
            device: outcome.device_prefix,
            sim_total_s: outcome.sim_end.saturating_since(SimTime::ZERO).as_secs_f64(),
            dies: outcome.dies,
            tracer,
            database: outcome.fingerprint.is_some(),
            missed: std::cell::Cell::new(0),
        };
        let probe_values = probes::run(workload.name, scale);
        layers = metrics::layer_values(&input, &outcome.layer, &probe_values)
            .into_iter()
            .map(|(n, v)| (String::from(n), v))
            .collect();
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{}.json", workload.name));
        let mut doc = tracer.chrome_trace(workload.name).to_string();
        doc.push('\n');
        std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    }

    Ok(ChildResult {
        workload: String::from(workload.name),
        traced: trace_dir.is_some(),
        setup_s: outcome.window.setup_s,
        window_s: outcome.window.host_s,
        off_cpu_share: outcome.window.off_cpu_share(),
        peak_rss_mb,
        ops: outcome.ops,
        attempted: outcome.attempted,
        failed: outcome.failed,
        samples: outcome.latency.samples,
        digest: format!("{:016x}", digest(&outcome, &sim)),
        sim,
        fingerprint: outcome.fingerprint.map(|f| format!("{f:016x}")),
        checks,
        counters: outcome.snapshot.metrics_json(),
        layers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ChildResult {
        ChildResult {
            workload: String::from("tpcc_local"),
            traced: true,
            setup_s: 0.2676,
            window_s: 5.577,
            off_cpu_share: Some(0.0125),
            peak_rss_mb: 244.37890625,
            ops: 147_440,
            attempted: 148_124,
            failed: 0,
            samples: 147_440,
            sim: vec![
                (String::from("sim_ops_per_s"), 147_440.0),
                (String::from("sim_lat_mean_us"), 81.83434672409084),
                (String::from("sim_lat_p50_us"), 70.5),
                (String::from("sim_lat_p99_us"), 160.25),
                (String::from("sim_lat_p999_us"), 190.0),
                (String::from("flash_bytes_per_user_byte"), 1.0000000000000002),
            ],
            digest: String::from("00ff00ff00ff00ff"),
            fingerprint: Some(String::from("0123456789abcdef")),
            checks: vec![Check::eq("a", 1, 1), Check::eq("b \"quoted\"", 1, 2)],
            counters: Json::object([
                ("db.commits", Json::U64(147_440)),
                ("ssd.ftl.write_amplification", Json::F64(1.0)),
                (
                    "db.commit_latency_us",
                    Json::object([("count", Json::U64(3)), ("mean_us", Json::F64(81.5))]),
                ),
            ]),
            layers: vec![(String::from("bench.run.host_s"), 5.577)],
        }
    }

    #[test]
    fn result_round_trips_through_its_json_line() {
        let r = sample();
        let line = r.to_json().to_string();
        assert!(!line.contains('\n'));
        assert_eq!(ChildResult::from_json(&json::parse(&line).unwrap()).unwrap(), r);
        let untraced =
            ChildResult { off_cpu_share: None, fingerprint: None, layers: vec![], ..sample() };
        let back = ChildResult::from_json(&json::parse(&untraced.to_json().to_string()).unwrap());
        assert_eq!(back.unwrap(), untraced);
    }

    #[test]
    fn every_end_to_end_name_resolves() {
        let r = sample();
        for m in &metrics::END_TO_END {
            assert!(r.end_to_end(m.name).is_finite(), "{}", m.name);
        }
        assert_eq!(r.end_to_end("host_ops_per_s"), 147_440.0 / 5.577);
    }

    #[test]
    fn missing_fields_are_errors() {
        let doc = json::parse(r#"{"workload":"x"}"#).unwrap();
        assert!(ChildResult::from_json(&doc).is_err());
    }
}
