//! Cross-stack metrics: a unified registry every layer reports into.
//!
//! The paper's experiments (§6.1–§6.5, Figs. 9–13) are claims about latency,
//! throughput, and interference. To make every such number auditable, each
//! hardware and software model in the workspace exposes its counters through
//! one mechanism instead of private tallies:
//!
//! - Components keep **cheap local fields** on their hot paths (plain `u64`
//!   bumps — no clocks, no atomics, no shared registry references), following
//!   simkit's no-global-runtime ownership rule.
//! - At observation points a [`MetricsRegistry`] *collects* those fields via
//!   the [`Instrument`] trait, under a hierarchical dotted path such as
//!   `ssd.ftl.gc_moves` or `pcie.link0.tlp_bytes`.
//! - A frozen [`Snapshot`] supports [`Snapshot::diff`] so a phase (warmup vs.
//!   measurement window) can be measured exactly, and [`Snapshot::to_json`]
//!   exports the whole tree as a stable, machine-readable document — the
//!   telemetry of each figure's `results/*.json`.
//!
//! # Naming convention
//!
//! `"<crate>.<component>[<index>].<metric>"`, lower_snake_case segments
//! joined by `.`; units are suffixes (`_bytes`, `_ns`, `_us`, `_pct`).
//! See `docs/OBSERVABILITY.md` for the full catalog.
//!
//! # Kinds and merge rules
//!
//! | kind      | recorded via                  | repeat-record rule   | diff rule          |
//! |-----------|-------------------------------|----------------------|--------------------|
//! | counter   | [`Scope::counter`]            | values accumulate    | later − earlier    |
//! | gauge     | [`Scope::gauge`]              | last write wins      | later value        |
//! | latency   | [`Scope::latency`]            | last write wins      | later summary      |
//!
//! Recording the **same path with a different kind** is a programming error
//! and panics immediately, naming the path — silent coercion would corrupt
//! the export. A leaf and a deeper path may share a prefix
//! (`ssd.ftl` and `ssd.ftl.gc_moves` can both exist): the export is flat, so
//! hierarchical prefixes never collide with leaves.

use crate::stats::Summary;
use std::collections::BTreeMap;

pub mod json;

use json::Json;

/// One recorded metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonically accumulated event count (ops, bytes, hits, misses).
    Counter(u64),
    /// Point-in-time level (queue depth, hit rate, utilization).
    Gauge(f64),
    /// Summary of a latency distribution, in microseconds: count, mean,
    /// median and 99th percentile of the exact samples.
    Latency(Summary),
}

impl MetricValue {
    fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Latency(_) => "latency",
        }
    }

    fn to_json(&self) -> Json {
        match self {
            MetricValue::Counter(v) => Json::U64(*v),
            MetricValue::Gauge(v) => Json::F64(*v),
            MetricValue::Latency(s) => Json::object([
                ("count", Json::U64(s.count)),
                ("mean_us", Json::F64(s.mean)),
                ("p50_us", Json::F64(s.p50)),
                ("p99_us", Json::F64(s.p99)),
            ]),
        }
    }
}

/// A component that can report its counters into a registry scope.
///
/// Implementations only *read* their local fields; recording on the hot path
/// stays plain field arithmetic owned by the component itself.
pub trait Instrument {
    /// Report this component's metrics under the scope's prefix.
    fn instrument(&self, out: &mut Scope<'_>);
}

/// The mutable registry metrics are collected into.
///
/// Keys are full dotted paths; the map is ordered so iteration and export
/// are deterministic.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    metrics: BTreeMap<String, MetricValue>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A recording scope rooted at `prefix` (pass `""` for the root).
    pub fn scope(&mut self, prefix: &str) -> Scope<'_> {
        Scope { registry: self, prefix: String::from(prefix) }
    }

    /// Collect `component`'s metrics under `prefix`.
    pub fn collect(&mut self, prefix: &str, component: &impl Instrument) {
        component.instrument(&mut self.scope(prefix));
    }

    /// Record directly at an absolute path (rarely needed; prefer scopes).
    pub fn counter(&mut self, path: &str, value: u64) {
        self.scope("").counter(path, value);
    }

    /// Record a gauge at an absolute path.
    pub fn gauge(&mut self, path: &str, value: f64) {
        self.scope("").gauge(path, value);
    }

    /// Freeze the current contents.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot { metrics: self.metrics.clone() }
    }

    /// Drop all recorded metrics (e.g. between collection passes, so gauges
    /// from a dead phase don't leak into the next snapshot).
    pub fn clear(&mut self) {
        self.metrics.clear();
    }

    /// Number of distinct paths currently recorded.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    fn record(&mut self, path: String, value: MetricValue) {
        use std::collections::btree_map::Entry;
        match self.metrics.entry(path) {
            Entry::Vacant(e) => {
                e.insert(value);
            }
            Entry::Occupied(mut e) => match (e.get_mut(), value) {
                (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
                (slot @ MetricValue::Gauge(_), v @ MetricValue::Gauge(_)) => *slot = v,
                (slot @ MetricValue::Latency(_), v @ MetricValue::Latency(_)) => *slot = v,
                (old, new) => {
                    let (old_kind, new_kind) = (old.kind(), new.kind());
                    panic!(
                        "metric kind collision at `{}`: recorded as {old_kind}, now {new_kind}",
                        e.key(),
                    )
                }
            },
        }
    }
}

/// A recording handle that prefixes every path with a component's location.
#[derive(Debug)]
pub struct Scope<'a> {
    registry: &'a mut MetricsRegistry,
    prefix: String,
}

impl Scope<'_> {
    fn join(&self, name: &str) -> String {
        debug_assert!(!name.is_empty(), "metric name must be non-empty");
        if self.prefix.is_empty() {
            String::from(name)
        } else {
            let mut p = String::with_capacity(self.prefix.len() + 1 + name.len());
            p.push_str(&self.prefix);
            p.push('.');
            p.push_str(name);
            p
        }
    }

    /// A child scope at `<prefix>.<name>`.
    pub fn scope(&mut self, name: &str) -> Scope<'_> {
        let prefix = self.join(name);
        Scope { registry: self.registry, prefix }
    }

    /// Collect a sub-component under `<prefix>.<name>`.
    pub fn collect(&mut self, name: &str, component: &impl Instrument) {
        component.instrument(&mut self.scope(name));
    }

    /// Record (accumulate) a counter.
    pub fn counter(&mut self, name: &str, value: u64) {
        let path = self.join(name);
        self.registry.record(path, MetricValue::Counter(value));
    }

    /// Record (overwrite) a gauge.
    pub fn gauge(&mut self, name: &str, value: f64) {
        let path = self.join(name);
        self.registry.record(path, MetricValue::Gauge(value));
    }

    /// Record (overwrite) a latency summary — of microsecond samples,
    /// usually [`crate::SampleSeries::summary`].
    pub fn latency(&mut self, name: &str, summary: Summary) {
        let path = self.join(name);
        self.registry.record(path, MetricValue::Latency(summary));
    }
}

/// A frozen, ordered view of the registry at one instant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    metrics: BTreeMap<String, MetricValue>,
}

impl Snapshot {
    /// Look up a metric by full path.
    pub fn get(&self, path: &str) -> Option<&MetricValue> {
        self.metrics.get(path)
    }

    /// Counter value at `path`, or 0 if absent or not a counter.
    pub fn counter(&self, path: &str) -> u64 {
        match self.metrics.get(path) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Gauge value at `path`, or 0.0 if absent or not a gauge.
    pub fn gauge(&self, path: &str) -> f64 {
        match self.metrics.get(path) {
            Some(MetricValue::Gauge(v)) => *v,
            _ => 0.0,
        }
    }

    /// Latency summary at `path`, or all zeros if absent or not a latency.
    pub fn latency(&self, path: &str) -> Summary {
        match self.metrics.get(path) {
            Some(MetricValue::Latency(s)) => *s,
            _ => Summary::default(),
        }
    }

    /// Iterate `(path, value)` in path order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of metrics captured.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True if the snapshot holds no metrics.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// The change from `earlier` to `self`: counters subtract (saturating, so
    /// a cleared registry yields zeros rather than wrapping), gauges and
    /// latency summaries keep the later value. Paths present only in
    /// `earlier` are dropped; paths new in `self` are kept whole.
    pub fn diff(&self, earlier: &Snapshot) -> Snapshot {
        let mut out = BTreeMap::new();
        for (path, value) in &self.metrics {
            let v = match (value, earlier.metrics.get(path)) {
                (MetricValue::Counter(now), Some(MetricValue::Counter(then))) => {
                    MetricValue::Counter(now.saturating_sub(*then))
                }
                (v, _) => v.clone(),
            };
            out.insert(path.clone(), v);
        }
        Snapshot { metrics: out }
    }

    /// Just the flat `path → value` metrics object (for embedding in a
    /// larger document, e.g. a figure-results file).
    pub fn metrics_json(&self) -> Json {
        Json::Object(self.metrics.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }

    /// Export as a JSON document (see `docs/OBSERVABILITY.md` for schema).
    ///
    /// The layout is flat and stable: a `schema` tag, an optional `meta`
    /// object supplied by the caller, and a `metrics` object whose keys are
    /// full dotted paths in sorted order.
    pub fn to_json(&self, meta: &[(&str, Json)]) -> Json {
        let metrics = self.metrics_json();
        let mut fields = vec![(String::from("schema"), Json::str("xssd-metrics/v1"))];
        if !meta.is_empty() {
            fields.push((
                String::from("meta"),
                Json::Object(meta.iter().map(|(k, v)| (String::from(*k), v.clone())).collect()),
            ));
        }
        fields.push((String::from("metrics"), metrics));
        Json::Object(fields)
    }
}

impl Instrument for crate::resource::SerialResource {
    fn instrument(&self, out: &mut Scope<'_>) {
        out.counter("busy_ns", self.busy_time().as_nanos());
        out.counter("requests", self.request_count());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_and_round_trips() {
        let mut reg = MetricsRegistry::new();
        let mut scope = reg.scope("pcie.link0");
        scope.counter("tlp_count", 3);
        scope.counter("tlp_count", 4);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("pcie.link0.tlp_count"), 7);
        assert_eq!(snap.counter("absent.path"), 0);
    }

    #[test]
    fn gauge_overwrites_and_round_trips() {
        let mut reg = MetricsRegistry::new();
        reg.gauge("ssd.buffer.hit_rate_pct", 10.0);
        reg.gauge("ssd.buffer.hit_rate_pct", 93.5);
        assert_eq!(reg.snapshot().gauge("ssd.buffer.hit_rate_pct"), 93.5);
    }

    #[test]
    fn latency_publishes_the_series_summary() {
        let mut reg = MetricsRegistry::new();
        let mut s = crate::SampleSeries::new();
        for _ in 0..99 {
            s.record(4.0);
        }
        s.record(1000.0);
        reg.scope("core.destage").latency("write_us", s.summary());
        let got = reg.snapshot().latency("core.destage.write_us");
        assert_eq!(got, Summary { count: 100, mean: s.mean(), p50: 4.0, p99: s.percentile(99.0) });
        assert_eq!(reg.snapshot().latency("absent.path"), Summary::default());
    }

    #[test]
    fn nested_scopes_compose_paths() {
        let mut reg = MetricsRegistry::new();
        let mut ssd = reg.scope("ssd");
        let mut ftl = ssd.scope("ftl");
        ftl.counter("gc_moves", 11);
        assert_eq!(reg.snapshot().counter("ssd.ftl.gc_moves"), 11);
    }

    #[test]
    fn instrument_trait_collects() {
        struct Ftl {
            map_reads: u64,
        }
        impl Instrument for Ftl {
            fn instrument(&self, out: &mut Scope<'_>) {
                out.counter("map_reads", self.map_reads);
            }
        }
        let mut reg = MetricsRegistry::new();
        reg.collect("ssd.ftl", &Ftl { map_reads: 42 });
        assert_eq!(reg.snapshot().counter("ssd.ftl.map_reads"), 42);
    }

    #[test]
    fn kind_collision_panics() {
        let result = std::panic::catch_unwind(|| {
            let mut reg = MetricsRegistry::new();
            reg.counter("a.b", 1);
            reg.gauge("a.b", 1.0);
        });
        let err = result.expect_err("kind collision must panic");
        let msg = err.downcast_ref::<String>().expect("panic payload");
        assert!(msg.contains("a.b"), "panic names the path: {msg}");
        assert!(msg.contains("counter") && msg.contains("gauge"));
    }

    #[test]
    fn leaf_and_subtree_paths_coexist() {
        // The export is flat, so `ssd.ftl` (a leaf) and `ssd.ftl.gc_moves`
        // (deeper) are distinct keys, not a collision.
        let mut reg = MetricsRegistry::new();
        reg.counter("ssd.ftl", 1);
        reg.counter("ssd.ftl.gc_moves", 2);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("ssd.ftl"), 1);
        assert_eq!(snap.counter("ssd.ftl.gc_moves"), 2);
        assert_eq!(snap.len(), 2);
    }

    #[test]
    fn snapshot_diff_across_phases() {
        let mut reg = MetricsRegistry::new();
        reg.counter("memdb.commits", 100);
        reg.gauge("nvme.sq_depth", 7.0);
        let warmup = reg.snapshot();

        reg.counter("memdb.commits", 150); // now 250 cumulative
        reg.gauge("nvme.sq_depth", 3.0);
        reg.counter("memdb.aborts", 5); // new in measurement phase
        let end = reg.snapshot();

        let phase = end.diff(&warmup);
        assert_eq!(phase.counter("memdb.commits"), 150);
        assert_eq!(phase.counter("memdb.aborts"), 5);
        assert_eq!(phase.gauge("nvme.sq_depth"), 3.0);
    }

    #[test]
    fn diff_drops_paths_missing_later() {
        let mut reg = MetricsRegistry::new();
        reg.counter("gone", 9);
        let earlier = reg.snapshot();
        reg.clear();
        reg.counter("kept", 1);
        let later = reg.snapshot();
        let d = later.diff(&earlier);
        assert_eq!(d.len(), 1);
        assert_eq!(d.counter("kept"), 1);
    }

    #[test]
    fn json_export_schema_is_stable() {
        let mut reg = MetricsRegistry::new();
        reg.counter("b.count", 2);
        reg.gauge("a.level", 1.5);
        let out = reg.snapshot().to_json(&[("fig", Json::str("fig09"))]).to_string();
        // Deterministic, sorted, flat-keyed document.
        assert_eq!(
            out,
            "{\"schema\":\"xssd-metrics/v1\",\"meta\":{\"fig\":\"fig09\"},\
             \"metrics\":{\"a.level\":1.5,\"b.count\":2}}"
        );
        // And re-rendering is byte-identical.
        assert_eq!(out, reg.snapshot().to_json(&[("fig", Json::str("fig09"))]).to_string());
    }

    #[test]
    fn json_export_latency_shape() {
        let mut reg = MetricsRegistry::new();
        let mut s = crate::SampleSeries::new();
        s.record(8.0);
        reg.scope("flash").latency("t_prog_us", s.summary());
        let out = reg.snapshot().to_json(&[]).to_string();
        assert!(
            out.contains("\"flash.t_prog_us\":{\"count\":1,\"mean_us\":8"),
            "latency object shape changed: {out}"
        );
    }
}
