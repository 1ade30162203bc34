//! # xssd-bench — figure-regeneration harnesses
//!
//! One binary per paper figure (`fig09_*` … `fig13_*`, plus the ablation
//! studies DESIGN.md lists, the `chaos_tpcc` fault capstone, and the
//! `all_figures` driver that runs everything). Each prints the series the
//! paper plots as an aligned table on stdout and, through [`Report`],
//! writes a machine-readable `results/<name>.json` that bundles every row
//! with the telemetry [`Snapshot`]s the numbers were derived from.
//! `docs/OBSERVABILITY.md` documents the schema and a worked example;
//! `docs/HARNESSES.md` documents every harness, every environment knob,
//! and the goldens workflow.
//!
//! Every harness runs its figure grid through [`sweep`]: independent
//! `(config, seed)` cells execute on a scoped thread pool sized by
//! `XSSD_BENCH_THREADS` (default: all host cores; `1` is the sequential
//! oracle), and rows/telemetry are collected in grid order so the output —
//! stdout and `results/*.json` alike — is byte-identical at any thread
//! count. Environment knobs:
//!
//! - `XSSD_BENCH_THREADS` — sweep worker count (see [`sweep::threads`]).
//! - `XSSD_RESULTS_DIR` — where [`Report::finish`] writes the results
//!   JSON (default `results/`).

#![warn(missing_docs)]

pub mod cli;
pub mod driver;
pub mod kernels;
pub mod sweep;
pub mod table;
pub mod ycsb;

use simkit::telemetry::json::Json;
use simkit::telemetry::Snapshot;
use std::path::PathBuf;

/// Print the standard experiment header.
pub fn header(fig: &str, title: &str, knobs: &str) {
    println!("==============================================================");
    println!("{fig}: {title}");
    if !knobs.is_empty() {
        println!("  {knobs}");
    }
    println!("==============================================================");
}

/// Emit a section separator.
pub fn section(name: &str) {
    println!("--- {name} ---");
}

/// A generic labelled measurement row used across figures.
#[derive(Debug)]
pub struct Measurement {
    /// Figure identifier (e.g. "fig09").
    pub fig: &'static str,
    /// Series label (e.g. "villars-sram").
    pub series: String,
    /// X-axis value.
    pub x: f64,
    /// X-axis meaning.
    pub x_label: &'static str,
    /// Primary measured value.
    pub y: f64,
    /// Y meaning/unit.
    pub y_label: &'static str,
    /// Optional secondary value (e.g. p99, bandwidth %).
    pub extra: Option<f64>,
    /// Optional distribution summary (Fig. 13 candlesticks).
    pub candle: Option<simkit::Candlestick>,
}

impl Measurement {
    /// A plain (x, y) measurement.
    pub fn point(
        fig: &'static str,
        series: impl Into<String>,
        x: f64,
        x_label: &'static str,
        y: f64,
        y_label: &'static str,
    ) -> Self {
        Measurement {
            fig,
            series: series.into(),
            x,
            x_label,
            y,
            y_label,
            extra: None,
            candle: None,
        }
    }

    /// Attach a secondary value.
    pub fn with_extra(mut self, extra: f64) -> Self {
        self.extra = Some(extra);
        self
    }

    /// Attach a candlestick.
    pub fn with_candle(mut self, candle: simkit::Candlestick) -> Self {
        self.candle = Some(candle);
        self
    }

    /// The row as a JSON object; optional fields are omitted when unset.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("fig", Json::str(self.fig)),
            ("series", Json::str(self.series.clone())),
            ("x", Json::F64(self.x)),
            ("x_label", Json::str(self.x_label)),
            ("y", Json::F64(self.y)),
            ("y_label", Json::str(self.y_label)),
        ];
        if let Some(extra) = self.extra {
            fields.push(("extra", Json::F64(extra)));
        }
        if let Some(c) = self.candle {
            fields.push((
                "candle",
                Json::object([
                    ("min", Json::F64(c.min)),
                    ("p25", Json::F64(c.p25)),
                    ("p50", Json::F64(c.p50)),
                    ("p75", Json::F64(c.p75)),
                    ("max", Json::F64(c.max)),
                ]),
            ));
        }
        Json::object(fields)
    }
}

/// Accumulates a figure run — printed rows plus the telemetry snapshots the
/// numbers came from — and writes `results/<name>.json` on [`Report::finish`].
#[derive(Debug)]
pub struct Report {
    name: &'static str,
    rows: Vec<Measurement>,
    telemetry: Vec<(String, Snapshot)>,
}

impl Report {
    /// Start a report for the binary named `name` (the `results/` file
    /// stem), printing the standard header.
    pub fn new(name: &'static str, fig: &str, title: &str, knobs: &str) -> Self {
        header(fig, title, knobs);
        Report { name, rows: Vec::new(), telemetry: Vec::new() }
    }

    /// Emit one row: aligned human-readable columns on stdout and an entry
    /// in the results document.
    pub fn row(&mut self, human: &str, record: Measurement) {
        println!("{human}");
        self.rows.push(record);
    }

    /// Attach a labelled registry snapshot (one per series/configuration).
    /// Labels must be unique within a report; re-using one panics, since the
    /// later snapshot would silently shadow the earlier in the export.
    pub fn telemetry(&mut self, label: impl Into<String>, snap: Snapshot) {
        let label = label.into();
        assert!(
            self.telemetry.iter().all(|(l, _)| *l != label),
            "duplicate telemetry label `{label}`"
        );
        self.telemetry.push((label, snap));
    }

    /// The results document (also what `finish` writes).
    pub fn to_json(&self) -> Json {
        Json::object([
            ("schema", Json::str("xssd-results/v1")),
            ("name", Json::str(self.name)),
            ("rows", Json::Array(self.rows.iter().map(Measurement::to_json).collect())),
            (
                "telemetry",
                Json::Object(
                    self.telemetry
                        .iter()
                        .map(|(label, snap)| (label.clone(), snap.metrics_json()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Write `results/<name>.json` (creating `results/` if needed) and
    /// print its path. Set `XSSD_RESULTS_DIR` to redirect the output.
    pub fn finish(self) -> std::io::Result<PathBuf> {
        let dir = std::env::var_os("XSSD_RESULTS_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("results"));
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.json", self.name));
        let mut doc = self.to_json().pretty();
        doc.push('\n');
        std::fs::write(&path, doc)?;
        println!();
        println!("metrics: {}", path.display());
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_serializes_minimal_and_full() {
        let m = Measurement::point("fig09", "no-log", 4.0, "workers", 150_000.0, "txn/s");
        let json = m.to_json().to_string();
        assert!(json.contains("\"fig\":\"fig09\""));
        assert!(!json.contains("extra"));
        let m2 = m.with_extra(42.0);
        let json2 = m2.to_json().to_string();
        assert!(json2.contains("\"extra\":42.0"));
    }

    #[test]
    fn report_document_shape() {
        let mut reg = simkit::MetricsRegistry::new();
        reg.counter("memdb.commits", 7);
        let mut report = Report { name: "unit_test", rows: Vec::new(), telemetry: Vec::new() };
        report.rows.push(Measurement::point("t", "s", 1.0, "x", 2.0, "y"));
        report.telemetry("s", reg.snapshot());
        let doc = report.to_json().to_string();
        assert!(doc.contains("\"schema\":\"xssd-results/v1\""));
        assert!(doc.contains("\"memdb.commits\":7"));
    }

    #[test]
    #[should_panic(expected = "duplicate telemetry label")]
    fn duplicate_labels_rejected() {
        let reg = simkit::MetricsRegistry::new();
        let mut report = Report { name: "unit_test", rows: Vec::new(), telemetry: Vec::new() };
        report.telemetry("a", reg.snapshot());
        report.telemetry("a", reg.snapshot());
    }
}
