//! The committed results goldens, `results/*.json`, read in one place: each
//! file is parsed once by `simkit::telemetry::json::parse`, the inverse of
//! the writer the harnesses export with, into its rows and its telemetry
//! cells. A test crate declares `mod golden;`.
// Each test crate that includes the module reads a part of it.
#![allow(dead_code)]

use simkit::telemetry::json::{parse, Json};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::OnceLock;

/// One `rows` entry of a results document.
#[derive(Debug)]
pub struct Row {
    pub series: String,
    pub x: f64,
    pub y: f64,
    pub extra: f64,
    /// The candlestick's smallest sample, quartiles and largest sample
    /// (Fig. 13 rows; 0 in a row without one).
    pub min: f64,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
    pub max: f64,
}

/// One telemetry cell, `path → value`; a latency summary is one
/// `path.field` per field.
pub type Cell = BTreeMap<String, f64>;

/// One results document: its file name, its text as committed, the text
/// parsed, its rows and its `(label, cell)`s in document order.
pub struct Golden {
    pub name: String,
    pub text: String,
    pub doc: Json,
    pub rows: Vec<Row>,
    pub cells: Vec<(String, Cell)>,
}

/// Every golden, by file name, each read and parsed once per test process.
pub fn all() -> &'static [Golden] {
    static GOLDENS: OnceLock<Vec<Golden>> = OnceLock::new();
    GOLDENS.get_or_init(|| {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("{dir:?}: {e}"))
            .map(|entry| entry.expect("a results entry").file_name().to_string_lossy().into())
            .filter(|name: &String| name.ends_with(".json"))
            .collect();
        names.sort();
        names.into_iter().map(|name| read(&dir, name)).collect()
    })
}

/// The golden named `name`.
pub fn get(name: &str) -> &'static Golden {
    all().iter().find(|g| g.name == name).unwrap_or_else(|| panic!("no golden {name}"))
}

/// Every cell of every golden, as `("<file> / <label>", cell)`.
pub fn cells() -> impl Iterator<Item = (String, &'static Cell)> {
    all().iter().flat_map(|g| g.cells.iter().map(|(label, c)| (format!("{} / {label}", g.name), c)))
}

fn read(dir: &Path, name: String) -> Golden {
    let text = std::fs::read_to_string(dir.join(&name)).unwrap_or_else(|e| panic!("{name}: {e}"));
    let doc = parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
    let number = |value: Option<&Json>, what: &str| match value {
        Some(Json::U64(v)) => *v as f64,
        Some(Json::I64(v)) => *v as f64,
        Some(Json::F64(v)) => *v,
        other => panic!("{name}: {what} is {other:?}, not a number"),
    };
    let Some(Json::Array(rows)) = field(&doc, "rows") else { panic!("{name}: no rows") };
    let rows: Vec<Row> = rows
        .iter()
        .map(|row| {
            let Some(Json::Str(series)) = field(row, "series") else { panic!("{name}: a series") };
            let at = |key: &str| number(field(row, key), &format!("{series}'s {key}"));
            let candle =
                |key: &str| field(row, "candle").map_or(0.0, |c| number(field(c, key), key));
            let (x, y, extra) = (at("x"), at("y"), at("extra"));
            let [min, p25, p50, p75, max] = ["min", "p25", "p50", "p75", "max"].map(candle);
            Row { series: series.clone(), x, y, extra, min, p25, p50, p75, max }
        })
        .collect();
    assert!(!rows.is_empty(), "{name}: empty rows");
    let mut cells = Vec::new();
    for (label, metrics) in fields(field(&doc, "telemetry")) {
        let mut cell = Cell::new();
        for (path, value) in fields(Some(metrics)) {
            let leaves = match value {
                Json::Object(summary) => {
                    summary.iter().map(|(f, v)| (format!("{path}.{f}"), v)).collect()
                }
                value => vec![(path.clone(), value)],
            };
            for (path, value) in leaves {
                let v = number(Some(value), &format!("{label} {path}"));
                cell.insert(path, v);
            }
        }
        cells.push((label.clone(), cell));
    }
    Golden { name, text, doc, rows, cells }
}

fn field<'a>(value: &'a Json, key: &str) -> Option<&'a Json> {
    fields(Some(value)).iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn fields(value: Option<&Json>) -> &[(String, Json)] {
    match value {
        Some(Json::Object(fields)) => fields,
        _ => &[],
    }
}
