//! The catalogue rendered as `BENCHMARK.json` (`manifest`). Tests pin the
//! committed `BENCHMARK.json` to this output, and the hand-written metric
//! tables of `benchmark/README.md` to the catalogue's names, units,
//! directions and bounds.

use crate::json::Json;
use crate::metrics::{valid_name, valid_unit, END_TO_END, PER_LAYER};
use crate::workloads::WORKLOADS;

/// Host seconds of measured window one driver run accumulates: three
/// fresh-process repetitions of ~4.5–6 s each on the 2-core sandbox.
pub const RUN_SECONDS: u64 = 12;

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    for name in WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name))
    {
        assert!(valid_name(name), "catalogue holds an illegal name `{name}`");
    }
    for unit in END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit)) {
        assert!(valid_unit(unit), "catalogue holds an illegal unit `{unit}`");
    }
    let doc = Json::object([
        ("command", Json::Array(vec![Json::str("bash"), Json::str("benchmark/run.sh")])),
        ("paths", Json::Array(vec![Json::str("benchmark")])),
        ("run_seconds", Json::U64(RUN_SECONDS)),
        (
            "workloads",
            Json::Array(
                WORKLOADS
                    .iter()
                    .map(|w| Json::object([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::object([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::F64(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Array(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::object([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let mut text = doc.pretty();
    text.push('\n');
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// `BENCHMARK.json` at the repository root is this catalogue, verbatim.
    #[test]
    fn committed_benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            json::parse(&committed).expect("BENCHMARK.json parses"),
            json::parse(&benchmark_json()).unwrap(),
            "regenerate with: benchmark/run.sh manifest > BENCHMARK.json"
        );
    }

    #[test]
    fn manifest_respects_the_contract_shape() {
        let doc = json::parse(&benchmark_json()).unwrap();
        let keys: Vec<&str> = json::fields(&doc).iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        assert!((1..=60).contains(&RUN_SECONDS));
        let count = |k: &str| json::items(json::get(&doc, k).unwrap()).len();
        assert!((2..=8).contains(&count("workloads")));
        assert!((1..=16).contains(&count("end_to_end")));
        assert!((1..=128).contains(&count("per_layer")));
        assert!(benchmark_json().len() < 64 << 10);
        // 4 + 22 runs per workload, each ~3 children of < 8 s, two builds.
        let runs = 4 + 22 * count("workloads") as u64;
        assert!(runs * (RUN_SECONDS + 12) < 3420, "{runs} runs do not fit the time cap");
    }

    /// The README's tables are written by hand; they must still name every
    /// metric with the catalogue's unit, direction and bound.
    #[test]
    fn readme_tables_match_the_catalogue() {
        let readme = include_str!("../README.md");
        let row = |name: &str| {
            let head = format!("| `{name}` |");
            readme.lines().find(|l| l.starts_with(&head)).unwrap_or_else(|| panic!("no row {head}"))
        };
        for m in &END_TO_END {
            let clock = if m.host { "host" } else { "simulated" };
            let rest = format!("| {clock} | {} | {} % |", m.better.as_str(), m.bound * 100.0);
            assert!(row(m.name).contains(&rest), "{}: expected `{rest}`", m.name);
        }
        for m in PER_LAYER {
            let head = format!("| `{}` | {} | {} |", m.name, m.unit, m.better.as_str());
            assert!(row(m.name).starts_with(&head), "{}: expected `{head}`", m.name);
        }
    }
}
