//! `compare a.json b.json`: what moved between two result documents.
//!
//! Per workload × end-to-end metric: both medians with quartiles, the
//! ratio with its base, the bound, and a verdict. The catalogue's bounds on
//! simulated metrics cover how far they move from seed to seed; two
//! documents of the same seed must agree on them exactly, so there they are
//! judged at [`EXACT_BOUND`]. Then the per-layer
//! metrics that moved, grouped by crate prefix, largest relative change
//! first, and any change of digest — a change meant only to speed the
//! simulator must leave every digest alone.

use crate::json::{self, Json};
use crate::metrics::Better;
use crate::stats;
use std::fmt::Write as _;

/// Bound on a simulated metric between two documents of the same seed and
/// horizons: the values are exact, the slack is float formatting.
pub const EXACT_BOUND: f64 = 0.001;

/// How an end-to-end metric moved from `a` to `b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Medians differ by more than the bound, in the good direction.
    Better,
    /// Medians differ by no more than the bound.
    Same,
    /// Medians differ by more than the bound, in the bad direction.
    Worse,
    /// Either side's inter-quartile spread is wider than the bound, so
    /// the medians cannot be told apart at this resolution.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of an end-to-end comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    /// Median over the side's repetitions.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Side {
    fn spread(&self) -> f64 {
        stats::spread(self.median, self.q1, self.q3)
    }
}

/// Judge `b` against base `a`.
pub fn verdict(a: Side, b: Side, better: Better, bound: f64) -> Verdict {
    if a.spread() > bound || b.spread() > bound {
        return Verdict::Unresolved;
    }
    if a.median == 0.0 {
        return if b.median == 0.0 { Verdict::Same } else { Verdict::Unresolved };
    }
    let change = (b.median - a.median) / a.median.abs();
    let gain = match better {
        Better::Higher => change,
        Better::Lower => -change,
    };
    if gain > bound {
        Verdict::Better
    } else if gain < -bound {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

fn side(metric: &Json) -> Option<Side> {
    Some(Side {
        median: json::as_f64(json::get(metric, "median")?)?,
        q1: json::as_f64(json::get(metric, "q1")?)?,
        q3: json::as_f64(json::get(metric, "q3")?)?,
    })
}

/// The crate a per-layer metric belongs to (its first name segment).
fn crate_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Render the comparison of documents `a` (base) and `b`.
pub fn render(a: &Json, b: &Json) -> Result<String, String> {
    let mut out = String::new();
    let describe = |doc: &Json| {
        format!(
            "{}{} seed {} nproc {}{}",
            json::get(doc, "git_rev").and_then(json::as_str).unwrap_or("unknown"),
            if matches!(json::get(doc, "git_dirty"), Some(Json::Bool(true))) {
                "+dirty"
            } else {
                ""
            },
            json::get(doc, "seed").and_then(json::as_u64).unwrap_or(0),
            json::get(doc, "nproc").and_then(json::as_u64).unwrap_or(0),
            if matches!(json::get(doc, "quick"), Some(Json::Bool(true))) { " (quick)" } else { "" },
        )
    };
    let _ = writeln!(out, "base a: {}", describe(a));
    let _ = writeln!(out, "     b: {}", describe(b));
    let inputs = |doc: &Json| {
        (
            json::get(doc, "seed").and_then(json::as_u64),
            matches!(json::get(doc, "quick"), Some(Json::Bool(true))),
        )
    };
    let same_inputs = inputs(a) == inputs(b);
    let _ = writeln!(
        out,
        "{}",
        if same_inputs {
            "same seed and horizons: simulated metrics are judged exactly (0.1 %)"
        } else {
            "different seed or horizons: simulated metrics are judged at their seed-to-seed bounds"
        }
    );
    let workloads_a = json::need(a, "workloads")?;
    let workloads_b = json::need(b, "workloads")?;
    for (name, wa) in json::fields(workloads_a) {
        let Some(wb) = json::get(workloads_b, name) else {
            let _ = writeln!(out, "\n== {name}: only in a");
            continue;
        };
        let _ = writeln!(out, "\n== {name}");
        let digest =
            |w: &Json| json::get(w, "digest").and_then(json::as_str).unwrap_or("?").to_string();
        if digest(wa) == digest(wb) {
            let _ =
                writeln!(out, "  digest unchanged ({}): simulated results identical", digest(wa));
        } else {
            let _ = writeln!(
                out,
                "  DIGEST CHANGED {} -> {}: simulated results differ",
                digest(wa),
                digest(wb)
            );
        }
        for (label, w) in [("a", wa), ("b", wb)] {
            if !matches!(json::get(w, "correct"), Some(Json::Bool(true))) {
                let _ = writeln!(out, "  CORRECTNESS CHECKS FAILED in {label}");
            }
        }
        let _ = writeln!(
            out,
            "  {:<26} {:>7} {:>30} {:>30} {:>14} {:>6}  verdict",
            "end-to-end", "unit", "a median [q1, q3]", "b median [q1, q3]", "b/a", "bound"
        );
        let e2e_b = json::need(wb, "end_to_end")?;
        for (metric, ma) in json::fields(json::need(wa, "end_to_end")?) {
            let Some(mb) = json::get(e2e_b, metric) else { continue };
            let (Some(sa), Some(sb)) = (side(ma), side(mb)) else {
                return Err(format!("{name}.{metric}: median/q1/q3 missing"));
            };
            let unit = json::get(ma, "unit").and_then(json::as_str).unwrap_or("");
            let simulated = json::get(ma, "clock").and_then(json::as_str) == Some("simulated");
            let bound = if same_inputs && simulated {
                EXACT_BOUND
            } else {
                json::get(ma, "bound").and_then(json::as_f64).unwrap_or(0.0)
            };
            let better = match json::get(ma, "better").and_then(json::as_str) {
                Some("higher") => Better::Higher,
                _ => Better::Lower,
            };
            let ratio = if sa.median == 0.0 { f64::NAN } else { sb.median / sa.median };
            let cell = |s: Side| format!("{:.5} [{:.5}, {:.5}]", s.median, s.q1, s.q3);
            let _ = writeln!(
                out,
                "  {:<26} {:>7} {:>30} {:>30} {:>7.4} of a {:>5.1}%  {}",
                metric,
                unit,
                cell(sa),
                cell(sb),
                ratio,
                bound * 100.0,
                verdict(sa, sb, better, bound).as_str()
            );
        }
        // Per-layer metrics that moved, grouped by crate, largest first.
        let layers_b = json::get(wb, "per_layer");
        let mut moved: Vec<(String, f64, f64, f64, String)> = Vec::new();
        for (metric, la) in json::get(wa, "per_layer").map(json::fields).unwrap_or(&[]) {
            let Some(lb) = layers_b.and_then(|l| json::get(l, metric)) else { continue };
            let (Some(va), Some(vb)) = (
                json::get(la, "value").and_then(json::as_f64),
                json::get(lb, "value").and_then(json::as_f64),
            ) else {
                continue;
            };
            if va == vb {
                continue;
            }
            let rel = if va == 0.0 { f64::INFINITY } else { (vb - va) / va.abs() };
            let unit = json::get(la, "unit").and_then(json::as_str).unwrap_or("").to_string();
            moved.push((metric.clone(), va, vb, rel, unit));
        }
        if moved.is_empty() {
            let _ = writeln!(out, "  per-layer: nothing moved (or no traced run on one side)");
        }
        let mut crates: Vec<&str> = moved.iter().map(|m| crate_of(&m.0)).collect();
        crates.sort_unstable();
        crates.dedup();
        let crates: Vec<String> = crates.into_iter().map(String::from).collect();
        for krate in &crates {
            let _ = writeln!(out, "  per-layer, {krate}:");
            let mut group: Vec<_> = moved.iter().filter(|m| crate_of(&m.0) == krate).collect();
            group.sort_by(|x, y| y.3.abs().partial_cmp(&x.3.abs()).expect("no NaN change"));
            for (metric, va, vb, rel, unit) in group {
                let _ = writeln!(
                    out,
                    "    {:<42} {:>8} {:>18.6} -> {:>18.6}  {:+.2}% of a",
                    metric,
                    unit,
                    va,
                    vb,
                    rel * 100.0
                );
            }
        }
    }
    for (name, _) in json::fields(workloads_b) {
        if json::get(workloads_a, name).is_none() {
            let _ = writeln!(out, "\n== {name}: only in b");
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, q1: f64, q3: f64) -> Side {
        Side { median, q1, q3 }
    }

    #[test]
    fn verdicts() {
        let tight = |m: f64| s(m, m * 0.99, m * 1.01);
        // Higher is better, 10 % bound.
        assert_eq!(verdict(tight(100.0), tight(115.0), Better::Higher, 0.10), Verdict::Better);
        assert_eq!(verdict(tight(100.0), tight(105.0), Better::Higher, 0.10), Verdict::Same);
        assert_eq!(verdict(tight(100.0), tight(85.0), Better::Higher, 0.10), Verdict::Worse);
        // Lower is better flips the direction.
        assert_eq!(verdict(tight(100.0), tight(85.0), Better::Lower, 0.10), Verdict::Better);
        assert_eq!(verdict(tight(100.0), tight(115.0), Better::Lower, 0.10), Verdict::Worse);
        // A spread wider than the bound on either side cannot be resolved.
        let wide = s(100.0, 90.0, 105.0);
        assert_eq!(verdict(wide, tight(150.0), Better::Higher, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(tight(100.0), wide, Better::Higher, 0.10), Verdict::Unresolved);
        // Exact metrics: zero spread, any change past the bound shows.
        assert_eq!(
            verdict(s(2.0, 2.0, 2.0), s(2.0, 2.0, 2.0), Better::Lower, 0.001),
            Verdict::Same
        );
        assert_eq!(
            verdict(s(2.0, 2.0, 2.0), s(2.1, 2.1, 2.1), Better::Lower, 0.001),
            Verdict::Worse
        );
        assert_eq!(verdict(s(0.0, 0.0, 0.0), s(0.0, 0.0, 0.0), Better::Lower, 0.1), Verdict::Same);
    }

    fn doc(host: f64, digest: &str, advance: f64) -> Json {
        let text = format!(
            r#"{{"schema":"xssd-benchmark/v1","git_rev":"abc","git_dirty":false,"nproc":2,"seed":7,"quick":false,
            "workloads":{{"destage_mixed":{{"digest":"{digest}","correct":true,
              "end_to_end":{{"host_ops_per_s":{{"unit":"ops/s","better":"higher","bound":0.15,"median":{host},"q1":{q1},"q3":{q3},"values":[]}}}},
              "per_layer":{{"core.cluster.advance.host_s":{{"unit":"s","value":{advance}}},
                           "flash.array.programs":{{"unit":"count","value":100.0}},
                           "ssd.stage_write.host_s":{{"unit":"s","value":{stage}}}}}}}}}}}"#,
            q1 = host * 0.99,
            q3 = host * 1.01,
            stage = advance / 10.0,
        );
        json::parse(&text).unwrap()
    }

    #[test]
    fn simulated_metrics_are_exact_between_documents_of_one_seed() {
        let doc = |seed: u64, p50: f64| {
            json::parse(&format!(
                r#"{{"seed":{seed},"quick":false,"workloads":{{"destage_mixed":{{"digest":"d","correct":true,
                "end_to_end":{{"sim_lat_p50_us":{{"unit":"us","clock":"simulated","better":"lower","bound":0.15,
                  "median":{p50},"q1":{p50},"q3":{p50},"values":[]}}}}}}}}}}"#
            ))
            .unwrap()
        };
        // 5 % up on the same seed is a changed model, not seed-to-seed spread.
        let same_seed = render(&doc(7, 20.0), &doc(7, 21.0)).unwrap();
        assert!(same_seed.contains("0.1%  worse"), "{same_seed}");
        let other_seed = render(&doc(7, 20.0), &doc(8, 21.0)).unwrap();
        assert!(other_seed.contains("15.0%  same"), "{other_seed}");
    }

    #[test]
    fn render_reports_ratio_verdict_layers_and_digest() {
        let text = render(&doc(1000.0, "d1", 4.0), &doc(1300.0, "d1", 3.0)).unwrap();
        assert!(text.contains("digest unchanged (d1)"), "{text}");
        assert!(text.contains("1.3000 of a"), "{text}");
        assert!(text.contains("better"), "{text}");
        assert!(text.contains("per-layer, core:") && text.contains("per-layer, ssd:"), "{text}");
        assert!(text.contains("-25.00% of a"), "{text}");
        assert!(!text.contains("flash.array.programs"), "unmoved metrics are not listed: {text}");
        let changed = render(&doc(1000.0, "d1", 4.0), &doc(1000.0, "d2", 4.0)).unwrap();
        assert!(changed.contains("DIGEST CHANGED d1 -> d2"), "{changed}");
        assert!(changed.contains("nothing moved"), "{changed}");
    }
}
