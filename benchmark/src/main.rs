//! The repository's benchmark: four long workloads on two clocks.
//!
//! ```text
//! xssd-benchmark [--seed N] [--quick] [--out DIR]
//!     every workload 5 times (fresh process each, interleaved) plus one
//!     traced run each; prints every metric by name and unit,
//!     checks correctness, writes DIR/latest.json and DIR/trace-*.json
//! xssd-benchmark --workload W --seed N --seconds S --trace 0|1
//!     one workload, one JSON result as the last line of stdout
//! xssd-benchmark compare a.json b.json
//!     what moved between two result documents
//! xssd-benchmark manifest
//!     the metric catalogue as BENCHMARK.json
//! ```
//!
//! See `benchmark/README.md` for the metric and workload tables.

mod child;
mod compare;
mod host;
mod json;
mod manifest;
mod metrics;
mod probes;
mod runner;
mod span;
mod stats;
mod workloads;
mod wrap;

use json::Json;
use runner::{Plan, Reps};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Scale, WORKLOADS};

/// The issue's default seed.
const DEFAULT_SEED: u64 = 0xB11;
/// Repetitions per workload in a full-suite run.
const SUITE_REPS: usize = 5;
/// Repetitions per workload with `--quick`.
const QUICK_REPS: usize = 2;
/// Fewest repetitions behind a single-workload result (a median needs
/// three; so does telling one odd run from the other two).
const MIN_REPS: usize = 3;
/// Most repetitions a single-workload run adds to fill `--seconds` (60 s of
/// ~4 s windows, and still inside the 180 s a run may take).
const MAX_REPS: usize = 16;

const USAGE: &str = "usage:
  xssd-benchmark [--seed N] [--quick] [--out DIR]
  xssd-benchmark --workload W --seed N --seconds S --trace 0|1 [--quick] [--out DIR]
  xssd-benchmark compare a.json b.json
  xssd-benchmark manifest
workloads: tpcc_local ycsb_nvme log_replicated destage_mixed";

/// Parsed command line (everything but `compare`).
#[derive(Debug, Default)]
struct Args {
    child: bool,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    out: Option<PathBuf>,
    trace_dir: Option<PathBuf>,
}

fn parse_seed(text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|_| format!("--seed: `{text}` is not a whole number"))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    if argv.first().map(String::as_str) == Some("child") {
        args.child = true;
        it.next();
    }
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = Some(parse_seed(value()?)?),
            "--seconds" => {
                let v: f64 =
                    value()?.parse().map_err(|_| String::from("--seconds: not a number"))?;
                if !(v > 0.0 && v <= 3600.0) {
                    return Err(String::from("--seconds must be in (0, 3600]"));
                }
                args.seconds = Some(v);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--quick" => args.quick = true,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--trace-dir" => args.trace_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn scale_of(args: &Args) -> Scale {
    if args.quick {
        Scale::Quick
    } else {
        Scale::Full
    }
}

/// `child …`: run one workload once, print one JSON line.
fn child_main(args: &Args) -> Result<ExitCode, String> {
    let name = args.workload.as_deref().ok_or("child needs --workload")?;
    let workload = workloads::find(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = args.seed.ok_or("child needs --seed")?;
    let result = child::run(workload, seed, scale_of(args), args.trace_dir.as_deref())?;
    println!("{}", result.to_json());
    Ok(ExitCode::SUCCESS)
}

/// `--workload W --seed N --seconds S --trace T`: one workload, one result
/// line. With `--trace 0` the metrics are the end-to-end ones (medians over
/// fresh-process repetitions that fill `--seconds` of measured window);
/// with `--trace 1`, the per-layer ones (one traced run beside one
/// untraced, whose difference is the tracing overhead).
fn single_main(args: &Args, name: &str) -> Result<ExitCode, String> {
    let workload = workloads::find(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let traced = args.trace.unwrap_or(false);
    let seconds = args.seconds.ok_or("--workload needs --seconds")?;
    let plan = Plan {
        workloads: vec![workload],
        seed: args.seed.unwrap_or(DEFAULT_SEED),
        scale: scale_of(args),
        reps: if traced {
            Reps::Fixed(1)
        } else {
            Reps::Budget { seconds, min: MIN_REPS, max: MAX_REPS }
        },
        retry_budget: 1,
        traced,
        out_dir: args.out.clone().unwrap_or_else(|| PathBuf::from("benchmark/out")),
    };
    let runs = runner::execute(&plan, |line| println!("{line}"))?;
    let report = runner::report(&runs[0]);
    runner::print_report(&report);
    let metrics: Vec<(String, Json)> = if traced {
        report.per_layer.iter().map(|(m, v)| (m.name, m.unit, *v)).map(entry).collect()
    } else {
        report.end_to_end.iter().map(|(m, s)| (m.name, m.unit, s.median)).map(entry).collect()
    };
    println!(
        "{}",
        Json::object([
            ("correct", Json::Bool(report.correct())),
            ("attempted", Json::U64(report.attempted)),
            ("failed", Json::U64(report.failed)),
            ("metrics", Json::Object(metrics)),
        ])
    );
    Ok(if report.correct() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn entry((name, unit, value): (&str, &str, f64)) -> (String, Json) {
    (String::from(name), Json::object([("value", Json::F64(value)), ("unit", Json::str(unit))]))
}

/// No `--workload`: the whole suite.
fn suite_main(args: &Args) -> Result<ExitCode, String> {
    let scale = scale_of(args);
    let reps = if args.quick { QUICK_REPS } else { SUITE_REPS };
    let plan = Plan {
        workloads: WORKLOADS.iter().collect(),
        seed: args.seed.unwrap_or(DEFAULT_SEED),
        scale,
        reps: Reps::Fixed(reps),
        // At most two discards per repetition.
        retry_budget: 2 * reps * WORKLOADS.len(),
        traced: true,
        out_dir: args.out.clone().unwrap_or_else(|| PathBuf::from("benchmark/out")),
    };
    println!(
        "xssd-benchmark: {} workloads x {reps} reps + 1 traced, seed {:#x}{}",
        plan.workloads.len(),
        plan.seed,
        if args.quick {
            ", QUICK (1/50 horizons; numbers not comparable with a full run)"
        } else {
            ""
        }
    );
    let runs = runner::execute(&plan, |line| println!("{line}"))?;
    let reports: Vec<_> = runs.iter().map(runner::report).collect();
    for r in &reports {
        runner::print_report(r);
    }
    std::fs::create_dir_all(&plan.out_dir)
        .map_err(|e| format!("{}: {e}", plan.out_dir.display()))?;
    let path = plan.out_dir.join("latest.json");
    let mut doc = runner::document(&plan, &reports).pretty();
    doc.push('\n');
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    println!();
    println!("results: {}", path.display());
    let failed: Vec<&str> = reports.iter().filter(|r| !r.correct()).map(|r| r.name).collect();
    if failed.is_empty() {
        println!("all correctness checks passed");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("CORRECTNESS CHECKS FAILED on: {}", failed.join(", "));
        Ok(ExitCode::FAILURE)
    }
}

fn compare_main(paths: &[String]) -> Result<ExitCode, String> {
    let [a, b] = paths else {
        return Err(String::from("compare takes exactly two result files"));
    };
    let read = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| json::parse(&t).map_err(|e| format!("{p}: {e}")))
    };
    print!("{}", compare::render(&read(a)?, &read(b)?)?);
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    host::mark_process_start();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if argv.first().map(String::as_str) == Some("compare") {
        compare_main(&argv[1..])
    } else if argv.first().map(String::as_str) == Some("manifest") {
        if argv.len() == 1 {
            print!("{}", manifest::benchmark_json());
            Ok(ExitCode::SUCCESS)
        } else {
            Err(String::from("manifest takes no arguments"))
        }
    } else {
        parse_args(&argv).and_then(|args| {
            if args.child {
                child_main(&args)
            } else if let Some(name) = args.workload.clone() {
                single_main(&args, &name)
            } else {
                suite_main(&args)
            }
        })
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("xssd-benchmark: {message}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| String::from(*w)).collect()
    }

    #[test]
    fn parses_the_driver_contract_command_line() {
        let a = parse_args(&argv(&[
            "--workload",
            "ycsb_nvme",
            "--seed",
            "42",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("ycsb_nvme"));
        assert_eq!((a.seed, a.seconds, a.trace), (Some(42), Some(12.0), Some(true)));
        assert!(!a.child && !a.quick);
    }

    #[test]
    fn parses_child_and_suite_forms() {
        let c =
            parse_args(&argv(&["child", "--workload", "x", "--seed", "0xB11", "--quick"])).unwrap();
        assert!(c.child && c.quick);
        assert_eq!(c.seed, Some(0xB11));
        let s = parse_args(&argv(&["--seed", "9", "--out", "o"])).unwrap();
        assert_eq!((s.seed, s.out), (Some(9), Some(PathBuf::from("o"))));
        assert!(parse_args(&[]).unwrap().workload.is_none());
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            &["--bogus"][..],
            &["--seed"],
            &["--seed", "-1"],
            &["--seconds", "0"],
            &["--seconds", "nan"],
            &["--trace", "2"],
            &["--reps", "3"],
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
    }
}
