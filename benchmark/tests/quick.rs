//! The benchmark end to end at 1/50 horizons: the whole suite with the
//! traced pass and every check, the single-workload result line the driver
//! reads, `compare`, and the exit code of a deliberately broken check.

use std::path::PathBuf;
use std::process::{Command, Output};

const EXE: &str = env!("CARGO_BIN_EXE_xssd-benchmark");
const WORKLOADS: [&str; 4] = ["tpcc_local", "ycsb_nvme", "log_replicated", "destage_mixed"];

fn out_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(EXE);
    cmd.args(args);
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("benchmark binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Every `"name": "<x>"` of the section of `BENCHMARK.json` that starts at
/// `"<section>"` and ends at the next `]`.
fn manifest_names(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    body.split("\"name\": \"").skip(1).map(|s| s[..s.find('"').unwrap()].to_string()).collect()
}

/// The metric names of a single-workload result line, in order.
fn result_metric_names(line: &str) -> Vec<String> {
    let metrics = &line[line.find("\"metrics\":{").expect("metrics object") + 11..];
    let mut names: Vec<String> = metrics
        .split("\":{\"value\":")
        .map(|piece| piece.rsplit('"').next().unwrap().to_string())
        .collect();
    names.pop(); // the tail after the last value holds no name
    names
}

#[test]
fn quick_suite_runs_every_workload_trace_and_check() {
    let dir = out_dir("suite");
    let out = run(&["--quick", "--seed", "0xB11", "--out", dir.to_str().unwrap()], &[]);
    let text = stdout(&out);
    assert!(
        out.status.success(),
        "suite failed:\n{text}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(text.contains("all correctness checks passed"), "{text}");
    assert!(!text.contains("FAIL"), "{text}");
    for w in WORKLOADS {
        assert!(text.contains(&format!("== {w} ")), "{w} missing from the report");
        assert!(dir.join(format!("trace-{w}.json")).exists(), "no trace for {w}");
    }
    // Every catalogued metric is printed by name, and lands in latest.json.
    let latest = std::fs::read_to_string(dir.join("latest.json")).expect("latest.json written");
    for name in manifest_names("end_to_end").iter().chain(&manifest_names("per_layer")) {
        assert!(text.contains(&format!("  {name} ")), "{name} not printed");
        assert!(latest.contains(&format!("\"{name}\"")), "{name} not in latest.json");
    }
    assert!(latest.contains("\"schema\": \"xssd-benchmark/v1\""));
    // Span accounting is checked in every traced child, on the real tree.
    for check in ["root_span_is_the_measured_window", "self_times_account_for_the_root_span"] {
        let passed = format!("check {check:<44} ok");
        assert_eq!(text.matches(&passed).count(), WORKLOADS.len(), "{check}:\n{text}");
    }
    let trace = std::fs::read_to_string(dir.join("trace-tpcc_local.json")).unwrap();
    assert!(trace.contains("\"bench.workload.execute\"") && trace.contains("\"memdb.backend\""));

    // A result file compared with itself: nothing moved, digests equal.
    let latest_path = dir.join("latest.json");
    let same = run(&["compare", latest_path.to_str().unwrap(), latest_path.to_str().unwrap()], &[]);
    let report = stdout(&same);
    assert!(same.status.success(), "{report}");
    assert_eq!(report.matches("digest unchanged").count(), WORKLOADS.len(), "{report}");
    assert!(!report.contains("worse") && !report.contains("DIGEST CHANGED"), "{report}");
}

#[test]
fn single_workload_result_line_matches_the_manifest() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let dir = out_dir(&format!("single-{trace}"));
        let out = run(
            &[
                "--workload",
                "destage_mixed",
                "--seed",
                "3",
                "--seconds",
                "0.01",
                "--trace",
                trace,
                "--quick",
                "--out",
                dir.to_str().unwrap(),
            ],
            &[],
        );
        let text = stdout(&out);
        assert!(out.status.success(), "{text}\n{}", String::from_utf8_lossy(&out.stderr));
        let line = text.lines().last().expect("a result line");
        assert!(line.starts_with("{\"correct\":true,\"attempted\":"), "{line}");
        assert!(line.contains("\"failed\":0,\"metrics\":{"), "{line}");
        assert_eq!(result_metric_names(line), manifest_names(section), "--trace {trace}");
    }
}

#[test]
fn a_broken_check_fails_the_run() {
    let dir = out_dir("broken");
    let args = [
        "--workload",
        "log_replicated",
        "--seed",
        "3",
        "--seconds",
        "0.01",
        "--trace",
        "0",
        "--quick",
        "--out",
        dir.to_str().unwrap(),
    ];
    let ok = run(&args, &[]);
    assert!(ok.status.success(), "{}", stdout(&ok));
    let broken = run(&args, &[("XSSD_BENCHMARK_SELFTEST", "expect_one_more_acked_byte")]);
    let text = stdout(&broken);
    assert_eq!(broken.status.code(), Some(1), "{text}");
    assert!(text.lines().last().unwrap().starts_with("{\"correct\":false,"), "{text}");
    assert!(text.contains("dev0_durable_upto_acked") && text.contains("FAIL"), "{text}");
}

#[test]
fn bad_command_lines_exit_with_usage() {
    for args in
        [&["--workload", "nope", "--seconds", "1"][..], &["--bogus"], &["compare", "only-one"]]
    {
        let out = run(args, &[]);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
