//! The parent side: launch every (workload, repetition) as a fresh child,
//! keep noise out, check correctness, and reduce to medians.

use crate::child::ChildResult;
use crate::json::{self, Json};
use crate::metrics::{EndToEnd, Layer, Source, END_TO_END, PER_LAYER};
use crate::stats::{self, Summary};
use crate::workloads::{Check, Scale, WorkloadDef};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// A repetition whose wall clock exceeds its on-CPU time by more than this
/// share was preempted or starved, and is discarded and re-run.
pub const NOISY_OFF_CPU_SHARE: f64 = 0.03;
/// Attempts per repetition before a noisy one is kept anyway.
const ATTEMPTS_PER_REP: usize = 3;
/// A child that runs longer than this is killed (a healthy one takes < 15 s).
const CHILD_TIMEOUT: Duration = Duration::from_secs(150);

/// How many untraced repetitions each workload gets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reps {
    /// Exactly this many.
    Fixed(usize),
    /// At least `min`, then more until the measured windows add up to
    /// `seconds` of host time (never more than `max`): a run "measures for
    /// `--seconds`" whatever the simulator's speed, and the simulated
    /// results do not depend on how long that took.
    Budget {
        /// Host seconds of measured window to accumulate.
        seconds: f64,
        /// Fewest repetitions (a median and a determinism check need 3).
        min: usize,
        /// Most repetitions.
        max: usize,
    },
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Workloads, in reporting order.
    pub workloads: Vec<&'static WorkloadDef>,
    /// Workload seed.
    pub seed: u64,
    /// Full or `--quick` horizons.
    pub scale: Scale,
    /// Untraced repetitions.
    pub reps: Reps,
    /// Noisy repetitions that may be discarded over the whole plan.
    pub retry_budget: usize,
    /// Whether to add one traced child per workload.
    pub traced: bool,
    /// Where traced children write `trace-<workload>.json`.
    pub out_dir: PathBuf,
}

/// Every child of one workload.
#[derive(Debug, Clone)]
pub struct WorkloadRuns {
    /// The workload.
    pub name: &'static str,
    /// Kept untraced repetitions, in run order.
    pub kept: Vec<ChildResult>,
    /// Repetitions discarded as noisy.
    pub discarded: usize,
    /// The traced child, when the plan asked for one.
    pub traced: Option<ChildResult>,
}

/// Launch one child and read its result line.
fn spawn_child(
    workload: &str,
    seed: u64,
    scale: Scale,
    trace_dir: Option<&Path>,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("child").arg("--workload").arg(workload).arg("--seed").arg(seed.to_string());
    if scale == Scale::Quick {
        cmd.arg("--quick");
    }
    if let Some(dir) = trace_dir {
        cmd.arg("--trace-dir").arg(dir);
    }
    // Ambient knobs would change what is simulated or how.
    for var in ["XSSD_SIM_THREADS", "XSSD_BENCH_THREADS", "XSSD_SIM_METRICS"] {
        cmd.env_remove(var);
    }
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn child: {e}"))?;
    let mut stdout = child.stdout.take().expect("piped stdout");
    // Drain the pipe on a thread so a long result line cannot block the
    // child while this thread polls for its exit.
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });
    let started = Instant::now();
    let status = loop {
        match child.try_wait().map_err(|e| format!("wait for child: {e}"))? {
            Some(status) => break status,
            None if started.elapsed() > CHILD_TIMEOUT => {
                // Stop it and wait until it has ended before reporting.
                let _ = child.kill();
                let _ = child.wait();
                let _ = reader.join();
                return Err(format!("{workload}: child exceeded {CHILD_TIMEOUT:?} and was killed"));
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    let text = reader
        .join()
        .map_err(|_| String::from("stdout reader panicked"))?
        .map_err(|e| format!("read child stdout: {e}"))?;
    if !status.success() {
        return Err(format!("{workload}: child exited with {status}"));
    }
    let line = text.lines().last().ok_or_else(|| format!("{workload}: child printed nothing"))?;
    ChildResult::from_json(&json::parse(line)?).map_err(|e| format!("{workload}: {e}"))
}

fn noisy(r: &ChildResult) -> bool {
    r.off_cpu_share.is_some_and(|s| s > NOISY_OFF_CPU_SHARE)
}

fn wants_more(reps: Reps, kept: &[ChildResult]) -> bool {
    match reps {
        Reps::Fixed(n) => kept.len() < n,
        Reps::Budget { seconds, min, max } => {
            kept.len() < min
                || (kept.len() < max && kept.iter().map(|r| r.window_s).sum::<f64>() < seconds)
        }
    }
}

/// Noisy repetitions the plan may still discard, and the line printer.
struct Launcher<'a, P: FnMut(&str)> {
    plan: &'a Plan,
    retries_left: usize,
    progress: P,
}

impl<P: FnMut(&str)> Launcher<'_, P> {
    /// Run one child of `run`'s workload (traced when `trace_dir` is
    /// given), re-running it while it is noisy and discards remain.
    fn quiet_child(
        &mut self,
        run: &mut WorkloadRuns,
        trace_dir: Option<&Path>,
    ) -> Result<ChildResult, String> {
        let label = match trace_dir {
            Some(_) => String::from("traced"),
            None => format!("rep {}", run.kept.len() + 1),
        };
        let mut attempt = 1;
        loop {
            let result = spawn_child(run.name, self.plan.seed, self.plan.scale, trace_dir)?;
            let discard = noisy(&result) && attempt < ATTEMPTS_PER_REP && self.retries_left > 0;
            (self.progress)(&format!(
                "{} {label}: window {:.3} s, setup {:.3} s, off-CPU {}{}",
                run.name,
                result.window_s,
                result.setup_s,
                result.off_cpu_share.map_or(String::from("n/a"), |s| format!("{:.1} %", s * 100.0)),
                if discard { " — noisy, discarded" } else { "" },
            ));
            if !discard {
                return Ok(result);
            }
            self.retries_left -= 1;
            run.discarded += 1;
            attempt += 1;
        }
    }
}

/// Run the plan. Repetitions are interleaved round-robin (rep 1 of every
/// workload, then rep 2, …) so a noisy minute hits every workload alike;
/// one child runs at a time.
pub fn execute(plan: &Plan, progress: impl FnMut(&str)) -> Result<Vec<WorkloadRuns>, String> {
    let mut runs: Vec<WorkloadRuns> = plan
        .workloads
        .iter()
        .map(|w| WorkloadRuns { name: w.name, kept: Vec::new(), discarded: 0, traced: None })
        .collect();
    let mut launcher = Launcher { plan, retries_left: plan.retry_budget, progress };
    while runs.iter().any(|run| wants_more(plan.reps, &run.kept)) {
        for run in runs.iter_mut().filter(|run| wants_more(plan.reps, &run.kept)) {
            let result = launcher.quiet_child(run, None)?;
            run.kept.push(result);
        }
    }
    if plan.traced {
        for run in &mut runs {
            run.traced = Some(launcher.quiet_child(run, Some(&plan.out_dir))?);
        }
    }
    Ok(runs)
}

/// One workload reduced to its reportable numbers.
#[derive(Clone)]
pub struct WorkloadReport {
    /// The workload.
    pub name: &'static str,
    /// Repetitions kept / discarded as noisy.
    pub reps_kept: usize,
    /// Repetitions discarded as noisy.
    pub reps_discarded: usize,
    /// Ops started in the measured window (identical across reps).
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// Latency samples behind the percentiles.
    pub samples: u64,
    /// Digest of everything simulated.
    pub digest: String,
    /// End-to-end metrics in catalogue order.
    pub end_to_end: Vec<(&'static EndToEnd, Summary)>,
    /// Per-layer metrics in catalogue order (empty without a traced run).
    pub per_layer: Vec<(&'static Layer, f64)>,
    /// The registry snapshot of the first repetition.
    pub counters: Json,
    /// Every check: the children's own plus the cross-repetition ones.
    pub checks: Vec<Check>,
}

impl WorkloadReport {
    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// Share of attempted ops that failed; 1 when any check failed.
    pub fn failed_ops_share(&self) -> f64 {
        if self.correct() {
            self.failed as f64 / self.attempted.max(1) as f64
        } else {
            1.0
        }
    }
}

/// Reduce one workload's children: medians and quartiles for the host
/// clock, exact values for the simulated clock, and the checks.
pub fn report(runs: &WorkloadRuns) -> WorkloadReport {
    let first = runs.kept.first().expect("a workload ran at least once");
    // (b)/(c) the children's own checks, each required on every child.
    let mut checks: Vec<Check> =
        runs.kept.iter().chain(&runs.traced).flat_map(|c| c.checks.iter().cloned()).collect();
    // (a) everything simulated repeats exactly, traced run included.
    for other in runs.kept.iter().skip(1).chain(&runs.traced) {
        let label = if other.traced { "traced" } else { "rep" };
        checks.push(Check::eq(format!("{label}_digest_repeats"), &other.digest, &first.digest));
        let moved: Vec<&str> = first
            .sim
            .iter()
            .zip(&other.sim)
            .filter(|(a, b)| a != b)
            .map(|(a, _)| a.0.as_str())
            .collect();
        checks.push(Check {
            name: format!("{label}_sim_metrics_repeat"),
            ok: moved.is_empty() && other.sim.len() == first.sim.len(),
            detail: if moved.is_empty() {
                format!("{} simulated metrics", first.sim.len())
            } else {
                format!("differ: {}", moved.join(", "))
            },
        });
        checks.push(Check {
            name: format!("{label}_counters_repeat"),
            ok: other.counters == first.counters,
            detail: format!("{} registry paths", json::fields(&first.counters).len()),
        });
        checks.push(Check::eq(
            format!("{label}_fingerprint_repeats"),
            &other.fingerprint,
            &first.fingerprint,
        ));
        checks.push(Check::eq(
            format!("{label}_attempted_failed_repeat"),
            (other.attempted, other.failed),
            (first.attempted, first.failed),
        ));
    }
    // One row per check name: its first failure, or the pass.
    let mut deduped: Vec<Check> = Vec::new();
    for c in checks {
        match deduped.iter_mut().find(|k| k.name == c.name) {
            Some(known) if known.ok && !c.ok => *known = c,
            Some(_) => {}
            None => deduped.push(c),
        }
    }

    let end_to_end = END_TO_END
        .iter()
        .map(|m| (m, Summary::of(runs.kept.iter().map(|r| r.end_to_end(m.name)).collect())))
        .collect();

    let per_layer = match &runs.traced {
        None => Vec::new(),
        Some(traced) => {
            let windows: Vec<f64> = runs.kept.iter().map(|r| r.window_s).collect();
            let untraced_window = stats::median(&windows);
            PER_LAYER
                .iter()
                .map(|m| {
                    let value = match m.source {
                        Source::Runner => (traced.window_s / untraced_window - 1.0) * 100.0,
                        _ => {
                            traced.layers.iter().find(|(n, _)| n == m.name).map_or(0.0, |(_, v)| *v)
                        }
                    };
                    (m, value)
                })
                .collect()
        }
    };

    WorkloadReport {
        name: runs.name,
        reps_kept: runs.kept.len(),
        reps_discarded: runs.discarded,
        attempted: first.attempted,
        failed: first.failed,
        samples: first.samples,
        digest: first.digest.clone(),
        end_to_end,
        per_layer,
        counters: first.counters.clone(),
        checks: deduped,
    }
}

/// `git rev-parse HEAD` and whether the tree is dirty; `"unknown"` outside
/// a git checkout.
pub fn git_state() -> (String, bool) {
    let run = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match run(&["rev-parse", "HEAD"]) {
        Some(rev) => {
            let dirty = run(&["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
            (rev, dirty)
        }
        None => (String::from("unknown"), false),
    }
}

/// The result document of a whole run (`benchmark/out/latest.json`, and
/// what `compare` reads).
pub fn document(plan: &Plan, reports: &[WorkloadReport]) -> Json {
    let (git_rev, dirty) = git_state();
    let workloads = reports
        .iter()
        .map(|r| {
            let e2e = r
                .end_to_end
                .iter()
                .map(|(m, s)| {
                    (
                        String::from(m.name),
                        Json::object([
                            ("unit", Json::str(m.unit)),
                            ("clock", Json::str(if m.host { "host" } else { "simulated" })),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::F64(m.bound)),
                            ("median", Json::F64(s.median)),
                            ("q1", Json::F64(s.q1)),
                            ("q3", Json::F64(s.q3)),
                            (
                                "values",
                                Json::Array(s.values.iter().map(|v| Json::F64(*v)).collect()),
                            ),
                        ]),
                    )
                })
                .collect();
            let layers = r
                .per_layer
                .iter()
                .map(|(m, v)| {
                    (
                        String::from(m.name),
                        Json::object([("unit", Json::str(m.unit)), ("value", Json::F64(*v))]),
                    )
                })
                .collect();
            let checks = r.checks.iter().map(Check::to_json).collect();
            (
                String::from(r.name),
                Json::object([
                    ("reps_kept", Json::U64(r.reps_kept as u64)),
                    ("reps_discarded", Json::U64(r.reps_discarded as u64)),
                    ("attempted", Json::U64(r.attempted)),
                    ("failed", Json::U64(r.failed)),
                    ("failed_ops_share", Json::F64(r.failed_ops_share())),
                    ("samples", Json::U64(r.samples)),
                    ("digest", Json::str(r.digest.clone())),
                    ("correct", Json::Bool(r.correct())),
                    ("end_to_end", Json::Object(e2e)),
                    ("per_layer", Json::Object(layers)),
                    ("checks", Json::Array(checks)),
                    ("counters", r.counters.clone()),
                ]),
            )
        })
        .collect();
    Json::object([
        ("schema", Json::str("xssd-benchmark/v1")),
        ("git_rev", Json::str(git_rev)),
        ("git_dirty", Json::Bool(dirty)),
        ("nproc", Json::U64(std::thread::available_parallelism().map_or(0, |n| n.get() as u64))),
        ("seed", Json::U64(plan.seed)),
        ("quick", Json::Bool(plan.scale == Scale::Quick)),
        ("workloads", Json::Object(workloads)),
    ])
}

/// Print one workload's report: every metric by name with its unit.
pub fn print_report(r: &WorkloadReport) {
    println!();
    println!(
        "== {}  ({} reps kept, {} discarded as noisy; {} ops attempted, {} failed; {} latency samples; digest {})",
        r.name, r.reps_kept, r.reps_discarded, r.attempted, r.failed, r.samples, r.digest
    );
    println!(
        "  {:<28} {:>8} {:>16} {:>16} {:>16} {:>8} {:>7}",
        "end-to-end", "unit", "median", "q1", "q3", "spread", "bound"
    );
    for (m, s) in &r.end_to_end {
        println!(
            "  {:<28} {:>8} {:>16.6} {:>16.6} {:>16.6} {:>7.2}% {:>6.1}%",
            m.name,
            m.unit,
            s.median,
            s.q1,
            s.q3,
            s.spread() * 100.0,
            m.bound * 100.0
        );
    }
    println!("  {:<28} {:>8} {:>16.6}", "failed_ops_share", "ratio", r.failed_ops_share());
    if !r.per_layer.is_empty() {
        println!("  {:<44} {:>8} {:>20}", "per-layer (traced run)", "unit", "value");
        for (m, v) in &r.per_layer {
            println!("  {:<44} {:>8} {:>20.6}", m.name, m.unit, v);
        }
    }
    for c in &r.checks {
        println!("  check {:<44} {}  {}", c.name, if c.ok { "ok  " } else { "FAIL" }, c.detail);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn child(window_s: f64, digest: &str) -> ChildResult {
        ChildResult {
            workload: String::from("tpcc_local"),
            traced: false,
            setup_s: 0.25,
            window_s,
            off_cpu_share: Some(0.01),
            peak_rss_mb: 240.0,
            ops: 1000,
            attempted: 1000,
            failed: 0,
            samples: 1000,
            sim: END_TO_END
                .iter()
                .filter(|m| !m.host)
                .map(|m| (String::from(m.name), 2.0))
                .collect(),
            digest: String::from(digest),
            fingerprint: Some(String::from("ff")),
            checks: vec![Check::eq("own", 1, 1)],
            counters: Json::object([("db.commits", Json::U64(1000))]),
            layers: vec![(String::from("bench.run.host_s"), window_s)],
        }
    }

    fn runs(kept: Vec<ChildResult>, traced: Option<ChildResult>) -> WorkloadRuns {
        WorkloadRuns { name: "tpcc_local", kept, discarded: 1, traced }
    }

    #[test]
    fn host_metrics_are_medians_and_sim_metrics_exact() {
        let r = report(&runs(vec![child(5.0, "d"), child(4.0, "d"), child(8.0, "d")], None));
        assert!(r.correct());
        let get = |n: &str| &r.end_to_end.iter().find(|(m, _)| m.name == n).unwrap().1;
        assert_eq!(get("host_ops_per_s").median, 200.0);
        assert_eq!(get("host_ops_per_s").values, vec![200.0, 250.0, 125.0]);
        assert_eq!(get("sim_lat_p99_us").median, 2.0);
        assert_eq!(get("sim_lat_p99_us").spread(), 0.0);
        assert_eq!(r.end_to_end.len(), END_TO_END.len());
        assert!(r.per_layer.is_empty());
        assert_eq!((r.reps_kept, r.reps_discarded, r.failed_ops_share()), (3, 1, 0.0));
    }

    #[test]
    fn a_rep_that_differs_fails_the_run() {
        let r = report(&runs(vec![child(5.0, "d"), child(5.0, "other")], None));
        assert!(!r.correct());
        assert_eq!(r.failed_ops_share(), 1.0);
        let failing: Vec<&str> =
            r.checks.iter().filter(|c| !c.ok).map(|c| c.name.as_str()).collect();
        assert_eq!(failing, ["rep_digest_repeats"]);
    }

    #[test]
    fn a_failed_child_check_fails_the_run_even_if_another_rep_passed() {
        let mut bad = child(5.0, "d");
        bad.checks = vec![Check::eq("own", 1, 2)];
        let r = report(&runs(vec![child(5.0, "d"), bad], None));
        assert!(!r.correct());
        assert!(r.checks.iter().any(|c| c.name == "own" && !c.ok));
    }

    #[test]
    fn traced_run_fills_every_per_layer_name_and_the_overhead() {
        let mut traced = child(5.5, "d");
        traced.traced = true;
        let r = report(&runs(vec![child(5.0, "d")], Some(traced)));
        assert!(r.correct());
        assert_eq!(r.per_layer.len(), PER_LAYER.len());
        let get = |n: &str| r.per_layer.iter().find(|(m, _)| m.name == n).unwrap().1;
        assert!((get("trace.overhead_pct") - 10.0).abs() < 1e-9);
        assert_eq!(get("bench.run.host_s"), 5.5);
        assert_eq!(get("tpcc.new_order"), 0.0);
        // A traced run with different simulated results is a failure.
        let mut off = child(5.5, "x");
        off.traced = true;
        assert!(!report(&runs(vec![child(5.0, "d")], Some(off))).correct());
    }

    #[test]
    fn budget_policy_runs_min_then_until_seconds() {
        let reps = Reps::Budget { seconds: 12.0, min: 3, max: 5 };
        let mut kept = vec![];
        assert!(wants_more(reps, &kept));
        kept.extend([child(5.0, "d"), child(5.0, "d")]);
        assert!(wants_more(reps, &kept)); // below min
        kept.push(child(5.0, "d"));
        assert!(!wants_more(reps, &kept)); // 15 s >= 12 s
        let fast = vec![child(2.0, "d"); 4];
        assert!(wants_more(reps, &fast)); // 8 s < 12 s
        let fast = vec![child(2.0, "d"); 5];
        assert!(!wants_more(reps, &fast)); // max
        assert!(wants_more(Reps::Fixed(2), &[child(1.0, "d")]));
        assert!(!wants_more(Reps::Fixed(1), &[child(1.0, "d")]));
    }

    #[test]
    fn document_carries_names_units_and_bounds() {
        let plan = Plan {
            workloads: vec![],
            seed: 7,
            scale: Scale::Quick,
            reps: Reps::Fixed(1),
            retry_budget: 0,
            traced: false,
            out_dir: PathBuf::from("out"),
        };
        let r = report(&runs(vec![child(5.0, "d"), child(4.0, "d")], None));
        let doc = json::parse(&document(&plan, &[r]).pretty()).unwrap();
        let w = json::get(json::get(&doc, "workloads").unwrap(), "tpcc_local").unwrap();
        let m = json::get(json::get(w, "end_to_end").unwrap(), "host_ops_per_s").unwrap();
        assert_eq!(json::as_str(json::get(m, "unit").unwrap()), Some("ops/s"));
        assert_eq!(json::as_str(json::get(m, "clock").unwrap()), Some("host"));
        assert_eq!(json::as_f64(json::get(m, "median").unwrap()), Some(225.0));
        assert_eq!(json::items(json::get(m, "values").unwrap()).len(), 2);
        assert_eq!(json::as_u64(json::get(&doc, "seed").unwrap()), Some(7));
        assert!(matches!(json::get(w, "correct"), Some(Json::Bool(true))));
    }
}
