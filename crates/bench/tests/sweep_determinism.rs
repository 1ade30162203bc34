//! The enforced half of the sweep determinism contract: the same figure
//! grid run at `XSSD_BENCH_THREADS=1` (the sequential oracle) and at
//! `XSSD_BENCH_THREADS=N` must produce byte-identical `results/*.json`
//! *and* byte-identical stdout. Cells are isolated simulations and
//! collection is ordered by grid position, so nothing — not even float
//! summarization order — may depend on the thread count.
//!
//! `scripts/check_results.sh` enforces the same property against the
//! committed goldens for every harness; this test pins it at the
//! unit level with two fast multi-cell harnesses so `cargo test` catches a
//! contract break without the release-build round trip.

use std::path::Path;
use std::process::{Command, Output};

/// Run one harness binary with the given thread knob, results redirected
/// into `dir`.
fn run_harness(exe: &str, threads: &str, dir: &Path) -> Output {
    Command::new(exe)
        .env("XSSD_BENCH_THREADS", threads)
        .env("XSSD_RESULTS_DIR", dir)
        .output()
        .expect("harness binary runs")
}

/// Assert sequential (threads=1) and parallel (threads=4) runs of `exe`
/// emit byte-identical stdout and a byte-identical results file.
fn assert_thread_count_invariant(exe: &str, result_name: &str) {
    let base = std::env::temp_dir().join(format!("xssd_sweep_det_{result_name}"));
    let seq_dir = base.join("seq");
    let par_dir = base.join("par");
    std::fs::create_dir_all(&seq_dir).expect("mkdir seq");
    std::fs::create_dir_all(&par_dir).expect("mkdir par");

    let seq = run_harness(exe, "1", &seq_dir);
    let par = run_harness(exe, "4", &par_dir);
    assert!(seq.status.success(), "sequential run failed: {seq:?}");
    assert!(par.status.success(), "parallel run failed: {par:?}");

    // Stdout is printed by the ordered collection loop — identical bytes.
    assert_eq!(
        String::from_utf8_lossy(&seq.stdout).replace(seq_dir.to_str().expect("utf8 path"), "DIR"),
        String::from_utf8_lossy(&par.stdout).replace(par_dir.to_str().expect("utf8 path"), "DIR"),
        "{result_name}: stdout depends on XSSD_BENCH_THREADS"
    );

    let seq_json = std::fs::read(seq_dir.join(format!("{result_name}.json"))).expect("seq json");
    let par_json = std::fs::read(par_dir.join(format!("{result_name}.json"))).expect("par json");
    assert_eq!(seq_json, par_json, "{result_name}: results JSON depends on XSSD_BENCH_THREADS");

    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn destage_deadline_grid_is_thread_count_invariant() {
    assert_thread_count_invariant(
        env!("CARGO_BIN_EXE_ablation_destage_deadline"),
        "ablation_destage_deadline",
    );
}

#[test]
fn replication_policy_grid_is_thread_count_invariant() {
    assert_thread_count_invariant(
        env!("CARGO_BIN_EXE_ablation_replication_policy"),
        "ablation_replication_policy",
    );
}
