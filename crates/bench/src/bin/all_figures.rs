//! Run every figure harness and print a combined report.
//!
//! `cargo run --release -p xssd-bench --bin all_figures` regenerates the
//! full evaluation in one go. The harness binaries (`BINS`) are independent
//! processes, so they run *concurrently* — up to `XSSD_BENCH_THREADS` at a
//! time (default: all host cores) on the same [`sweep`] pool the harnesses
//! use internally for their own grids. Each child's stdout/stderr is
//! captured and replayed as one contiguous block in the fixed harness
//! order, so the combined report reads exactly like a sequential run, and
//! the summary lists per-harness wall-clock alongside the total.
//!
//! `results/*.json` files are written by the children themselves and are
//! byte-identical at any concurrency (each child is a self-contained
//! simulation); only wall-clock changes with the thread count.

use std::io::Write;
use std::process::{Command, Output};
use std::time::{Duration, Instant};
use xssd_bench::{cli, sweep};

/// Every harness binary, in report order.
const BINS: [&str; 12] = [
    "fig09_local_logging",
    "fig10_write_combining",
    "fig11_queue_size",
    "fig12_destage_priority",
    "fig13_replication_delay",
    "fig_ycsb",
    "ablation_data_movements",
    "ablation_replication_policy",
    "ablation_replicated_tpcc",
    "ablation_destage_deadline",
    "ablation_recovery",
    "chaos_tpcc",
];

fn main() {
    cli::no_args("all_figures", "run every figure harness and print a combined report");
    let me = std::env::current_exe().expect("own path");
    let dir = me.parent().expect("bin dir").to_path_buf();
    let threads = sweep::threads();
    let total_start = Instant::now();

    // One cell per harness: launch the child, wait, keep its captured
    // output and wall-clock. Children inherit XSSD_BENCH_THREADS, so each
    // also sweeps its own grid in parallel; the OS scheduler shares the
    // cores between the concurrent children.
    let runs: Vec<(std::io::Result<Output>, Duration)> = sweep::run(BINS.len(), |i| {
        let start = Instant::now();
        let out = Command::new(dir.join(BINS[i])).output();
        (out, start.elapsed())
    });
    let total = total_start.elapsed();

    // Replay each child's output as a contiguous block, in harness order.
    let mut failures = Vec::new();
    let mut clocks: Vec<(&str, Duration)> = Vec::new();
    let stdout = std::io::stdout();
    for (bin, (result, elapsed)) in BINS.iter().zip(runs) {
        println!();
        match result {
            Ok(out) => {
                let mut lock = stdout.lock();
                lock.write_all(&out.stdout).expect("replay child stdout");
                lock.flush().expect("flush");
                if !out.stderr.is_empty() {
                    std::io::stderr().write_all(&out.stderr).expect("replay child stderr");
                }
                if !out.status.success() {
                    eprintln!("{bin} exited with {}", out.status);
                    failures.push(*bin);
                }
            }
            Err(e) => {
                eprintln!("{bin} failed to launch from {}: {e}", dir.join(bin).display());
                eprintln!("build all binaries first: cargo build --release -p xssd-bench");
                failures.push(*bin);
            }
        }
        clocks.push((bin, elapsed));
    }

    println!();
    println!("--- wall-clock per harness (threads={threads}) ---");
    for (bin, elapsed) in &clocks {
        println!("{:<32} {:>8} ms", bin, elapsed.as_millis());
    }
    println!();
    if failures.is_empty() {
        println!(
            "all {} experiment harnesses completed in {} ms on {} threads",
            BINS.len(),
            total.as_millis(),
            threads
        );
    } else {
        println!("FAILED harnesses: {failures:?}");
        std::process::exit(1);
    }
}
