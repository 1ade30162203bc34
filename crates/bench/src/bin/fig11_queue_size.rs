//! Fig. 11 — Effects of CMB Queue Size.
//!
//! "Latency (top) and throughput (bottom) of different group commit sizes
//! (x-axis) with varying device queue sizes (colors) when writing to device
//! SRAM" (paper §6.3). The queue size determines how much the database can
//! write before re-checking the credit counter: a queue smaller than the
//! write adds credit-check round trips.
//!
//! Printed numbers come from each run's telemetry snapshot (latency summary
//! plus `bench.*` volume counters); `results/fig11_queue_size.json` embeds
//! the snapshots, including `core.fast.credit_reads` — the round trips the
//! paper's queue-size effect is made of.

use simkit::Snapshot;
use xssd_bench::table::{Cell, Col, Table};
use xssd_bench::{cli, kernels, section, sweep, Measurement, Report};

/// (mean latency µs, MB/s) derived from the snapshot.
fn derive(snap: &Snapshot) -> (f64, f64) {
    let lat_us = snap.latency("bench.commit_us").mean;
    let bytes = snap.counter("bench.payload_bytes") as f64;
    let secs = snap.counter("bench.elapsed_ns") as f64 / 1e9;
    let mbps = if secs > 0.0 { bytes / secs / 1e6 } else { 0.0 };
    (lat_us, mbps)
}

fn main() {
    cli::no_args("fig11_queue_size", "Group-commit size vs. CMB intake-queue size (SRAM)");
    let mut report = Report::new(
        "fig11_queue_size",
        "Figure 11",
        "Group-commit size vs. CMB intake-queue size (SRAM backing)",
        "x_pwrite+x_fsync cycles; queue sizes 1-32 KiB; write sizes 1-64 KiB",
    );
    let queues = [1u64 << 10, 4 << 10, 16 << 10, 32 << 10];
    let writes = [1usize << 10, 4 << 10, 16 << 10, 32 << 10, 64 << 10];
    let grid: Vec<(u64, usize)> =
        queues.iter().flat_map(|&q| writes.iter().map(move |&w| (q, w))).collect();
    let snaps = sweep::map(&grid, |&(q, wsize)| kernels::queue_size_cycles(q, wsize, 300).0);
    section("latency (us) and throughput (MB/s) per (queue, write) pair");
    let table = Table::new(&[
        Col::left("queue_KiB", 12),
        Col::right("write_KiB", 12),
        Col::right("latency_us", 14),
        Col::right("MB/s", 14),
    ]);
    println!("{}", table.header());
    for (&(q, wsize), snap) in grid.iter().zip(snaps) {
        let (lat_us, mbps) = derive(&snap);
        let series = format!("queue-{}KiB", q >> 10);
        report.row(
            &table.row(&[
                Cell::Int(q >> 10),
                Cell::from(wsize >> 10),
                Cell::Float(lat_us, 2),
                Cell::Float(mbps, 1),
            ]),
            Measurement::point(
                "fig11",
                series.clone(),
                (wsize >> 10) as f64,
                "group_commit_KiB",
                lat_us,
                "latency_us",
            )
            .with_extra(mbps),
        );
        report.telemetry(format!("{series}.write{}KiB", wsize >> 10), snap);
        if wsize == writes[writes.len() - 1] {
            println!();
        }
    }
    report.finish().expect("write results json");
}
