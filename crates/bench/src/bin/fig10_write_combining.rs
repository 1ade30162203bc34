//! Fig. 10 — Effects of Write Combining.
//!
//! "Comparison of different write sizes under write-combine and uncached
//! when writing to device SRAM (left) and DRAM (right)" (paper §6.2). A
//! synthetic store stream pushes writes of 1–256 bytes through the fast
//! side; throughput is normalized to the best observed value per backing
//! class.
//!
//! Throughput is derived from the device's own telemetry — bytes landed in
//! the CMB (`core.fast.bytes_in`) over the simulated elapsed time — and the
//! per-run snapshots ship in `results/fig10_write_combining.json`.

use pcie::MmioMode;
use simkit::{MetricsRegistry, SimTime, Snapshot};
use xssd_bench::table::{Cell, Col, Table};
use xssd_bench::{cli, section, sweep, Measurement, Report};
use xssd_core::{Cluster, VillarsConfig, XLogFile};

/// Push `total` bytes of `write_size` stores under `mode` and snapshot the
/// device stack, tagging the run's elapsed simulated time.
fn run(config: VillarsConfig, write_size: usize, mode: MmioMode) -> Snapshot {
    let mut cl = Cluster::new();
    let dev = cl.add_device(config);
    let mut f = XLogFile::open_at(dev, mode, 0);
    // Enough volume to reach steady state, in whole-write units.
    let total: usize = 256 << 10;
    let count = total / write_size;
    let data = vec![0xA5u8; write_size];
    let mut now = SimTime::ZERO;
    for _ in 0..count {
        now = f.x_pwrite(&mut cl, now, &data).expect("fast-side write");
    }
    now = f.x_fsync(&mut cl, now).expect("x_fsync");
    let mut reg = MetricsRegistry::new();
    reg.collect("", &cl);
    reg.counter("bench.elapsed_ns", now.saturating_since(SimTime::ZERO).as_nanos());
    reg.counter("bench.payload_bytes", (count * write_size) as u64);
    reg.snapshot()
}

/// Sustained fast-side MB/s, read back out of the run's snapshot.
fn derive_mbps(snap: &Snapshot) -> f64 {
    let bytes = snap.counter("bench.payload_bytes") as f64;
    let secs = snap.counter("bench.elapsed_ns") as f64 / 1e9;
    if secs > 0.0 {
        bytes / secs / 1e6
    } else {
        0.0
    }
}

fn main() {
    cli::no_args("fig10_write_combining", "Write sizes under WC vs. UC, SRAM and DRAM backing");
    let mut report = Report::new(
        "fig10_write_combining",
        "Figure 10",
        "Write sizes under Write-Combining vs. Uncached, SRAM and DRAM backing",
        "synthetic store stream, 1-256 B writes, throughput normalized to the per-backing best",
    );
    let sizes = [1usize, 2, 4, 8, 16, 32, 64, 128, 256];
    let table = Table::new(&[
        Col::left("backing", 8),
        Col::right("write_B", 10),
        Col::right("mode", 6),
        Col::right("MB/s", 12),
        Col::right("normalized", 12),
    ]);
    for (backing, cfg) in
        [("sram", VillarsConfig::villars_sram()), ("dram", VillarsConfig::villars_dram())]
    {
        section(&format!("{backing}-backed CMB"));
        // Sweep the (size, mode) grid for this backing in parallel, then
        // normalize to the best — a cross-cell reduction, which is why it
        // happens here in the ordered collection loop, not in a cell.
        let grid: Vec<(usize, MmioMode)> = sizes
            .iter()
            .flat_map(|&s| [MmioMode::WriteCombining, MmioMode::Uncached].map(|m| (s, m)))
            .collect();
        let snaps = sweep::map(&grid, |&(s, mode)| run(cfg.clone(), s, mode));
        let results: Vec<(usize, MmioMode, f64, Snapshot)> = grid
            .iter()
            .zip(snaps)
            .map(|(&(s, mode), snap)| {
                let t = derive_mbps(&snap);
                (s, mode, t, snap)
            })
            .collect();
        let best = results.iter().map(|(_, _, t, _)| *t).fold(0.0, f64::max);
        println!("{}", table.header());
        for (s, mode, t, snap) in results {
            let mode_label = match mode {
                MmioMode::WriteCombining => "wc",
                MmioMode::Uncached => "uc",
            };
            let series = format!("{backing}-{mode_label}");
            report.row(
                &table.row(&[
                    Cell::str(backing),
                    Cell::from(s),
                    Cell::str(mode_label),
                    Cell::Float(t, 1),
                    Cell::Float(t / best, 3),
                ]),
                Measurement::point(
                    "fig10",
                    series.clone(),
                    s as f64,
                    "write_bytes",
                    t / best,
                    "normalized_throughput",
                )
                .with_extra(t),
            );
            report.telemetry(format!("{series}.{s}B"), snap);
        }
        println!();
    }
    report.finish().expect("write results json");
}
