//! Ablation — host-managed PM destaging vs. in-device destaging.
//!
//! Paper §5.1 ("Destaging Efficiency"): an application that logs to
//! host-attached PM and destages to an SSD moves every logged byte four
//! times through the host memory system (write to PM, read from PM, DMA
//! into the device buffer, buffer to flash); a Villars device does it in
//! two (host to CMB, CMB to flash). This harness counts the host-side
//! memory-bus bytes per logged byte and the host time consumed.
//!
//! The Villars row is derived from the device's telemetry snapshot (CMB
//! intake and destage counters); `results/ablation_data_movements.json`
//! carries both paths' snapshots.

use simkit::{Bandwidth, MetricsRegistry, SimTime, Snapshot};
use xssd_bench::table::{Cell, Col, Table};
use xssd_bench::{cli, section, sweep, Measurement, Report};
use xssd_core::{Cluster, VillarsConfig, XLogFile};

struct Movements {
    host_bus_bytes_per_logged: f64,
    /// Host memory-bus occupancy per logged MiB (time the memory system is
    /// busy with log traffic, at the DIMM bandwidth).
    bus_us_per_mib: f64,
    /// End-to-end time to make one MiB durable on NAND, for context.
    e2e_us_per_mib: f64,
}

const MEM_BW_GBPS: f64 = 8.0;

/// Host-managed path: the log bytes cross the host memory bus three times —
/// (1) stored into PM, (2) read back for destaging, (3) pulled again by the
/// device's DMA from host memory. The fourth movement of paper §5.1
/// (device buffer → flash) is inside the device. Analytic, so its snapshot
/// holds only the `bench.*` model inputs/outputs.
fn host_managed(total: u64) -> Snapshot {
    let mem_bw = Bandwidth::gbytes_per_sec(MEM_BW_GBPS);
    let host_bytes = 3 * total;
    let bus_time = mem_bw.transfer_time(host_bytes);
    // End-to-end: PM store, then destage read + DMA over the x4 link, then
    // the flash program pipeline (~device bandwidth 2 GB/s).
    let link = Bandwidth::gbytes_per_sec(2.0);
    let e2e = mem_bw.transfer_time(total)
        + link.transfer_time(total)
        + Bandwidth::gbytes_per_sec(2.0).transfer_time(total);
    let mut reg = MetricsRegistry::new();
    reg.counter("bench.logged_bytes", total);
    reg.counter("bench.host_bus_bytes", host_bytes);
    reg.counter("bench.host_bus_busy_ns", bus_time.as_nanos());
    reg.counter("bench.e2e_ns", e2e.as_nanos());
    reg.snapshot()
}

/// Villars path: the host memory bus sees each byte once (the source read
/// feeding the MMIO store stream); destaging is device-internal. The whole
/// device stack is snapshotted after the run.
fn villars(total: u64) -> Snapshot {
    let mut cl = Cluster::new();
    let dev = cl.add_device(VillarsConfig::villars_sram());
    let mut f = XLogFile::open(dev);
    let chunk = vec![0u8; 16 << 10];
    let mut now = SimTime::ZERO;
    let mut written = 0u64;
    while written < total {
        now = f.x_pwrite(&mut cl, now, &chunk).expect("write");
        written += chunk.len() as u64;
    }
    now = f.x_fsync(&mut cl, now).expect("fsync");
    let mem_bw = Bandwidth::gbytes_per_sec(MEM_BW_GBPS);
    let mut reg = MetricsRegistry::new();
    reg.collect("", &cl);
    reg.counter("bench.logged_bytes", total);
    // One host-bus crossing: the source read feeding the MMIO stores.
    reg.counter("bench.host_bus_bytes", total);
    reg.counter("bench.host_bus_busy_ns", mem_bw.transfer_time(total).as_nanos());
    reg.counter("bench.e2e_ns", now.saturating_since(SimTime::ZERO).as_nanos());
    reg.snapshot()
}

fn derive(snap: &Snapshot) -> Movements {
    let total = snap.counter("bench.logged_bytes") as f64;
    let mib = total / (1 << 20) as f64;
    Movements {
        host_bus_bytes_per_logged: snap.counter("bench.host_bus_bytes") as f64 / total,
        bus_us_per_mib: snap.counter("bench.host_bus_busy_ns") as f64 / 1e3 / mib,
        e2e_us_per_mib: snap.counter("bench.e2e_ns") as f64 / 1e3 / mib,
    }
}

fn main() {
    cli::no_args("ablation_data_movements", "Host memory-bus traffic: host-managed PM vs. Villars");
    let mut report = Report::new(
        "ablation_data_movements",
        "Ablation: data movements",
        "Host memory-bus traffic per logged byte: host-managed PM vs. Villars",
        "paper §5.1: four movements vs. two; only host-side movements burn host bandwidth",
    );
    let total: u64 = 64 << 20;
    // Two independent cells: the analytic host-managed model and the
    // simulated Villars path.
    let paths = [("host-managed-pm", 0.0), ("villars", 1.0)];
    let snaps = sweep::run(paths.len(), |i| match i {
        0 => host_managed(total),
        _ => villars(total),
    });
    section("host cost per logged byte");
    let table = Table::new(&[
        Col::left("path", 24),
        Col::right("host_bus_bytes/byte", 22),
        Col::right("bus_us_per_MiB", 16),
        Col::right("e2e_us_per_MiB", 16),
    ]);
    println!("{}", table.header());
    for (&(label, x), snap) in paths.iter().zip(snaps) {
        let m = derive(&snap);
        report.row(
            &table.row(&[
                Cell::str(label),
                Cell::Float(m.host_bus_bytes_per_logged, 1),
                Cell::Float(m.bus_us_per_mib, 1),
                Cell::Float(m.e2e_us_per_mib, 1),
            ]),
            Measurement::point(
                "ablation_movements",
                label,
                x,
                "path",
                m.host_bus_bytes_per_logged,
                "host_bus_bytes_per_logged_byte",
            )
            .with_extra(m.bus_us_per_mib),
        );
        report.telemetry(label, snap);
    }
    report.finish().expect("write results json");
}
