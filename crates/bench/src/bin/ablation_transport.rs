//! Ablation — NTB vs. RDMA as the log-shipping transport.
//!
//! Paper §2.3 motivates NTB over RDMA: no packet-format conversion and no
//! visible-but-not-persistent hazard (an RDMA write can land in the remote
//! CPU's cache via DDIO and need an extra flush round trip to be durable).
//! This ablation quantifies both effects for log-chunk shipping.
//!
//! Per-chunk snapshots (NTB wire counters + the three measured latencies)
//! go to `results/ablation_transport.json`; the table prints from them.

use pcie::{NtbConfig, NtbPort, RdmaConfig, RdmaTransport, TranslationWindow};
use simkit::{MetricsRegistry, SimDuration, SimTime, Snapshot};
use xssd_bench::table::{Cell, Col, Table};
use xssd_bench::{cli, section, sweep, Measurement, Report};

fn ntb_one_way(chunk: u64) -> (f64, NtbPort) {
    let mut port = NtbPort::new(NtbConfig::default(), pcie::HostId(1));
    port.add_window(TranslationWindow {
        local_base: 0,
        len: 1 << 30,
        remote_host: pcie::HostId(1),
        remote_base: 0,
    });
    // Shipped through the mirror flow's forwarding function as 64-byte
    // (WC-sized) TLPs, the whole chunk back to back (a zero period).
    let tlps = chunk / pcie::WC_BUFFER_BYTES;
    let (first, spacing) = port
        .forward_stream(SimTime::ZERO, 0, pcie::WC_BUFFER_BYTES as u32, SimDuration::ZERO, tlps)
        .expect("mapped");
    ((first.end + spacing * (tlps - 1)).as_micros_f64(), port)
}

fn rdma_persistent(chunk: u64) -> f64 {
    let mut t = RdmaTransport::new(RdmaConfig::default());
    t.write_persistent(SimTime::ZERO, chunk).end.as_micros_f64()
}

fn rdma_visible(chunk: u64) -> f64 {
    let mut t = RdmaTransport::new(RdmaConfig::default());
    t.write_visible(SimTime::ZERO, chunk).end.as_micros_f64()
}

/// One chunk size, all three transports, one snapshot.
fn run(chunk: u64) -> Snapshot {
    let (ntb_us, port) = ntb_one_way(chunk);
    let mut reg = MetricsRegistry::new();
    reg.collect("pcie.ntb", &port);
    reg.counter("bench.chunk_bytes", chunk);
    reg.gauge("bench.ntb_us", ntb_us);
    reg.gauge("bench.rdma_visible_us", rdma_visible(chunk));
    reg.gauge("bench.rdma_persist_us", rdma_persistent(chunk));
    reg.snapshot()
}

fn main() {
    cli::no_args("ablation_transport", "NTB vs. RDMA latency to remote persistence");
    let mut report = Report::new(
        "ablation_transport",
        "Ablation: transport",
        "NTB vs. RDMA for shipping one log chunk (one-way, until remotely persistent)",
        "NTB: Dolphin-class daisy chain; RDMA: 100 Gb/s RoCE with DDIO persistence flush",
    );
    section("latency to remote persistence (us)");
    let table = Table::new(&[
        Col::left("chunk_B", 12),
        Col::right("ntb_us", 12),
        Col::right("rdma_visible_us", 16),
        Col::right("rdma_persist_us", 16),
    ]);
    println!("{}", table.header());
    let chunks = [64u64, 256, 1024, 4096, 16384, 65536];
    let snaps = sweep::map(&chunks, |&chunk| run(chunk));
    for (&chunk, snap) in chunks.iter().zip(snaps) {
        let ntb = snap.gauge("bench.ntb_us");
        let vis = snap.gauge("bench.rdma_visible_us");
        let per = snap.gauge("bench.rdma_persist_us");
        report.row(
            &table.row(&[
                Cell::Int(chunk),
                Cell::Float(ntb, 2),
                Cell::Float(vis, 2),
                Cell::Float(per, 2),
            ]),
            Measurement::point(
                "ablation_transport",
                "ntb",
                chunk as f64,
                "chunk_bytes",
                ntb,
                "latency_us",
            )
            .with_extra(per),
        );
        report.telemetry(format!("chunk{chunk}B"), snap);
    }
    println!();
    println!("expected: NTB beats RDMA-persistent at every chunk size (no conversion,");
    println!("no flush round trip); the gap narrows for large chunks where wire time");
    println!("dominates fixed costs (RDMA's 100 Gb/s wire is faster than the NTB share).");
    report.finish().expect("write results json");
}
