//! Fig. 13 — Replication Delay.
//!
//! Paper §6.5: a primary/secondary pair of Villars devices; the secondary
//! forwards its credit counter every 0.4–1.6 µs. Measured: the delay from a
//! CMB write on the primary until the primary's shadow counter confirms the
//! write reached the secondary (candlesticks), plus the PCIe bandwidth the
//! counter updates consume at each frequency.
//!
//! The bandwidth share is derived from the secondary's upstream-flow wire
//! counters in the telemetry snapshot; both devices' full snapshots ship in
//! `results/fig13_replication_delay.json`.

use pcie::MmioMode;
use simkit::{MetricsRegistry, SampleSeries, SimDuration, SimTime, Snapshot};
use xssd_bench::table::{Cell, Col, Table};
use xssd_bench::{cli, section, sweep, Measurement, Report};
use xssd_core::{vendor, Cluster, VillarsConfig};

/// One period setting: returns the latency candlestick (exact samples) and
/// the run's telemetry snapshot.
fn run(period: SimDuration, writes: usize) -> (simkit::Candlestick, Snapshot) {
    let mut cl = Cluster::new();
    let p = cl.add_device(VillarsConfig::villars_sram());
    let s = cl.add_device(VillarsConfig::villars_sram());
    let mut now = cl.configure_replication(SimTime::ZERO, p, &[s]);
    // Set the swept update period on the secondary via the vendor command:
    // one tagged submission on the device's I/O port, then the shared
    // closed-loop wait.
    let tag = cl.submit(
        s,
        now,
        nvme::CommandKind::Admin(nvme::AdminCommand::Vendor(nvme::VendorCommand::new(
            vendor::SET_SHADOW_PERIOD,
            [period.as_nanos() as u32, 0, 0, 0, 0, 0],
        ))),
    );
    let done = cl.wait_for_completion(s, now, tag);
    assert!(done.entry.status.is_ok());
    now = done.at;

    let chunk = vec![0xABu8; 64];
    let mut offset = 0u64;
    let mut lat = SampleSeries::new();
    for i in 0..writes {
        // Space writes out so each measurement is independent.
        let issue_at = now + SimDuration::from_micros(20 + (i as u64 % 7));
        let (_iss, arr) = cl
            .fast_write(p, issue_at, offset, &chunk, MmioMode::WriteCombining)
            .expect("primary fast write");
        offset += chunk.len() as u64;
        // Step the cluster event by event until the shadow counter on the
        // primary covers this write.
        let mut t = arr;
        loop {
            cl.advance(t);
            let shadow = cl.device(p).transport().shadow_of(s).unwrap_or(0);
            if shadow >= offset {
                break;
            }
            t = cl.next_event_after(t).expect("the secondary's next update cycle is pending");
        }
        lat.record(t.saturating_since(issue_at).as_micros_f64());
        now = t;
    }
    let mut reg = MetricsRegistry::new();
    reg.collect("", &cl);
    reg.counter("bench.elapsed_ns", now.saturating_since(SimTime::ZERO).as_nanos());
    (lat.candlestick(), reg.snapshot())
}

/// Counter-update bandwidth share (%) of the secondary's upstream NTB flow,
/// derived from the snapshot's wire counters. The secondary is `dev1`.
fn derive_bw_pct(snap: &Snapshot) -> f64 {
    let wire_bytes = (snap.counter("dev1.core.transport.upstream.payload_bytes")
        + snap.counter("dev1.core.transport.upstream.overhead_bytes")) as f64;
    let secs = snap.counter("bench.elapsed_ns") as f64 / 1e9;
    let link_bps = pcie::NTB_LINK.bandwidth().as_gbytes_per_sec() * 1e9;
    if secs > 0.0 {
        wire_bytes / (link_bps * secs) * 100.0
    } else {
        0.0
    }
}

fn main() {
    cli::no_args("fig13_replication_delay", "Shadow-counter refresh latency vs. frequency");
    let mut report = Report::new(
        "fig13_replication_delay",
        "Figure 13",
        "Shadow-counter refresh latency and bandwidth vs. update frequency",
        "primary/secondary Villars pair over NTB; 64 B CMB writes; period 0.4-1.6 us",
    );
    section("latency candlesticks (us) and update-bandwidth share (%)");
    let table = Table::new(&[
        Col::left("period_us", 12),
        Col::right("min", 8),
        Col::right("p25", 8),
        Col::right("p50", 8),
        Col::right("p75", 8),
        Col::right("max", 8),
        Col::right("bw_%", 10),
    ]);
    println!("{}", table.header());
    let periods = [0.4f64, 0.8, 1.2, 1.6];
    let cells = sweep::map(&periods, |&us| run(SimDuration::from_micros_f64(us), 400));
    for (&period_us, (c, snap)) in periods.iter().zip(cells) {
        let bw_pct = derive_bw_pct(&snap);
        report.row(
            &table.row(&[
                Cell::Float(period_us, 1),
                Cell::Float(c.min, 2),
                Cell::Float(c.p25, 2),
                Cell::Float(c.p50, 2),
                Cell::Float(c.p75, 2),
                Cell::Float(c.max, 2),
                Cell::Float(bw_pct, 2),
            ]),
            Measurement::point(
                "fig13",
                "shadow-refresh",
                period_us,
                "update_period_us",
                c.p50,
                "latency_us_p50",
            )
            .with_extra(bw_pct)
            .with_candle(c),
        );
        report.telemetry(format!("period{period_us}us"), snap);
    }
    report.finish().expect("write results json");
}
