//! Ablation — the Destage module's latency threshold (paper §4.3: "the
//! module may also decide to destage less data than a page in order to meet
//! a given latency threshold. It uses filler data to complete a page").
//!
//! The threshold trades NAND space efficiency (filler bytes per page)
//! against log read freshness (how long the tail takes to become readable
//! on the conventional side). A slow trickle of sub-page appends makes the
//! trade-off visible.
//!
//! The filler fraction is derived from the destage module's own telemetry
//! (`core.destage.lane0.{full,partial}_pages`, `filler_bytes`); per-deadline
//! snapshots land in `results/ablation_destage_deadline.json`.

use simkit::{MetricsRegistry, SimDuration, SimTime, Snapshot};
use xssd_bench::table::{Cell, Col, Table};
use xssd_bench::{cli, section, sweep, Measurement, Report};
use xssd_core::{Cluster, DestageConfig, VillarsConfig, XLogFile};

fn device(max_latency: SimDuration) -> (Cluster, usize) {
    let mut config = VillarsConfig::villars_sram();
    config.destage = DestageConfig { ring_lbas: 1 << 16, max_latency };
    let mut cl = Cluster::new();
    let dev = cl.add_device(config);
    (cl, dev)
}

fn run(max_latency: SimDuration) -> Snapshot {
    let record = vec![0x33u8; 512];

    // Run A — space efficiency: paced appends only (512 B every 100 µs);
    // the destage module accumulates what the deadline allows.
    let (mut cl, dev) = device(max_latency);
    let mut f = XLogFile::open(dev);
    let mut now = SimTime::ZERO;
    for _ in 0..400 {
        let t = f.x_pwrite(&mut cl, now, &record).expect("append");
        now = t.max(now) + SimDuration::from_micros(100);
        cl.advance(now);
    }
    cl.advance(now + max_latency + SimDuration::from_millis(2));
    let page_bytes = cl.device(dev).config().conventional.geometry.page_bytes as u64;

    // Run B — freshness: a reader waits for each record to reach NAND (the
    // blocking read intentionally exposes the worst-case deadline wait).
    let (mut cl_b, dev_b) = device(max_latency);
    let mut f = XLogFile::open(dev_b);
    let mut now = SimTime::ZERO;
    let mut freshness = simkit::SampleSeries::new();
    for _ in 0..50 {
        let written_at = f.x_pwrite(&mut cl_b, now, &record).expect("append");
        let (readable_at, _bytes) = f.x_pread(&mut cl_b, written_at, record.len()).expect("tail");
        freshness.record(readable_at.saturating_since(written_at).as_micros_f64());
        now = readable_at + SimDuration::from_micros(100);
    }

    // Snapshot run A's device stack (the space-efficiency run), tagged with
    // run B's freshness outcome.
    let mut reg = MetricsRegistry::new();
    reg.collect("", &cl);
    reg.counter("bench.page_bytes", page_bytes);
    reg.gauge("bench.read_freshness_us", freshness.mean());
    reg.snapshot()
}

/// (filler fraction, mean tail-read freshness µs) from the snapshot.
fn derive(snap: &Snapshot) -> (f64, f64) {
    let total_pages = snap.counter("core.destage.lane0.full_pages")
        + snap.counter("core.destage.lane0.partial_pages");
    let filler_fraction = if total_pages == 0 {
        0.0
    } else {
        snap.counter("core.destage.lane0.filler_bytes") as f64
            / (total_pages * snap.counter("bench.page_bytes")) as f64
    };
    (filler_fraction, snap.gauge("bench.read_freshness_us"))
}

fn main() {
    cli::no_args("ablation_destage_deadline", "Filler waste vs. tail-read freshness");
    let mut report = Report::new(
        "ablation_destage_deadline",
        "Ablation: destage latency threshold",
        "Filler waste vs. tail-read freshness for the destage deadline",
        "512 B appends every 100 us; deadline swept 50 us - 5 ms",
    );
    section("per-deadline outcome");
    let table = Table::new(&[
        Col::left("deadline_us", 14),
        Col::right("filler_frac", 16),
        Col::right("read_freshness_us", 20),
    ]);
    println!("{}", table.header());
    let deadlines = [50u64, 200, 1000, 5000];
    let snaps = sweep::map(&deadlines, |&us| run(SimDuration::from_micros(us)));
    for (&deadline_us, snap) in deadlines.iter().zip(snaps) {
        let (filler_fraction, freshness_us) = derive(&snap);
        report.row(
            &table.row(&[
                Cell::Int(deadline_us),
                Cell::Float(filler_fraction, 3),
                Cell::Float(freshness_us, 1),
            ]),
            Measurement::point(
                "ablation_deadline",
                "destage-deadline",
                deadline_us as f64,
                "deadline_us",
                filler_fraction,
                "filler_fraction",
            )
            .with_extra(freshness_us),
        );
        report.telemetry(format!("deadline{deadline_us}us"), snap);
    }
    report.finish().expect("write results json");
}
