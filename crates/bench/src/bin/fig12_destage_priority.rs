//! Fig. 12 — Effects of Opportunistic Destaging.
//!
//! Paper §6.4: a conventional workload is sized at ~50% of the device's
//! bandwidth while a fast-side workload sweeps 30–60%. Under *neutral*
//! scheduling both streams lose bandwidth once total demand exceeds the
//! device; under *conventional priority* the conventional stream is
//! protected and the fast stream absorbs the shortfall.
//!
//! The achieved per-class bandwidths are derived from the device telemetry
//! (`ssd.served_conventional_bytes` / `ssd.served_destage_bytes`), and every
//! run's full snapshot lands in `results/fig12_destage_priority.json`.

use nvme::{CommandKind, IoCommand};
use simkit::bytes::Bytes;
use simkit::{MetricsRegistry, SimDuration, SimTime, Snapshot};
use xssd_bench::table::{Cell, Col, Table};
use xssd_bench::{cli, section, sweep, Measurement, Report};
use xssd_core::{Cluster, VillarsConfig, XLogFile};

/// Drive both workloads for `duration`; snapshot the device stack after.
fn run(mode_code: u32, fast_fraction: f64, duration: SimDuration) -> Snapshot {
    let mut config = VillarsConfig::villars_sram();
    // Unconstrained x8 host link so the flash arrays are the bottleneck.
    config.conventional.link = pcie::LinkConfig::cosmos_native();
    // A large destage ring so the fast stream is scheduler-limited, not
    // ring-limited.
    config.destage.ring_lbas = 1 << 20;
    let mut cl = Cluster::new();
    let dev = cl.add_device(config);
    // Select the scheduler policy via the vendor command.
    let (_t, e) = cl.vendor_blocking(
        dev,
        SimTime::ZERO,
        nvme::VendorCommand::new(xssd_core::vendor::SET_SCHED_MODE, [mode_code, 0, 0, 0, 0, 0]),
    );
    assert!(e.status.is_ok());

    // Device program envelope (the flash arrays' aggregate bandwidth).
    let dev_cfg = cl.device(dev).config().conventional.clone();
    let envelope_gbps = dev_cfg.timing.program_bandwidth_gbps(&dev_cfg.geometry);
    let page = dev_cfg.geometry.page_bytes as u64;

    // Conventional stream: 16 KiB writes at 50% of the envelope.
    let conv_rate_bps = envelope_gbps * 0.5 * 1e9;
    let conv_interval = SimDuration::from_secs_f64(page as f64 / conv_rate_bps);
    // Fast stream: x_pwrite pages at the swept fraction.
    let fast_rate_bps = envelope_gbps * fast_fraction * 1e9;
    let fast_interval = SimDuration::from_secs_f64(page as f64 / fast_rate_bps);

    let mut f = XLogFile::open(dev);
    let fast_page = vec![0xFAu8; page as usize];
    let start = SimTime::ZERO;
    let end = start + duration;
    let mut next_conv = start;
    let mut next_fast = start;
    let mut conv_lba = 1 << 21; // away from the destage ring
    let mut completions = Vec::new();

    while next_conv < end || next_fast < end {
        if next_conv <= next_fast {
            if next_conv >= end {
                next_conv = SimTime::MAX;
                continue;
            }
            // Submit one conventional page write through the device's I/O
            // port (asynchronous: the block workload keeps its own queue
            // depth rather than blocking per command).
            cl.device_mut(dev)
                .conventional_mut()
                .stage_write_data(conv_lba, Bytes::from(fast_page.clone()));
            let _tag = cl.submit(
                dev,
                next_conv,
                CommandKind::Io(IoCommand::Write { lba: conv_lba, blocks: 1 }),
            );
            conv_lba += 1;
            next_conv += conv_interval;
            cl.advance(next_conv.min(end));
            // Reap completions so they do not accumulate.
            completions.clear();
            cl.completions_into(dev, next_conv.min(end), &mut completions);
        } else {
            if next_fast >= end {
                next_fast = SimTime::MAX;
                continue;
            }
            let t = f.x_pwrite(&mut cl, next_fast, &fast_page).expect("fast write");
            // Offered pacing: never faster than the offered rate; if the
            // device back-pressured us past the slot, carry on from there.
            next_fast = (next_fast + fast_interval).max(t);
        }
    }
    cl.advance(end);
    completions.clear();
    cl.completions_into(dev, end, &mut completions);
    // Snapshot what the flash arrays actually SERVED within the window —
    // the achieved bandwidth per class, the Fig. 12 metric. (Offered bytes
    // beyond this sit queued behind the scheduler.)
    let mut reg = MetricsRegistry::new();
    reg.collect("", &cl);
    reg.counter("bench.elapsed_ns", duration.as_nanos());
    reg.gauge("bench.fast_offered_pct", fast_fraction * 100.0);
    reg.snapshot()
}

/// (fast offered %, conventional MB/s, fast/destage MB/s) from a snapshot.
fn derive(snap: &Snapshot) -> (f64, f64, f64) {
    let elapsed = snap.counter("bench.elapsed_ns") as f64 / 1e9;
    let conv_bytes = snap.counter("ssd.served_conventional_bytes") as f64;
    let dest_bytes = snap.counter("ssd.served_destage_bytes") as f64;
    (snap.gauge("bench.fast_offered_pct"), conv_bytes / elapsed / 1e6, dest_bytes / elapsed / 1e6)
}

fn main() {
    cli::no_args("fig12_destage_priority", "Opportunistic destaging: scheduler policy sweep");
    let mut report = Report::new(
        "fig12_destage_priority",
        "Figure 12",
        "Opportunistic destaging: neutral vs. conventional priority",
        "conventional stream fixed at 50% of device bandwidth; fast stream swept 30-60%",
    );
    let duration = SimDuration::from_millis(60);
    // The paper shows neutral and conventional priority and notes the
    // destage-priority result is symmetric ("we obtained a similar result
    // when using destage priority"); all three run here.
    let modes = [(0u32, "neutral"), (2u32, "conventional-priority"), (1u32, "destage-priority")];
    let fractions = [0.30, 0.40, 0.50, 0.60];
    let grid: Vec<(u32, &str, f64)> = modes
        .iter()
        .flat_map(|&(code, label)| fractions.iter().map(move |&f| (code, label, f)))
        .collect();
    let snaps = sweep::map(&grid, |&(code, _, fast_pct)| run(code, fast_pct, duration));
    let table = Table::new(&[
        Col::left("mode", 24),
        Col::right("fast_off_%", 12),
        Col::right("conv_MB/s", 16),
        Col::right("fast_MB/s", 16),
    ]);
    for (&(_, mode_label, fast_pct), snap) in grid.iter().zip(snaps) {
        if fast_pct == fractions[0] {
            section(mode_label);
            println!("{}", table.header());
        }
        let (offered_pct, conv_mbps, fast_mbps) = derive(&snap);
        report.row(
            &table.row(&[
                Cell::str(mode_label),
                Cell::Float(offered_pct, 0),
                Cell::Float(conv_mbps, 1),
                Cell::Float(fast_mbps, 1),
            ]),
            Measurement::point(
                "fig12",
                format!("{mode_label}-conventional"),
                offered_pct,
                "fast_offered_pct",
                conv_mbps,
                "conv_MBps",
            )
            .with_extra(fast_mbps),
        );
        report.telemetry(format!("{mode_label}.fast{:.0}pct", fast_pct * 100.0), snap);
        if fast_pct == fractions[fractions.len() - 1] {
            println!();
        }
    }
    report.finish().expect("write results json");
}
