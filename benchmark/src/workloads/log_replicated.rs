//! `log_replicated` — the replication path, no database.
//!
//! One client in a closed loop issues `x_pwrite` + `x_fsync` cycles against
//! a primary Villars-SRAM device with two eager secondaries over NTB
//! (§4.2 / Fig. 13): the fsync returns once the byte is persistent on all
//! three. Write size is drawn per cycle from three classes — small
//! 64 B–1 KiB 40 %, medium 2–6 KiB 35 %, large 12–16 KiB 25 %, uniform
//! within a class in 8 B steps — so write-combining efficiency (partial
//! TLPs) and destage filler both show; the payload is a function of
//! (seed, log offset). Between cycles the
//! client thinks for a seeded 0–1.6 µs, so cycles start at every phase of
//! the secondaries' 0.8 µs shadow-counter period, as independent commits
//! would (the phase is what Fig. 13's candles measure). Default (wrapping)
//! destage ring. 10 000 ramp-up + 120 000 measured cycles. An *op* is one
//! acknowledged cycle; its latency runs from the `x_pwrite` call to the
//! `x_fsync` return.
//!
//! The issue's first guess was three fixed sizes (512 B 50 %, 4 KiB 25 %,
//! 16 KiB 25 %) and no think time. Measured, that makes every cycle start
//! in phase with the device's own events, so each size has exactly one
//! latency: p99 = p99.9 = 32.4 µs on every seed — a number that cannot move
//! is not a measurement — and the median sits on the boundary between two
//! sizes and flips between 11.2 and 13.6 µs from seed to seed. Size ranges,
//! a 40 % small share and the think time give a continuous distribution
//! whose percentiles move by a fraction of a percent between seeds.
//!
//! After the last acknowledged fsync every device is power-failed and the
//! crash report plus the still-resident ring window are checked against
//! what was acknowledged.

use super::{counter, fill_pattern, port_layer, Check, LatencySummary, Outcome, Scale};
use crate::host::Window;
use crate::span::{self, SpanName};
use simkit::{DetRng, MetricsRegistry, SimDuration, SimTime};
use xssd_core::{Cluster, VillarsConfig, XLogFile};

const RAMP_CYCLES: u64 = 10_000;
const MEASURED_CYCLES: u64 = 120_000;
const SECONDARIES: usize = 2;
const MAX_WRITE: usize = 16 << 10;
/// Bytes compared per `read_destaged` call in the durability check.
const VERIFY_CHUNK: u64 = 1 << 20;

/// Longest think time between cycles: two shadow-counter periods.
const THINK_MAX_NS: u64 = 1_600;
/// Set to `expect_one_more_acked_byte`, makes the durability check expect a
/// byte that was never acknowledged — the self-test that a failed check
/// fails the run.
const SELFTEST_ENV: &str = "XSSD_BENCHMARK_SELFTEST";

/// Small 40 %, medium 35 %, large 25 %; uniform within a class, in
/// multiples of 8 B (the payload pattern's granule).
fn draw_size(rng: &mut DetRng) -> usize {
    let (lo, hi) = match rng.uniform(1, 100) {
        1..=40 => (64, 1 << 10),
        41..=75 => (2 << 10, 6 << 10),
        _ => (12 << 10, MAX_WRITE as u64),
    };
    8 * rng.uniform(lo / 8, hi / 8) as usize
}

/// Power-fail device `dev` after `acked` bytes were acknowledged and check
/// that all of them, and nothing else, survived.
fn verify_durable(
    cl: &mut Cluster,
    dev: usize,
    now: SimTime,
    seed: u64,
    acked: u64,
    checks: &mut Vec<Check>,
) {
    let report = cl.power_fail(dev, now);
    checks.push(Check::eq(format!("dev{dev}_durable_upto_acked"), report.durable_upto[0], acked));
    checks.push(Check::eq(format!("dev{dev}_lost_nothing"), report.lost_beyond_gap[0], 0));
    // The destage ring recycles; what is still resident must be byte-equal
    // to the seeded pattern.
    let from = cl.device(dev).destage_readable_from(0).unwrap_or(acked);
    // The pattern is 8-byte granular and every write size is a multiple of
    // eight, so segment boundaries are too.
    let mut cursor = from;
    let mut mismatch = None;
    let mut expected = vec![0u8; VERIFY_CHUNK as usize];
    while cursor < acked && mismatch.is_none() {
        let len = (acked - cursor).min(VERIFY_CHUNK) as usize;
        match cl.device_mut(dev).read_destaged(now, 0, cursor, len) {
            Some((_, bytes)) => {
                fill_pattern(seed, cursor, &mut expected[..len]);
                if bytes != expected[..len] {
                    mismatch =
                        Some(format!("content differs in [{cursor}, {})", cursor + len as u64));
                }
            }
            None => mismatch = Some(format!("[{cursor}, {}) not readable", cursor + len as u64)),
        }
        cursor += len as u64;
    }
    checks.push(Check {
        name: format!("dev{dev}_resident_window_matches"),
        ok: mismatch.is_none() && from < acked,
        detail: mismatch.unwrap_or_else(|| format!("{} resident bytes match", acked - from)),
    });
}

/// Run the workload once.
pub fn run(seed: u64, scale: Scale) -> Outcome {
    let ramp = scale.count(RAMP_CYCLES);
    let cycles = ramp + scale.count(MEASURED_CYCLES);
    let config = VillarsConfig::villars_sram();
    let page_bytes = config.conventional.geometry.page_bytes as u64;
    let dies = config.conventional.geometry.total_dies() as u64;
    let mut cl = Cluster::new();
    let primary = cl.add_device(config.clone());
    let secondaries: Vec<usize> = (0..SECONDARIES).map(|_| cl.add_device(config.clone())).collect();
    let mut now = cl.configure_replication(SimTime::ZERO, primary, &secondaries);
    let mut file = XLogFile::open(primary);
    let mut rng = DetRng::new(seed);
    let mut payload = vec![0u8; MAX_WRITE];

    let mut window = Window::new();
    let mut window_start = now;
    let mut latencies_us = Vec::with_capacity((cycles - ramp) as usize);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut pwrite_sim, mut fsync_sim) = (SimDuration::ZERO, SimDuration::ZERO);
    // Bytes covered by the last fsync that returned `Ok`.
    let mut acked = 0u64;

    span::scope(SpanName::Run, || {
        for cycle in 0..cycles {
            let measured = cycle >= ramp;
            if cycle == ramp {
                window.open();
                window_start = now;
            }
            let size = draw_size(&mut rng);
            fill_pattern(seed, file.written(), &mut payload[..size]);
            let t0 = now + SimDuration::from_nanos(rng.uniform(0, THINK_MAX_NS - 1));
            attempted += measured as u64;
            let wrote =
                span::scope(SpanName::XPwrite, || file.x_pwrite(&mut cl, t0, &payload[..size]));
            let synced = wrote.and_then(|t1| {
                span::scope(SpanName::XFsync, || file.x_fsync(&mut cl, t1)).map(|t2| (t1, t2))
            });
            match synced {
                Ok((t1, t2)) => {
                    now = t2;
                    acked = file.written();
                    if measured {
                        pwrite_sim += t1.saturating_since(t0);
                        fsync_sim += t2.saturating_since(t1);
                        latencies_us.push(t2.saturating_since(t0).as_micros_f64());
                    }
                }
                Err(_) => {
                    // The log is stuck; every remaining cycle would fail too.
                    failed += cycles - cycle.max(ramp);
                    attempted = cycles - ramp;
                    break;
                }
            }
        }
    });
    let window = window.close();
    let ops = latencies_us.len() as u64;
    let sim_elapsed = now.saturating_since(window_start);

    let mut reg = MetricsRegistry::new();
    reg.collect("", &cl);
    let snapshot = reg.snapshot();

    let mut checks = vec![Check::eq("acknowledged_all_written", acked, file.written())];
    let broken = std::env::var(SELFTEST_ENV).is_ok_and(|v| v == "expect_one_more_acked_byte");
    let expect_durable = acked + u64::from(broken);
    for dev in std::iter::once(primary).chain(secondaries.iter().copied()) {
        verify_durable(&mut cl, dev, now, seed, expect_durable, &mut checks);
    }
    checks.push(Check::present_eq(
        "below_gc_onset",
        counter(&snapshot, "dev0.ssd.ftl.gc_writes"),
        Some(0),
    ));

    // Taken before the crash check above resets nothing it reads: port
    // accounting survives `power_fail`.
    let mut layer = port_layer(cl.device(primary).port_stats());
    let per_op =
        |total: SimDuration| if ops == 0 { 0.0 } else { total.as_micros_f64() / ops as f64 };
    layer.extend([
        ("core.x_pwrite.sim_us_mean", per_op(pwrite_sim)),
        ("core.x_fsync.sim_us_mean", per_op(fsync_sim)),
    ]);
    Outcome {
        window,
        ops,
        attempted,
        failed,
        sim_elapsed,
        sim_end: now,
        latency: LatencySummary::of(&latencies_us),
        user_bytes: acked,
        page_bytes,
        dies,
        device_prefix: "dev0.",
        layer,
        snapshot,
        checks,
        fingerprint: None,
    }
}
