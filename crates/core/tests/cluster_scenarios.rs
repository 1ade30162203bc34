//! Randomised multi-device cluster scenarios.
//!
//! Sweeps random scenarios (2–8 devices, random shadow-update periods and
//! replication policies, random fault plans with TLP drops, flash faults,
//! link outages, and mid-run crash/reboot/resync arcs) and asserts two
//! properties that need no referee:
//!
//! - **determinism** — the same seed twice yields the same observable
//!   trace: every policy-combined credit read with its timestamp, every
//!   device's final log tail, and the complete telemetry snapshot;
//! - **convergence** — after the final 1 ms settle every device's log tail
//!   equals the primary's, crash arcs and link outages included.
//!
//! Assertion messages carry the scenario seed for replay.

use pcie::MmioMode;
use simkit::faults::{FlashFaultConfig, LinkDownWindow, TransportFaultConfig};
use simkit::{DetRng, FaultPlan, MetricsRegistry, SimDuration, SimTime};
use xssd_core::{Cluster, ReplicationPolicy, VillarsConfig};

/// Everything a scenario run exposes to the host, stringified so a diff
/// points at the first diverging record.
#[derive(Debug, PartialEq)]
struct Trace {
    credit_reads: Vec<(SimTime, u64)>,
    log_tails: Vec<u64>,
    telemetry_json: String,
}

fn run_scenario(seed: u64) -> Trace {
    let mut rng = DetRng::new(seed);
    let n = 2 + rng.uniform(0, 6) as usize; // 2..=8 devices
    let policy = match rng.uniform(0, 3) {
        0 => ReplicationPolicy::Eager,
        1 => ReplicationPolicy::Lazy,
        2 => ReplicationPolicy::Chain,
        _ => ReplicationPolicy::Quorum(2),
    };

    let mut cl = Cluster::new();
    for i in 0..n {
        let mut cfg = VillarsConfig::small();
        cfg.replication = policy;
        // Heterogeneous shadow periods: each secondary reports on its own
        // cycle (0.4–1.6 us), so emission instants never align trivially.
        cfg.transport.shadow_update_period =
            SimDuration::from_nanos(400 + 200 * rng.uniform(0, 6) * (1 + i as u64 % 2));
        cl.add_device(cfg);
    }
    let secondaries: Vec<usize> = (1..n).collect();
    let mut now = cl.configure_replication(SimTime::ZERO, 0, &secondaries);

    // Random cross-stack fault plan (each knob is a coin flip so plans mix
    // fault classes); the plan seed forks from the scenario seed.
    let mut plan = FaultPlan { seed: rng.next_u64(), ..FaultPlan::disabled() };
    if rng.uniform(0, 1) == 1 {
        plan.transport =
            TransportFaultConfig { tlp_drop: 0.05, replay_timeout: SimDuration::from_micros(10) };
    }
    if rng.uniform(0, 1) == 1 {
        plan.flash = FlashFaultConfig {
            transient_read: 0.02,
            transient_program: 0.02,
            permanent_program: 0.001,
            max_retries: 3,
        };
    }
    cl.arm_faults(&plan);
    if rng.uniform(0, 1) == 1 {
        // A link outage on the primary's mirror flows mid-run.
        let from = now + SimDuration::from_micros(30 + rng.uniform(0, 40));
        cl.schedule_link_down(
            0,
            LinkDownWindow { from, until: from + SimDuration::from_micros(50) },
        );
    }

    let mut credit_reads = Vec::new();

    // Closed-loop workload: append to the primary's log, advance, observe
    // the policy-combined credit. A crash arc fires once, mid-run.
    let crash_arc = rng.uniform(0, 9) < 4; // 40% of scenarios
    let crash_iter = 8 + rng.uniform(0, 8);
    let victim = 1 + rng.uniform(0, n as u64 - 2) as usize;
    let mut offset = 0u64;
    for i in 0..28u64 {
        if crash_arc && i == crash_iter {
            cl.power_fail(victim, now);
        }
        if crash_arc && i == crash_iter + 6 {
            cl.reboot_device(victim);
            now = cl.resync_secondary(now, 0, victim);
            now = cl.configure_replication(now, 0, &secondaries);
        }
        let len = 64 + 64 * rng.uniform(0, 6) as usize;
        let data = vec![(i % 251) as u8; len];
        match cl.fast_write(0, now, 0, offset, &data, MmioMode::WriteCombining) {
            Ok((_, t1)) => {
                offset += len as u64;
                now = t1;
            }
            Err(_) => {
                // Intake saturated / ring full: drain and retry next round.
                now += SimDuration::from_micros(2);
            }
        }
        for _ in 0..3 {
            cl.advance(now);
            let (t2, credit) = cl.read_credit(0, now, 0);
            credit_reads.push((t2, credit));
            now = cl.next_event_after(t2).unwrap_or(t2 + SimDuration::from_micros(1));
        }
    }
    cl.advance(now + SimDuration::from_millis(1));

    let log_tails = (0..n).map(|i| cl.device(i).log_tail(0)).collect();
    let mut reg = MetricsRegistry::new();
    reg.collect("cluster", &cl);
    Trace { credit_reads, log_tails, telemetry_json: reg.snapshot().metrics_json().to_string() }
}

#[test]
fn random_topologies_are_deterministic_and_converge() {
    for seed in [0xA11CE_u64, 0xB0B, 0xCAFE, 0xD00D, 0xE66, 0xF00D, 0x5EED, 7, 42] {
        let first = run_scenario(seed);
        assert_eq!(first, run_scenario(seed), "seed {seed:#x}: trace not reproducible");
        // The scenario must actually have written a log to replicate.
        assert!(first.log_tails[0] > 0, "seed {seed:#x}: primary log is empty");
        for (dev, tail) in first.log_tails.iter().enumerate() {
            assert_eq!(
                *tail, first.log_tails[0],
                "seed {seed:#x}: device {dev} did not converge on the primary's tail"
            );
        }
    }
}
