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

include!("common/random_scenario.rs");

fn run_scenario(seed: u64) -> Trace {
    let mut cl = Cluster::new();
    let mut credit_reads = Vec::new();
    // Observe the policy-combined credit, then jump to the next event.
    let (n, now) = drive_random_scenario(&mut cl, seed, |cl, now| {
        cl.advance(now);
        let (t2, credit) = cl.read_credit(0, now, 0);
        credit_reads.push((t2, credit));
        cl.next_event_after(now).expect("a replicated cluster has an event pending")
    });
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
