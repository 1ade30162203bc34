//! Zero-perturbation regression for the fault layer.
//!
//! The contract (see `simkit::faults`): a cluster armed with a *disabled*
//! [`FaultPlan`] makes no RNG draws and adds no latency, and its fault
//! counters read 0 — its snapshot is equal, path for path, to a cluster
//! that was never armed at all. This is what keeps the `results/*.json`
//! golden values valid with the fault layer compiled in
//! (`scripts/check_results.sh` enforces the golden side; this test pins
//! the mechanism).

use simkit::{FaultPlan, MetricsRegistry, SimTime, Snapshot};
use xssd_core::{Cluster, VillarsConfig, XLogFile};

/// A replicated `x_pwrite`+`x_fsync` cycle — the path that exercises CMB
/// intake, destaging, flash programs, and NTB mirroring — returning the
/// full telemetry snapshot plus every commit completion instant.
fn replicated_cycle(arm_disabled_plan: bool) -> (Snapshot, Vec<SimTime>) {
    let mut cl = Cluster::new();
    let p = cl.add_device(VillarsConfig::small());
    let s = cl.add_device(VillarsConfig::small());
    if arm_disabled_plan {
        cl.arm_faults(&FaultPlan::disabled());
    }
    let t0 = cl.configure_replication(SimTime::ZERO, p, &[s]);
    let mut f = XLogFile::open(p);
    let data = vec![0xA5u8; 1024];
    let mut now = t0;
    let mut times = Vec::with_capacity(64);
    for _ in 0..64 {
        now = f.x_pwrite(&mut cl, now, &data).expect("x_pwrite");
        now = f.x_fsync(&mut cl, now).expect("x_fsync");
        times.push(now);
    }
    let mut reg = MetricsRegistry::new();
    reg.collect("", &cl);
    (reg.snapshot(), times)
}

#[test]
fn disabled_fault_plan_is_bit_identical_to_unarmed() {
    let (snap_off, times_off) = replicated_cycle(false);
    let (snap_on, times_on) = replicated_cycle(true);
    assert_eq!(times_off, times_on, "a disabled fault plan perturbed the commit timeline");
    assert_eq!(snap_off, snap_on, "a disabled fault plan changed the telemetry snapshot");
    assert!(!times_off.is_empty() && times_off.windows(2).all(|w| w[0] < w[1]));
}
