// The randomised multi-device scenario, shared by two test targets through
// `include!`: `tests/cluster_scenarios.rs` (determinism and convergence,
// through the public API) and the unit tests in `src/cluster.rs` (shadow
// runs against the per-cycle reference, which needs a `#[cfg(test)]` switch
// an integration test cannot reach). One copy, so a seed names the same
// scenario in both. The including module brings the names into scope.

/// Build a cluster on `cl` from `seed` — 2–8 devices, random shadow-update
/// periods and replication policy, a random fault plan (TLP drops, flash
/// faults), maybe a link outage — and drive 28 appends through it with a
/// crash / reboot / resync arc in 40 % of the seeds. After every append
/// `observe(cl, now)` is called three times; it advances the cluster,
/// records what it wants and returns the next instant to observe at.
/// Returns the number of devices and the instant the workload ended.
fn drive_random_scenario(
    cl: &mut Cluster,
    seed: u64,
    mut observe: impl FnMut(&mut Cluster, SimTime) -> SimTime,
) -> (usize, SimTime) {
    let mut rng = DetRng::new(seed);
    let n = 2 + rng.uniform(0, 6) as usize; // 2..=8 devices
    let policy = match rng.uniform(0, 3) {
        0 => ReplicationPolicy::Eager,
        1 => ReplicationPolicy::Lazy,
        2 => ReplicationPolicy::Chain,
        _ => ReplicationPolicy::Quorum(2),
    };
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

    // Closed-loop workload: append to the primary's log, then observe. A
    // crash arc fires once, mid-run.
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
            now = observe(cl, now);
        }
    }
    (n, now)
}
