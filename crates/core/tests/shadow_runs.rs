//! Pins the shadow-run mechanism the way `bench/tests/commit_probes.rs`
//! pins a commit's index descents.
//!
//! A secondary reports its credit counter every update period, but the
//! cluster queues those updates as *runs* — one entry per stretch of cycles
//! that report the same value — so the queue work of an `advance` follows
//! what changed, not how many cycles it spans. `shadow_updates_sent` counts
//! the cycles (what the wire is charged for); [`Cluster::shadow_runs_queued`]
//! counts the queue entries. A change that makes every delivery a barrier
//! again, or stops the wire from taking runs, shows here as a count, not as
//! a slow benchmark. (That runs stand for exactly the per-cycle updates is
//! covered against the reference model in `crates/core/src/cluster.rs`.)

use pcie::MmioMode;
use simkit::{SimDuration, SimTime};
use xssd_core::{Cluster, VillarsConfig, XLogFile};

fn two_eager_secondaries() -> (Cluster, SimTime) {
    let mut cl = Cluster::new();
    // Eight times the tiny geometry's blocks (same channels, dies and
    // pages): 2 000 destaged commits outgrow 512 pages, and a fresh device
    // that runs out of pages stops with `device full`.
    let mut cfg = VillarsConfig::small();
    cfg.conventional.geometry.blocks_per_die = 64;
    for _ in 0..3 {
        cl.add_device(cfg.clone());
    }
    let t = cl.configure_replication(SimTime::ZERO, 0, &[1, 2]);
    (cl, t)
}

fn sent(cl: &Cluster, dev: usize) -> u64 {
    cl.device(dev).transport().stats().shadow_updates_sent
}

#[test]
fn a_quiet_millisecond_is_a_handful_of_runs() {
    let (mut cl, t0) = two_eager_secondaries();
    cl.advance(t0);
    let (sent_before, queued_before) = ([sent(&cl, 1), sent(&cl, 2)], cl.shadow_runs_queued());
    let (_, t1) =
        cl.fast_write(0, t0, 0, &[0x5A; 64], MmioMode::WriteCombining).expect("fast write");
    cl.advance(t1 + SimDuration::from_millis(1));
    // One update per 0.8 us cycle on each secondary, as the wire sees it...
    for (dev, before) in [(1, sent_before[0]), (2, sent_before[1])] {
        let updates = sent(&cl, dev) - before;
        assert!((1_245..=1_255).contains(&updates), "dev{dev} sent {updates} updates in 1 ms");
    }
    // ...in a few queue entries: per secondary one run up to the mirror,
    // one up to the drain it triggers, one to the horizon.
    let runs = cl.shadow_runs_queued() - queued_before;
    assert!((2..=8).contains(&runs), "{runs} runs queued for ~2 500 updates");
    let (_, credit) = cl.read_credit(0, t1 + SimDuration::from_millis(1));
    assert_eq!(credit, 64, "both secondaries acknowledged the write");
}

/// `CYCLES` write + fsync commits on the primary, `think` apart; returns the
/// updates the two secondaries sent and the runs queued for them.
fn fsync_cycles(think: SimDuration) -> (u64, u64) {
    let (mut cl, mut now) = two_eager_secondaries();
    let mut file = XLogFile::open(0);
    let payload = [0xA5u8; 2048];
    let (sent_before, queued_before) = (sent(&cl, 1) + sent(&cl, 2), cl.shadow_runs_queued());
    for i in 0..CYCLES {
        let len = 64 + (i as usize * 200) % 1985;
        let t1 = file.x_pwrite(&mut cl, now, &payload[..len]).expect("x_pwrite");
        now = file.x_fsync(&mut cl, t1).expect("x_fsync") + think;
    }
    (sent(&cl, 1) + sent(&cl, 2) - sent_before, cl.shadow_runs_queued() - queued_before)
}

const CYCLES: u64 = 2_000;

#[test]
fn a_replicated_fsync_cycle_queues_a_few_runs_not_every_update() {
    // Back to back a commit is ~6.5 update periods on each secondary (13.1
    // updates), cut by the commit's horizons — the fsync's advance and its
    // three wakes (mirror landed, update cycle, shadow landed) — and by the
    // credit changing once per secondary: 11.75 runs, so the bound sits
    // between the two. A per-cycle queue carries all 13.1 and fails it.
    let (updates, runs) = fsync_cycles(SimDuration::ZERO);
    assert!(updates > 10 * CYCLES, "only {updates} updates in {CYCLES} cycles");
    assert!(runs <= 12 * CYCLES, "{runs} runs queued in {CYCLES} cycles ({updates} updates)");
    // Those cuts are per commit, not per cycle: 10 us of think time (what a
    // blocked x_fsync used to oversleep on its poll grid) triples the updates
    // (38.1 per commit) and adds the one run per secondary that spans it
    // (13.2), and no longer think time adds another.
    let (updates, runs) = fsync_cycles(SimDuration::from_micros(10));
    assert!(updates > 35 * CYCLES, "only {updates} updates in {CYCLES} cycles");
    assert!(runs <= 14 * CYCLES, "{runs} runs queued in {CYCLES} cycles ({updates} updates)");
    assert!(runs * 2 < updates, "{runs} runs for {updates} updates");
    let (_, runs_long) = fsync_cycles(SimDuration::from_micros(50));
    assert!(runs_long <= runs + CYCLES / 10, "{runs_long} runs at 50 us think, {runs} at 10 us");
}
