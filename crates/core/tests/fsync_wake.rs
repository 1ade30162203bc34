//! A blocked `x_fsync` sleeps until the credit counter can cover the log and
//! wakes on a *lower bound* of that instant
//! ([`Cluster::next_credit_event_after`]). These tests hold the bound-based
//! wait against a brute-force one, through the public API only.
//!
//! The oracle steps a cluster at *every* pending event
//! ([`Cluster::next_event_after`]) and records the first instant the
//! policy-combined counter covers the target. Three clusters built from one
//! case run the same script: one commits through `x_fsync`, one through the
//! oracle, one through [`Cluster::sleep_until_credit`] alone. Per commit:
//!
//! - at every event the oracle visits before the crossing, the bound lies
//!   strictly after that event and at or before the crossing;
//! - the sleeper wakes for the last time exactly at the crossing;
//! - `x_fsync` returns exactly one credit-read round trip after it (the read
//!   is issued at the crossing, or when the first read comes back if later);
//! - where the oracle never crosses, the bound is `None` and `x_fsync` ends
//!   `Stalled`.

use pcie::MmioMode;
use simkit::faults::{LinkDownWindow, TransportFaultConfig};
use simkit::{DetRng, FaultPlan, MetricsRegistry, SimDuration, SimTime};
use xssd_core::{Cluster, ReplicationPolicy, VillarsConfig, XApiError, XLogFile};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Faults {
    None,
    /// NTB TLP drops on every flow: replays delay mirrors and updates.
    TlpDrops,
    /// The primary's and the first secondary's flows park for 40 us.
    LinkDown,
    /// The last secondary is powered off before the first write.
    DeadSecondary,
}

#[derive(Debug, Clone, Copy)]
struct Case {
    policy: ReplicationPolicy,
    /// 0 = stand-alone.
    secondaries: usize,
    faults: Faults,
    config: fn() -> VillarsConfig,
    seed: u64,
}

/// How long the oracle keeps stepping before it calls a crossing "never":
/// far beyond a link-down window plus any replay.
const NEVER: SimDuration = SimDuration::from_micros(400);

fn build(case: &Case) -> (Cluster, SimTime) {
    let mut cl = Cluster::new();
    for _ in 0..=case.secondaries {
        cl.add_device(VillarsConfig { replication: case.policy, ..(case.config)() });
    }
    if case.secondaries == 0 {
        return (cl, SimTime::ZERO);
    }
    let secondaries: Vec<usize> = (1..=case.secondaries).collect();
    let mut now = cl.configure_replication(SimTime::ZERO, 0, &secondaries);
    match case.faults {
        Faults::None => {}
        Faults::TlpDrops => cl.arm_faults(&FaultPlan {
            seed: case.seed,
            transport: TransportFaultConfig {
                tlp_drop: 0.2,
                replay_timeout: SimDuration::from_micros(10),
            },
            ..FaultPlan::disabled()
        }),
        Faults::LinkDown => {
            let from = now + SimDuration::from_micros(25);
            let window = LinkDownWindow { from, until: from + SimDuration::from_micros(40) };
            cl.schedule_link_down(0, window);
            cl.schedule_link_down(1, window);
        }
        Faults::DeadSecondary => {
            cl.power_fail(case.secondaries, now);
            now += SimDuration::from_micros(1);
        }
    }
    (cl, now)
}

/// 64 B – 16 KiB: TLP edges, a partial trailing TLP, many TLPs.
const SIZES: [usize; 8] = [64, 136, 512, 1000, 2048, 4096, 6000, 16 << 10];

/// `VillarsConfig::small` with the default 32 KiB flow-control window and a
/// ring no script fills: `x_pwrite` never has to wait. (Its generic wait
/// polls at every cluster event, destage deadlines among them, and those
/// move with the caller's advance pattern — `DestageModule::pump` starts a
/// partial page's clock at the first *call* that sees the bytes — so the
/// three clusters would part inside `x_pwrite`, before the wait under test.)
fn roomy_small() -> VillarsConfig {
    let mut config = VillarsConfig::small();
    config.cmb.size = 256 << 10;
    config.cmb.intake_queue_bytes = 32 << 10;
    config
}

/// One commit's outcome: the instant `x_fsync` returns, or `Stalled`.
type Outcome = Result<SimTime, ()>;

/// Commit through the product.
fn commit_with_x_fsync(cl: &mut Cluster, file: &mut XLogFile, t1: SimTime) -> Outcome {
    match file.x_fsync(cl, t1) {
        Ok(t) => Ok(t),
        Err(XApiError::Stalled { .. }) => Err(()),
        Err(e) => panic!("x_fsync: {e}"),
    }
}

/// Commit by stepping at every event; checks the bound at each. Returns the
/// outcome and the crossing instant (`None`: the first read covered).
fn commit_with_oracle(
    cl: &mut Cluster,
    target: u64,
    t1: SimTime,
    what: &str,
) -> (Outcome, Option<SimTime>) {
    cl.advance(t1);
    let (read_done, credit) = cl.read_credit(0, t1, 0);
    if credit >= target {
        return (Ok(read_done), None);
    }
    let mut t = t1;
    let mut bounds: Vec<(SimTime, SimTime)> = Vec::new();
    let mut stalled_at = None;
    while cl.device_mut(0).observed_credit(t, 0) < target {
        match cl.next_credit_event_after(0, 0, target, t) {
            Some(bound) => {
                assert!(bound > t, "{what}: at {t} the bound {bound} is not in the future");
                assert_eq!(stalled_at, None, "{what}: a bound at {t} after `None`");
                bounds.push((t, bound));
            }
            None => stalled_at = stalled_at.or(Some(t)),
        }
        let next = cl.next_event_after(t);
        match next {
            Some(next) if next <= t1 + NEVER => t = next,
            _ => {
                assert!(
                    stalled_at.is_some(),
                    "{what}: never crossed, yet the bound was not `None`"
                );
                return (Err(()), None);
            }
        }
        cl.advance(t);
    }
    assert_eq!(stalled_at, None, "{what}: crossed at {t} after the bound said never");
    for (at, bound) in bounds {
        assert!(bound <= t, "{what}: at {at} the bound {bound} overshoots the crossing {t}");
    }
    let (confirmed, credit) = cl.read_credit(0, t.max(read_done), 0);
    assert!(credit >= target, "{what}: the confirming read fell short");
    (Ok(confirmed), Some(t))
}

/// Commit through `sleep_until_credit`; returns the last wake instant.
fn commit_with_sleep(cl: &mut Cluster, target: u64, t1: SimTime) -> Option<SimTime> {
    cl.advance(t1);
    let (read_done, credit) = cl.read_credit(0, t1, 0);
    if credit >= target {
        return None;
    }
    let woke = cl.sleep_until_credit(0, 0, target, t1)?;
    cl.read_credit(0, woke.max(read_done), 0);
    Some(woke)
}

fn counters(cl: &Cluster) -> (u64, u64) {
    let mut reg = MetricsRegistry::new();
    reg.collect("", cl);
    let snap = reg.snapshot();
    let prefix = if cl.len() == 1 { "" } else { "dev0." };
    (
        snap.counter(&format!("{prefix}core.fast.credit_reads")),
        snap.counter(&format!("{prefix}core.fast.fsync_wakes")),
    )
}

/// Run `commits` write + fsync cycles of `case` on three clusters. Returns
/// how the script ended (`Err` = a commit stalled) and the most wakes any
/// one `x_fsync` took.
fn run_case(case: &Case, commits: usize) -> (Outcome, u64) {
    let (mut product, start) = build(case);
    let (mut oracle, _) = build(case);
    let (mut sleeper, _) = build(case);
    let mut rng = DetRng::new(case.seed);
    let mut file = XLogFile::open(0);
    let mut now = start;
    let mut most_wakes = 0;
    for i in 0..commits {
        // Every case commits a 4 KiB and a 16 KiB write — 64 and 256 TLPs the
        // mirror flow forwards while the host is still sending, delivered on
        // the secondaries at the last one's landing — then seeded sizes.
        let size = match i {
            0 => 4 << 10,
            1 => 16 << 10,
            _ => SIZES[rng.uniform(0, SIZES.len() as u64 - 1) as usize],
        };
        let data = vec![i as u8; size];
        // Think times cover every phase of the 0.8 us update period.
        let t0 = now + SimDuration::from_nanos(rng.uniform(0, 1_599));
        let what = format!("{case:?} commit {i} ({} B at {t0})", data.len());

        let offset = file.written();
        let t1 = file.x_pwrite(&mut product, t0, &data).expect("x_pwrite");
        // A synced handle holds `credit_seen == written`: reopening at the
        // offset is the same handle.
        for other in [&mut oracle, &mut sleeper] {
            let mut f = XLogFile::open_lane_at(0, 0, MmioMode::WriteCombining, offset);
            assert_eq!(f.x_pwrite(other, t0, &data).expect("x_pwrite"), t1, "{what}: x_pwrite");
        }
        let target = file.written();

        let (_, wakes_before) = counters(&product);
        let got = commit_with_x_fsync(&mut product, &mut file, t1);
        most_wakes = most_wakes.max(counters(&product).1 - wakes_before);
        let (want, crossing) = commit_with_oracle(&mut oracle, target, t1, &what);
        assert_eq!(got, want, "{what}: x_fsync vs one round trip after the crossing {crossing:?}");
        if want.is_ok() {
            let woke = commit_with_sleep(&mut sleeper, target, t1);
            assert_eq!(woke, crossing, "{what}: the last wake vs the crossing");
        }
        match got {
            Ok(t) => now = t,
            Err(()) => return (Err(()), most_wakes),
        }
    }
    (Ok(now), most_wakes)
}

const POLICIES: [ReplicationPolicy; 4] = [
    ReplicationPolicy::Eager,
    ReplicationPolicy::Lazy,
    ReplicationPolicy::Chain,
    ReplicationPolicy::Quorum(2),
];

/// Without faults a wait for *all* of a set of sources takes three wakes —
/// mirror landed, update cycle, shadow landed — because the latest bound of
/// each stage passes every other. A quorum waits for the k-th soonest, so the
/// stages of different secondaries interleave: two more per secondary.
fn most_wakes_expected(policy: ReplicationPolicy, secondaries: usize) -> u64 {
    match policy {
        ReplicationPolicy::Quorum(_) => 1 + 2 * secondaries as u64,
        _ => 3,
    }
}

#[test]
fn the_bound_based_wait_equals_the_brute_force_one() {
    let mut seed = 0xF5C0_u64;
    for policy in POLICIES {
        for secondaries in 1..=3 {
            for faults in [Faults::None, Faults::TlpDrops, Faults::LinkDown] {
                seed += 1;
                let case = Case { policy, secondaries, faults, config: roomy_small, seed };
                let (end, most_wakes) = run_case(&case, 14);
                assert!(end.is_ok(), "{case:?}: stalled with every device alive");
                if faults == Faults::None {
                    assert!(
                        most_wakes <= most_wakes_expected(policy, secondaries),
                        "{case:?}: {most_wakes} wakes in one x_fsync"
                    );
                }
            }
        }
    }
}

#[test]
fn a_dead_secondary_stalls_the_policies_that_wait_for_it_and_no_other() {
    for (policy, secondaries, completes) in [
        (ReplicationPolicy::Eager, 1, false),
        (ReplicationPolicy::Eager, 3, false),
        // The last in the chain is the dead one.
        (ReplicationPolicy::Chain, 2, false),
        (ReplicationPolicy::Lazy, 2, true),
        // Local plus one live secondary of three make the quorum.
        (ReplicationPolicy::Quorum(2), 3, true),
        // Local plus the only (dead) secondary cannot.
        (ReplicationPolicy::Quorum(2), 1, false),
    ] {
        let case = Case {
            policy,
            secondaries,
            faults: Faults::DeadSecondary,
            config: roomy_small,
            seed: 0xDEAD + secondaries as u64,
        };
        let (end, most_wakes) = run_case(&case, 6);
        assert_eq!(end.is_ok(), completes, "{case:?}");
        // `Stalled` comes from the bound, not from running out of events: a
        // live secondary has an update cycle pending for ever.
        assert!(
            most_wakes <= most_wakes_expected(policy, secondaries),
            "{case:?}: {most_wakes} wakes in one x_fsync"
        );
    }
}

#[test]
fn stand_alone_lanes_sleep_until_their_own_drain() {
    for (config, name) in [
        (VillarsConfig::villars_sram as fn() -> VillarsConfig, "sram"),
        (VillarsConfig::villars_dram, "dram"),
    ] {
        let case = Case {
            policy: ReplicationPolicy::Eager,
            secondaries: 0,
            faults: Faults::None,
            config,
            seed: 0x57A9D,
        };
        let (end, most_wakes) = run_case(&case, 10);
        assert!(end.is_ok(), "{name}: stalled");
        // One source, one drain that covers the target, one wake.
        assert!(most_wakes <= 1, "{name}: {most_wakes} wakes in one x_fsync");
    }
}

/// `x_pwrite` by the book for a synced handle at `offset`: fill the
/// flow-control window, and while it is shut poll the counter at every
/// cluster event the host is free for — the cluster driven to the event
/// before the read is issued there, so a shadow update landing at that
/// instant is in the value read. Returns the instant the last byte was
/// issued and the reads it took.
fn pwrite_by_the_book(cl: &mut Cluster, offset: u64, t0: SimTime, data: &[u8]) -> (SimTime, u64) {
    let window = cl.device(0).intake_queue_bytes(0);
    let (mut written, mut credit_seen) = (offset, offset);
    let (mut now, mut reads) = (t0, 0);
    while written < offset + data.len() as u64 {
        let room = window - (written - credit_seen);
        if room == 0 {
            let (read_done, credit) = cl.read_credit(0, now, 0);
            reads += 1;
            credit_seen = credit_seen.max(credit);
            now = read_done;
            if written - credit_seen == window {
                cl.advance(now);
                now = cl.next_event_after(now).expect("a live secondary's update cycle is pending");
                cl.advance(now);
            }
            continue;
        }
        let from = (written - offset) as usize;
        let chunk = &data[from..data.len().min(from + room as usize)];
        let wc = MmioMode::WriteCombining;
        (now, _) = cl.fast_write(0, now, 0, written, chunk, wc).expect("fast_write");
        written += chunk.len() as u64;
    }
    (now, reads)
}

/// A replicated write larger than the flow-control window waits for credits
/// inside `x_pwrite`: the read issued at the event that moves the shadow
/// counter is the one that reopens the window, not the one after it.
#[test]
fn a_write_larger_than_the_window_resumes_on_the_read_that_sees_the_credit() {
    let window = VillarsConfig::small().cmb.intake_queue_bytes as usize;
    let mut waited = 0;
    for (policy, secondaries) in [
        (ReplicationPolicy::Eager, 1),
        (ReplicationPolicy::Eager, 2),
        (ReplicationPolicy::Chain, 2),
        (ReplicationPolicy::Quorum(2), 2),
    ] {
        let case = Case {
            policy,
            secondaries,
            faults: Faults::None,
            config: VillarsConfig::small,
            seed: 0x91D0 + secondaries as u64,
        };
        let (mut product, start) = build(&case);
        let (mut book, _) = build(&case);
        let mut rng = DetRng::new(case.seed);
        let mut file = XLogFile::open(0);
        let mut now = start;
        for (i, size) in
            [window + 64, 2 * window, 3 * window + 136, 16 << 10].into_iter().enumerate()
        {
            let data = vec![i as u8; size];
            let t0 = now + SimDuration::from_nanos(rng.uniform(0, 1_599));
            let what = format!("{case:?} write {i} ({size} B at {t0})");
            let offset = file.written();
            let (reads_before, _) = counters(&product);
            let t1 = file.x_pwrite(&mut product, t0, &data).expect("x_pwrite");
            let reads = counters(&product).0 - reads_before;
            assert_eq!((t1, reads), pwrite_by_the_book(&mut book, offset, t0, &data), "{what}");
            waited += reads;
            // Both commit the same way, so the two clusters stay in step.
            now = file.x_fsync(&mut product, t1).expect("x_fsync");
            let mut twin = XLogFile::open_lane_at(0, 0, MmioMode::WriteCombining, file.written());
            assert_eq!(twin.x_fsync(&mut book, t1).expect("x_fsync"), now, "{what}: x_fsync");
        }
    }
    assert!(waited >= 16, "only {waited} credit reads inside x_pwrite: the window never shut");
}

/// The benchmark's `log_replicated` cycle (two eager secondaries, its size
/// classes, its 0–1.6 us think time) for `commits` commits; returns the
/// primary's `(credit_reads, fsync_wakes)` and the final instant.
fn log_replicated_shape(seed: u64, commits: u64) -> (u64, u64, SimTime) {
    let mut cl = Cluster::new();
    for _ in 0..3 {
        cl.add_device(VillarsConfig::villars_sram());
    }
    let mut now = cl.configure_replication(SimTime::ZERO, 0, &[1, 2]);
    let mut file = XLogFile::open(0);
    let mut rng = DetRng::new(seed);
    let payload = vec![0xA5u8; 16 << 10];
    for _ in 0..commits {
        let (lo, hi) = match rng.uniform(1, 100) {
            1..=40 => (64, 1 << 10),
            41..=75 => (2 << 10, 6 << 10),
            _ => (12 << 10, 16 << 10),
        };
        let size = 8 * rng.uniform(lo / 8, hi / 8) as usize;
        let t0 = now + SimDuration::from_nanos(rng.uniform(0, 1_599));
        let t1 = file.x_pwrite(&mut cl, t0, &payload[..size]).expect("x_pwrite");
        now = file.x_fsync(&mut cl, t1).expect("x_fsync");
    }
    let (reads, wakes) = counters(&cl);
    (reads, wakes, now)
}

/// The count gate (`scripts/check.sh` runs it in release): what a replicated
/// commit costs the host in counter reads and the simulator in wakes.
#[test]
#[cfg_attr(debug_assertions, ignore = "10 000 commits: release only (scripts/check.sh)")]
fn a_log_replicated_commit_costs_two_credit_reads_and_at_most_three_wakes() {
    const COMMITS: u64 = 10_000;
    let first = log_replicated_shape(7, COMMITS);
    let (reads, wakes, _) = first;
    // The first read always misses (two NTB hops are still ahead), the
    // second confirms: no read in between, none inside x_pwrite.
    assert_eq!(reads, 2 * COMMITS, "credit reads per commit");
    assert!(wakes <= 3 * COMMITS, "{wakes} wakes in {COMMITS} commits");
    assert!(wakes > 2 * COMMITS, "{wakes} wakes: the three-stage wait is gone?");
    assert_eq!(first, log_replicated_shape(7, COMMITS), "counts and end instant repeat");
}
