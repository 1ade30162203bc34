//! `VillarsDevice::fast_write` sends the full-size TLPs of a write to the
//! CMB lane as one run and the trailing partial as a run of one. These tests
//! hold that against the per-TLP walk it replaced, through the public API
//! only, and pin the chunk count of a replicated log the way
//! `shadow_runs.rs` pins shadow runs.
//!
//! The per-TLP reference is `fast_write` called once per TLP: every TLP is
//! then a run of one, so the reference goes link → lane → backing port chunk
//! by chunk, exactly as the loop in `fast_write` did before.

use pcie::{MmioMode, StoreIssueModel};
use simkit::{DetRng, MetricsRegistry, SimDuration, SimTime, Snapshot};
use xssd_core::{Cluster, CmbError, VillarsConfig, VillarsDevice, XLogFile};

/// The whole telemetry of one device.
fn snapshot(dev: &VillarsDevice) -> Snapshot {
    let mut reg = MetricsRegistry::new();
    reg.collect("dev", dev);
    reg.snapshot()
}

/// One write, one TLP per `fast_write` call, all issued at `now`.
fn fast_write_per_tlp(
    dev: &mut VillarsDevice,
    now: SimTime,
    offset: u64,
    data: &[u8],
    mode: MmioMode,
) -> (SimTime, SimTime) {
    let unit = StoreIssueModel { mode }.unit() as usize;
    let mut last = None;
    for (k, tlp) in data.chunks(unit).enumerate() {
        let fw = dev
            .fast_write(now, 0, offset + (k * unit) as u64, tlp, mode)
            .expect("reference TLP rejected");
        last = Some((fw.issued_at, fw.arrived_at));
    }
    last.expect("writes are non-empty")
}

/// Write lengths: the unit's edges, the largest write, and seeded fill.
fn lengths(rng: &mut DetRng, count: usize, budget: usize) -> Vec<usize> {
    let mut out = vec![1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 1000, 4096, 16_383, 16_384];
    while out.len() < count {
        out.push(rng.uniform(1, 16_384) as usize);
    }
    // Seeded order, and (for scripts that never destage) a total that fits
    // the ring.
    for i in (1..out.len()).rev() {
        out.swap(i, rng.uniform(0, i as u64) as usize);
    }
    let mut total = 0;
    out.retain(|len| {
        total += len;
        total <= budget
    });
    out
}

/// Drive the same script of back-to-back writes through the run form and
/// through the per-TLP reference and compare everything observable.
fn compare_against_per_tlp(
    config: VillarsConfig,
    mode: MmioMode,
    advance_between: bool,
    seed: u64,
) {
    let label =
        format!("{:?} {mode:?} advance={advance_between} seed {seed:#x}", config.cmb.backing);
    let mut rng = DetRng::new(seed);
    // Without an advance nothing destages: stay inside the CMB ring.
    let budget = if advance_between { usize::MAX } else { config.cmb.size as usize };
    let script = lengths(&mut rng, if advance_between { 40 } else { 16 }, budget);
    // Only the SRAM-backed lane drains a chunk before the next one arrives.
    let keeps_up = matches!(config.cmb.backing, nvme::BackingClass::Sram);
    let mut run = VillarsDevice::new(config.clone());
    let mut walk = VillarsDevice::new(config);

    let mut now = SimTime::from_micros(1);
    let mut offset = 0u64;
    for (i, &len) in script.iter().enumerate() {
        let data: Vec<u8> = (0..len).map(|b| (b as u64 * 131 + offset) as u8).collect();
        let got = run.fast_write(now, 0, offset, &data, mode).expect("write rejected");
        let want = fast_write_per_tlp(&mut walk, now, offset, &data, mode);
        assert_eq!((got.issued_at, got.arrived_at), want, "{label}: write {i} of {len} bytes");
        assert_eq!(snapshot(&run), snapshot(&walk), "{label}: after write {i} of {len} bytes");
        offset += len as u64;
        // Stores pipeline on the wire: the next write issues as soon as the
        // wire is free, sometimes after a pause. A host honours flow control,
        // so on the DRAM-backed lane (a 64-byte chunk arrives in 44 ns and
        // drains in 80) it also lets the write's backlog drain.
        let backlog = if keeps_up { 0 } else { len as u64 };
        now = got.issued_at
            + SimDuration::from_nanos(rng.uniform(0, 3) * rng.uniform(0, 400) + backlog);
        if advance_between {
            let to = now.max(got.arrived_at) + SimDuration::from_nanos(rng.uniform(0, 2_000));
            run.advance(to);
            walk.advance(to);
            assert_eq!(snapshot(&run), snapshot(&walk), "{label}: advanced past write {i}");
            now = now.max(to);
        }
    }
    assert_eq!(
        run.log_content(0, run.log_head(0), (offset - run.log_head(0)) as usize),
        walk.log_content(0, walk.log_head(0), (offset - walk.log_head(0)) as usize),
        "{label}: ring content"
    );
    // The credit a host would read at a grid of later instants.
    for step in [0, 1, 10, 16, 44, 45, 100, 1_000, 50_000] {
        let at = now + SimDuration::from_nanos(step);
        assert_eq!(
            run.read_credit(at, 0),
            walk.read_credit(at, 0),
            "{label}: credit at +{step} ns"
        );
        assert_eq!(run.next_event(), walk.next_event(), "{label}: next event at +{step} ns");
    }
    run.advance(now + SimDuration::from_millis(5));
    walk.advance(now + SimDuration::from_millis(5));
    assert_eq!(snapshot(&run), snapshot(&walk), "{label}: after the drain");
}

#[test]
fn fast_write_matches_the_per_tlp_walk_on_sram_and_dram() {
    for (i, config) in [VillarsConfig::villars_sram, VillarsConfig::villars_dram].iter().enumerate()
    {
        for mode in [MmioMode::WriteCombining, MmioMode::Uncached] {
            for advance_between in [false, true] {
                compare_against_per_tlp(config(), mode, advance_between, 0xFA57 + i as u64);
            }
        }
    }
}

#[test]
fn a_mid_burst_overrun_keeps_its_own_accounting() {
    // A 512-byte intake queue in front of the DRAM-backed ring (80 ns per
    // 64-byte drain against 44 ns per arrival) overruns part-way through a
    // 4 KiB write. What was sent and what was accepted must be counted on
    // the fast side as it is on the link and in the lane.
    let mut config = VillarsConfig::villars_dram();
    config.cmb.intake_queue_bytes = 512;
    let mut dev = VillarsDevice::new(config);
    let err = dev
        .fast_write(SimTime::ZERO, 0, 0, &[0x5A; 4096], MmioMode::WriteCombining)
        .expect_err("the queue holds eight chunks");
    assert!(matches!(err, CmbError::QueueOverrun { queue: 512, .. }), "{err}");
    let snap = snapshot(&dev);
    // Sixteen chunks got in; the seventeenth crossed the wire and was refused.
    assert_eq!(snap.counter("dev.pcie.host_link.messages"), 17);
    assert_eq!(snap.counter("dev.core.fast.tlps"), 17);
    assert_eq!(snap.counter("dev.core.cmb.lane0.bytes_in"), 16 * 64);
    assert_eq!(snap.counter("dev.core.fast.bytes_in"), 16 * 64);
    assert_eq!(dev.fast_bytes_in(), 16 * 64);
}

#[test]
fn a_replicated_log_takes_nearly_every_chunk_as_a_run() {
    // The benchmark's `log_replicated` in small: x_pwrite + x_fsync cycles
    // on a primary with two eager secondaries, the same size mix (64 B–1 KiB
    // 40 %, 2–6 KiB 35 %, 12–16 KiB 25 %, 8-byte steps) and think time.
    // Every TLP reaches the lane once, as part of a run.
    const CYCLES: u64 = 2_000;
    let mut cl = Cluster::new();
    for _ in 0..3 {
        cl.add_device(VillarsConfig::villars_sram());
    }
    let mut now = cl.configure_replication(SimTime::ZERO, 0, &[1, 2]);
    let mut file = XLogFile::open(0);
    let mut rng = DetRng::new(0x106_5EED);
    let payload: Vec<u8> = (0..16_384u32).map(|i| (i * 7) as u8).collect();
    for _ in 0..CYCLES {
        let len = 8 * match rng.uniform(0, 99) {
            0..=39 => rng.uniform(8, 128),
            40..=74 => rng.uniform(256, 768),
            _ => rng.uniform(1536, 2048),
        };
        let t1 = file.x_pwrite(&mut cl, now, &payload[..len as usize]).expect("x_pwrite");
        now = file.x_fsync(&mut cl, t1).expect("x_fsync")
            + SimDuration::from_nanos(rng.uniform(0, 1_600));
    }
    let stats = cl.device(0).cmb_stats(0);
    assert_eq!(stats.bytes_in, file.written());
    // Exact for this seed: a change of regime shows as a count, not a slow run.
    assert_eq!(stats.chunks, 165_492);
}
