//! Pins the cut-through mirror flow the way `fast_write_runs.rs` pins the
//! primary's run intake and `shadow_runs.rs` the counter updates.
//!
//! A primary forwards each TLP of a write to its secondaries as the TLP
//! arrives off the host link; the simulator does that in closed form — one
//! stream on each NTB flow, one queue entry per write per secondary keyed at
//! the last landing, one run into the secondary's CMB lane — so a change
//! that makes a TLP an event again, or sends a secondary back to whole-write
//! store-and-forward, shows here as a count or an instant, not as a slow
//! benchmark. (That the closed form lands every TLP where the per-TLP walk
//! does is held against the reference model in `crates/core/src/cluster.rs`
//! and `crates/pcie/src/ntb.rs`.)

use nvme::{CommandKind, IoCommand};
use pcie::MmioMode;
use simkit::{DetRng, SimDuration, SimTime};
use xssd_core::{Cluster, Outbound, VillarsConfig, XLogFile};

fn two_eager_secondaries(config: VillarsConfig) -> (Cluster, SimTime) {
    let mut cl = Cluster::new();
    for _ in 0..3 {
        cl.add_device(config.clone());
    }
    let t = cl.configure_replication(SimTime::ZERO, 0, &[1, 2]);
    (cl, t)
}

#[test]
fn a_replicated_write_is_one_queue_entry_and_one_run_per_secondary() {
    // The benchmark's `log_replicated` in small: the same size mix (64 B–1 KiB
    // 40 %, 2–6 KiB 35 %, 12–16 KiB 25 %, 8-byte steps) and think time.
    const CYCLES: u64 = 2_000;
    let (mut cl, mut now) = two_eager_secondaries(VillarsConfig::villars_sram());
    let mut file = XLogFile::open(0);
    let mut rng = DetRng::new(0x106_5EED);
    let payload: Vec<u8> = (0..16_384u32).map(|i| (i * 7) as u8).collect();
    let (mirrors_before, runs_before) = (cl.mirrors_queued(), cl.shadow_runs_queued());
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
    // Every write fits the 32 KiB window, so it is one `fast_write`: exactly
    // one entry per write per secondary, none retried.
    assert_eq!(cl.mirrors_queued() - mirrors_before, 2 * CYCLES);
    let primary = cl.device(0).cmb_stats();
    for dev in [1, 2] {
        // The secondary's lane is fed like the primary's, through the same
        // run intake: chunk for chunk what the primary took.
        let stats = cl.device(dev).cmb_stats();
        assert_eq!(stats.bytes_in, file.written(), "dev{dev}");
        assert_eq!((stats.chunks, primary.chunks), (165_492, 165_492), "dev{dev}");
    }
    // The counter updates still travel as a few runs per commit — the pin of
    // `shadow_runs.rs`, on this size mix.
    let runs = cl.shadow_runs_queued() - runs_before;
    assert!(runs <= 12 * CYCLES, "{runs} shadow runs queued in {CYCLES} commits");
}

#[test]
fn a_secondary_never_reports_a_byte_whose_tlp_has_not_landed() {
    // One 16 KiB write: 256 TLPs over 11 us of host link, a dozen update
    // cycles of the secondary inside it. A twin primary in the same state
    // names every landing instant; at every cycle from before the write to
    // after its last drain, the value the primary's shadow counter receives
    // must not exceed the bytes landed on the secondary by that cycle.
    let (mut cl, t0) = two_eager_secondaries(VillarsConfig::villars_sram());
    let (mut twin, _) = two_eager_secondaries(VillarsConfig::villars_sram());
    let data = vec![0xC3u8; 16 << 10];
    let wc = MmioMode::WriteCombining;
    cl.advance(t0);
    let (_, arrived) = cl.fast_write(0, t0, 0, &data, wc).expect("fast_write");
    let outbound = twin.device_mut(0).fast_write(t0, 0, &data, wc).expect("twin").outbound;
    let Some(Outbound::Mirror(mirror)) = outbound.iter().find(|o| o.dst() == 1) else {
        panic!("no mirror for device 1 in {outbound:?}");
    };
    let [run] = mirror.landings[..] else {
        panic!("256 full TLPs are one stream, one run: {:?}", mirror.landings);
    };
    let unit = mirror.unit;
    assert_eq!(unit, 64);
    let last_landing = run.last();
    // Cut-through: the first TLP is on the secondary long before the last
    // one has left the host, and the last lands one NTB crossing after it
    // arrived at the primary.
    assert!(run.first < arrived && last_landing < arrived + SimDuration::from_nanos(1_500));
    let landed_by = |at: SimTime| {
        if at < run.first {
            return 0;
        }
        unit * run.count.min(1 + (at - run.first).as_nanos() / run.period.as_nanos())
    };

    let period = cl.device(1).config().transport.shadow_update_period;
    let mut cycle = cl.device(1).transport().next_update_at().expect("secondary");
    // An update lands on the primary one NTB crossing (1.411 us) after its
    // cycle; the next one 0.8 us later.
    let crossing = SimDuration::from_nanos(1_450);
    let (mut mid_write, mut reported) = (0, 0);
    while reported < data.len() as u64 {
        cl.advance(cycle + crossing);
        reported = cl.device(0).transport().shadow_of(1).expect("flow");
        let landed = landed_by(cycle);
        assert!(reported <= landed, "cycle at {cycle}: reports {reported}, {landed} B landed");
        mid_write += u64::from(landed > 0 && landed < data.len() as u64);
        cycle += period;
        assert!(cycle < arrived + SimDuration::from_micros(5), "never acknowledged");
    }
    assert!(mid_write >= 10, "only {mid_write} cycles fell inside the write");
    // Acknowledged by the first cycle after the last TLP's 16 ns drain.
    assert!(cycle - period < last_landing + SimDuration::from_nanos(16) + period);
}

#[test]
fn a_mirror_refused_part_way_resumes_at_the_first_byte_not_taken() {
    // The secondaries' CMB ring (6 KiB) is smaller than the write (16 KiB)
    // and their flash is busy with conventional writes, so destage pages
    // retire late: the ring fills part-way through the mirrored write, the
    // lane refuses the next TLP, and the transport has to offer the rest
    // again — from the first byte not taken, as often as it takes.
    let roomy = |ring: u64| {
        let mut config = VillarsConfig::small();
        config.cmb.size = ring;
        config.cmb.intake_queue_bytes = 32 << 10;
        config
    };
    let mut cl = Cluster::new();
    cl.add_device(roomy(64 << 10));
    cl.add_device(roomy(6 << 10));
    cl.add_device(roomy(6 << 10));
    let t0 = cl.configure_replication(SimTime::ZERO, 0, &[1, 2]);
    for dev in [1, 2] {
        for lba in 0..24 {
            cl.submit(dev, t0, CommandKind::Io(IoCommand::Write { lba: 100 + lba, blocks: 1 }));
        }
    }
    let mut file = XLogFile::open(0);
    let data: Vec<u8> = (0..16_384u32).map(|i| (i * 13 + 5) as u8).collect();
    let before = cl.mirrors_queued();
    let t1 = file.x_pwrite(&mut cl, t0, &data).expect("x_pwrite");
    let done = file.x_fsync(&mut cl, t1).expect("both secondaries take the whole write");
    let retries = cl.mirrors_queued() - before - 2;
    assert!(retries >= 4, "only {retries} retries: the ring never filled");
    // A second commit goes through as well (a lost tail would stall it).
    let t2 = file.x_pwrite(&mut cl, done, &data[..1000]).expect("x_pwrite");
    let end = file.x_fsync(&mut cl, t2).expect("x_fsync") + SimDuration::from_millis(2);
    cl.advance(end);
    for dev in [1, 2] {
        assert_eq!(cl.device(dev).log_tail(), file.written(), "dev{dev}");
        assert_eq!(cl.device_mut(dev).local_credit(end), file.written(), "dev{dev}");
        assert_eq!(cl.device(dev).cmb_stats().bytes_in, file.written(), "dev{dev}: no byte twice");
        // Byte for byte, back from the destage ring.
        let (_, log) = cl.device_mut(dev).read_destaged(end, 0, 0, 16_384).expect("destaged");
        assert_eq!(log, data, "dev{dev}");
    }
}

#[test]
#[should_panic(expected = "simulation stalled at mirror flow")]
fn a_mirror_nothing_can_reopen_is_a_stall_not_a_retry_grid() {
    // A secondary whose ring cannot hold one TLP refuses the mirror with
    // nothing pending that could change that: the delivery ends in the
    // structured stall report instead of being offered again every microsecond.
    let mut tiny = VillarsConfig::small();
    tiny.cmb.size = 32;
    let mut cl = Cluster::new();
    cl.add_device(VillarsConfig::small());
    cl.add_device(tiny);
    let t0 = cl.configure_replication(SimTime::ZERO, 0, &[1]);
    let (_, arrived) =
        cl.fast_write(0, t0, 0, &[0x11; 64], MmioMode::WriteCombining).expect("fast_write");
    cl.advance(arrived + SimDuration::from_micros(10));
}
