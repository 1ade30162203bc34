//! Cross-crate integration tests: database + Villars device + cluster,
//! exercised through the public `xssd_suite` facade exactly as the examples
//! and benches use it.

use xssd_suite::db::{
    encode_txn, recover, runner, Database, DriverConfig, NoLog, Replica, WalConfig, WalManager,
    XssdLog,
};
use xssd_suite::sim::{DetRng, SimDuration, SimTime};
use xssd_suite::tpcc::{setup, TpccConfig};
use xssd_suite::xssd::{Cluster, ReplicationPolicy, VillarsConfig, XLogFile};

fn small_cluster(n: usize) -> Cluster {
    let mut cl = Cluster::new();
    for _ in 0..n {
        cl.add_device(VillarsConfig::small());
    }
    cl
}

#[test]
fn tpcc_committed_work_survives_crash_and_recovery() {
    // Run TPC-C over a Villars log, crash the device, recover a fresh
    // database from the destaged stream, and confirm every recovered
    // transaction's effects match the primary's committed state.
    let (mut db, mut workload, _rng) = setup(TpccConfig::small(), 77);
    let cluster = {
        let mut cl = Cluster::new();
        cl.add_device(VillarsConfig::villars_sram());
        cl
    };
    let mut wal = WalManager::new(XssdLog::new(cluster, 0, "villars"), WalConfig::default());
    let cfg = DriverConfig {
        workers: 2,
        measure: SimDuration::from_millis(10),
        ..DriverConfig::default()
    };
    let report = runner::run(&mut db, &mut wal, &mut workload, &cfg).run;
    assert!(report.committed > 100, "committed {}", report.committed);

    // Crash at the end of the run.
    let now = SimTime::ZERO + report.elapsed;
    let backend = wal.backend_mut();
    let crash = backend.cluster_mut().power_fail(0, now);
    let durable = crash.durable_upto[0] as usize;
    assert!(durable > 0);

    // Read the durable log and recover.
    let (_t, stream) = backend
        .cluster_mut()
        .device_mut(0)
        .read_destaged(now, 0, 0, durable)
        .expect("durable log readable");
    let mut recovered = Database::new();
    for name in xssd_suite::tpcc::TABLE_NAMES {
        recovered.create_table(name);
    }
    let rec = recover(&mut recovered, &stream);
    // Every flushed transaction is durable; the final tail batch flushed at
    // run end, so everything committed should be recovered.
    assert!(
        rec.txns_committed as u64 >= report.committed * 9 / 10,
        "recovered {} of {}",
        rec.txns_committed,
        report.committed
    );
    // Spot-check: recovered rows byte-identical to the live database.
    let t = recovered.table_id("district").expect("table exists");
    let rows = db.scan(t, &[], &[0xFF; 9], 50);
    assert!(!rows.is_empty());
    for (k, v) in rows {
        assert_eq!(recovered.peek(t, &k), Some(v.as_slice()), "district row diverged");
    }
}

#[test]
fn three_node_chain_applies_in_order() {
    let mut cl = small_cluster(3);
    let t0 = cl.configure_replication(SimTime::ZERO, 0, &[1, 2]);
    let mut f = XLogFile::open(0);
    let mut now = t0;
    for i in 0..10u8 {
        now = f.x_pwrite(&mut cl, now, &[i; 300]).unwrap();
    }
    now = f.x_fsync(&mut cl, now).unwrap();
    // Eager fsync ⇒ both secondaries hold all 3000 bytes.
    for dev in [1usize, 2] {
        let credit = cl.device_mut(dev).local_credit(now);
        assert_eq!(credit, 3000, "secondary {dev}");
    }
}

#[test]
fn lazy_policy_acks_before_secondaries() {
    let mut eager_cfg = VillarsConfig::small();
    eager_cfg.replication = ReplicationPolicy::Eager;
    let mut lazy_cfg = VillarsConfig::small();
    lazy_cfg.replication = ReplicationPolicy::Lazy;

    let run = |cfg: VillarsConfig| -> SimDuration {
        let mut cl = Cluster::new();
        let p = cl.add_device(cfg.clone());
        let s = cl.add_device(cfg);
        let t0 = cl.configure_replication(SimTime::ZERO, p, &[s]);
        let mut f = XLogFile::open(p);
        let t1 = f.x_pwrite(&mut cl, t0, &[9u8; 2048]).unwrap();
        let t2 = f.x_fsync(&mut cl, t1).unwrap();
        t2.saturating_since(t0)
    };
    let eager = run(eager_cfg);
    let lazy = run(lazy_cfg);
    assert!(lazy < eager, "lazy ({lazy}) must acknowledge before eager ({eager})");
}

#[test]
fn replica_keeps_pace_with_interleaved_writes() {
    let mut cl = small_cluster(2);
    let t0 = cl.configure_replication(SimTime::ZERO, 0, &[1]);
    let mut primary = Database::new();
    let tab = primary.create_table("kv");
    let mut f = XLogFile::open(0);
    let mut replica = Replica::new(1, &["kv"]);
    let mut rng = DetRng::new(5);
    let mut now = t0;
    for round in 0..6u32 {
        for i in 0..8u32 {
            let mut ctx = primary.begin();
            let key = xssd_suite::db::keys::composite(&[round, i]);
            let val = vec![rng.uniform(0, 255) as u8; rng.uniform(20, 200) as usize];
            primary.insert(&mut ctx, tab, key, val);
            let bytes = encode_txn(&primary.commit(ctx).unwrap());
            now = f.x_pwrite(&mut cl, now, &bytes).unwrap();
        }
        now = f.x_fsync(&mut cl, now).unwrap();
        // Catch the replica up mid-stream.
        let settle = now + SimDuration::from_millis(1);
        cl.advance(settle);
        replica.catch_up(&mut cl, settle);
        now = settle;
    }
    let settle = now + SimDuration::from_millis(2);
    cl.advance(settle);
    replica.catch_up(&mut cl, settle);
    assert_eq!(replica.txns_applied(), 48);
    assert_eq!(replica.db.fingerprint(), primary.fingerprint());
}

#[test]
fn workload_runs_identically_with_and_without_facade() {
    // The facade re-exports the same crates; a NoLog run through it matches
    // a direct memdb run (deterministic seeds).
    let run = || {
        let (mut db, mut workload, _rng) = setup(TpccConfig::small(), 11);
        let mut wal = WalManager::new(NoLog::new(), WalConfig::default());
        let cfg = DriverConfig {
            workers: 3,
            measure: SimDuration::from_millis(8),
            ..DriverConfig::default()
        };
        let r = runner::run(&mut db, &mut wal, &mut workload, &cfg).run;
        (r.committed, db.fingerprint())
    };
    let (c1, f1) = run();
    let (c2, f2) = run();
    assert_eq!(c1, c2);
    assert_eq!(f1, f2);
}

#[test]
fn vendor_control_plane_round_trips() {
    use xssd_suite::nvme::{Status, VendorCommand};
    use xssd_suite::xssd::vendor;
    let mut cl = small_cluster(1);
    // Scheduler mode change.
    let (_t, e) = cl.vendor_blocking(
        0,
        SimTime::ZERO,
        VendorCommand::new(vendor::SET_SCHED_MODE, [2, 0, 0, 0, 0, 0]),
    );
    assert_eq!(e.status, Status::Success);
    // Transport status register: stand-alone reports inactive (2).
    let (_t2, e2) = cl.vendor_blocking(
        0,
        SimTime::ZERO,
        VendorCommand::new(vendor::GET_TRANSPORT_STATUS, [0; 6]),
    );
    assert_eq!(e2.status, Status::Success);
    assert_eq!(e2.result, 2);
    // Bad field rejected.
    let (_t3, e3) = cl.vendor_blocking(
        0,
        SimTime::ZERO,
        VendorCommand::new(vendor::SET_SCHED_MODE, [99, 0, 0, 0, 0, 0]),
    );
    assert_eq!(e3.status, Status::InvalidField);
}

#[test]
fn block_interface_still_works_on_a_villars() {
    // The conventional side stays a fully functional NVMe block device
    // while the fast side is in use (the "two IO profiles, one device"
    // claim, paper §3.1).
    use xssd_suite::nvme::NvmeDriver;
    let cl = Cluster::new();
    let _ = cl;
    let device = xssd_suite::xssd::VillarsDevice::new(VillarsConfig::small());
    let mut drv = NvmeDriver::new(device);
    let w = drv.write_blocking(SimTime::ZERO, 40, 1);
    assert!(w.status.is_ok());
    let r = drv.read_blocking(w.completed_at, 40, 1);
    assert!(r.status.is_ok());
}

#[test]
fn secondary_failure_is_detected_and_survivable() {
    // Paper §7.1: a replication error shows up as an indeterminate credit
    // delay; the database checks the transport status register and
    // reconfigures the device via vendor commands.
    use xssd_suite::nvme::{Status, VendorCommand};
    use xssd_suite::xssd::vendor;

    let mut cl = small_cluster(2);
    let t0 = cl.configure_replication(SimTime::ZERO, 0, &[1]);
    let mut f = XLogFile::open(0);

    // Healthy: a replicated write syncs.
    let t1 = f.x_pwrite(&mut cl, t0, &[1u8; 512]).unwrap();
    let t2 = f.x_fsync(&mut cl, t1).unwrap();

    // The secondary's server loses power.
    cl.power_fail(1, t2);
    assert!(cl.is_dead(1));

    // A new write cannot reach eager durability: fsync stalls.
    let t3 = f.x_pwrite(&mut cl, t2, &[2u8; 512]).unwrap();
    let err = f.x_fsync(&mut cl, t3).expect_err("eager fsync cannot complete");
    assert!(matches!(err, xssd_suite::xssd::XApiError::Stalled { .. }));

    // The database checks the status register: Degraded (1) once the
    // staleness window has passed without counter updates.
    let probe_at = t3 + SimDuration::from_millis(1);
    cl.advance(probe_at);
    let (_t4, entry) =
        cl.vendor_blocking(0, probe_at, VendorCommand::new(vendor::GET_TRANSPORT_STATUS, [0; 6]));
    assert_eq!(entry.status, Status::Success);
    assert_eq!(entry.result, 1, "primary must report Degraded");

    // Demote to stand-alone and retry: the fsync now completes locally.
    let (t5, e2) =
        cl.vendor_blocking(0, probe_at, VendorCommand::new(vendor::SET_STAND_ALONE, [0; 6]));
    assert_eq!(e2.status, Status::Success);
    let t6 = f.x_fsync(&mut cl, t5).expect("local fsync after demotion");
    assert!(t6 >= t5);
    let (_t7, credit) = cl.read_credit(0, t6);
    assert_eq!(credit, 1024, "both writes locally persistent");
}

#[test]
fn rebooted_secondary_rejoins_via_vendor_commands() {
    let mut cl = small_cluster(2);
    let t0 = cl.configure_replication(SimTime::ZERO, 0, &[1]);
    let mut f = XLogFile::open(0);
    let t1 = f.x_pwrite(&mut cl, t0, &[7u8; 256]).unwrap();
    let t2 = f.x_fsync(&mut cl, t1).unwrap();

    // Crash and reboot the secondary; its CMB is empty, role stand-alone.
    cl.power_fail(1, t2);
    cl.reboot_device(1);

    // Reconfigure the pair. The new secondary starts from a fresh mirror
    // stream — the primary must restart its log offsets for the new epoch
    // (a fresh XLogFile models the database reopening the log).
    let t3 = cl.configure_replication(t2, 0, &[1]);
    // NOTE: the old handle's offsets continue; mirrored data for offsets the
    // rebooted secondary never saw are held as a gap, so its credit stays 0
    // until the gap is (never) filled. A real database re-syncs the base
    // state first; here we verify the transport plumbing is back.
    cl.advance(t3 + SimDuration::from_micros(50));
    assert!(!cl.is_dead(1));
    assert!(cl.device(0).is_primary());
}

#[test]
fn checkpoint_bounds_recovery_after_ring_wrap() {
    // Write far more log than the destage ring holds. Without a checkpoint
    // the early log has been overwritten (recovery from offset 0 is
    // impossible); with a checkpoint + suffix replay the full state comes
    // back.
    use xssd_suite::db::{recover, Checkpointer, Database};

    let mut cfg = VillarsConfig::small(); // destage ring: 64 LBAs x 4 KiB
    cfg.destage.ring_lbas = 16; // shrink further: 64 KiB of log window
    let mut cl = Cluster::new();
    let dev = cl.add_device(cfg);
    let mut f = XLogFile::open(dev);
    let mut db = Database::new();
    let tab = db.create_table("t");
    let mut ck = Checkpointer::new(dev, 64, 64);

    let mut now = SimTime::ZERO;
    let mut checkpoint_meta = None;
    let total_txns = 120u32; // ~120 * ~700B >> 64 KiB ring
    for i in 0..total_txns {
        let mut ctx = db.begin();
        db.insert(&mut ctx, tab, xssd_suite::db::keys::composite(&[i]), vec![i as u8; 600]);
        let bytes = encode_txn(&db.commit(ctx).unwrap());
        now = f.x_pwrite(&mut cl, now, &bytes).unwrap();
        now = f.x_fsync(&mut cl, now).unwrap();
        if i == 90 {
            // Checkpoint covering everything durable so far.
            let (_t_credit, durable) = cl.read_credit(dev, now);
            let (t, meta) = ck.checkpoint(&mut cl, now, &db, durable);
            now = t;
            checkpoint_meta = Some(meta);
        }
    }
    let settle = now + SimDuration::from_millis(2);
    cl.advance(settle);

    // The ring wrapped: offset 0 is no longer readable.
    assert!(
        cl.device_mut(dev).read_destaged(settle, 0, 0, 64).is_none(),
        "early log must have aged off the ring"
    );

    // Crash + recover: snapshot + suffix replay.
    let report = cl.power_fail(dev, settle);
    cl.reboot_device(dev);
    let durable = report.durable_upto[0];
    let (_t, meta, mut recovered) =
        ck.restore(&mut cl, settle).expect("checkpoint survives the crash");
    assert_eq!(Some(meta), checkpoint_meta);
    assert!(meta.log_offset < durable);
    let suffix_len = (durable - meta.log_offset) as usize;
    let (_t2, suffix) = cl
        .device_mut(dev)
        .read_destaged(settle, 0, meta.log_offset, suffix_len)
        .expect("suffix on the ring");
    let rec = recover(&mut recovered, &suffix);
    assert!(rec.txns_committed > 0, "suffix transactions replayed");
    assert_eq!(
        recovered.fingerprint(),
        db.fingerprint(),
        "checkpoint + suffix replay reconstructs the exact state"
    );
}

#[test]
fn intake_queue_reconfiguration_via_vendor_command() {
    use xssd_suite::nvme::{Status, VendorCommand};
    use xssd_suite::xssd::vendor;
    let mut cl = small_cluster(1);
    assert_eq!(cl.device(0).intake_queue_bytes(), 4 << 10);
    // Renegotiate the flow-control window to 16 KiB.
    let (_t, e) = cl.vendor_blocking(
        0,
        SimTime::ZERO,
        VendorCommand::new(vendor::SET_INTAKE_QUEUE, [16 << 10, 0, 0, 0, 0, 0]),
    );
    assert_eq!(e.status, Status::Success);
    assert_eq!(cl.device(0).intake_queue_bytes(), 16 << 10);
    // Zero bytes or a nonzero reserved CDW11 are rejected.
    let (_t, e2) = cl.vendor_blocking(
        0,
        SimTime::ZERO,
        VendorCommand::new(vendor::SET_INTAKE_QUEUE, [0, 0, 0, 0, 0, 0]),
    );
    assert_eq!(e2.status, Status::InvalidField);
    let (_t, e3) = cl.vendor_blocking(
        0,
        SimTime::ZERO,
        VendorCommand::new(vendor::SET_INTAKE_QUEUE, [4096, 9, 0, 0, 0, 0]),
    );
    assert_eq!(e3.status, Status::InvalidField);
    // And a bigger window genuinely changes the x_pwrite protocol: a 16 KiB
    // append completes its hand-off in one window (no mid-write checks).
    let mut f = XLogFile::open(0);
    let t = f.x_pwrite(&mut cl, SimTime::from_micros(10), &[7u8; 16 << 10]).unwrap();
    assert!(t > SimTime::from_micros(10));
}

#[test]
fn uncached_mode_is_slower_than_write_combining_end_to_end() {
    use xssd_suite::pcie::MmioMode;
    let run = |mode: MmioMode| {
        let mut cl = small_cluster(1);
        let mut f = XLogFile::open_at(0, mode, 0);
        let mut now = SimTime::ZERO;
        for _ in 0..16 {
            now = f.x_pwrite(&mut cl, now, &[1u8; 1024]).unwrap();
        }
        f.x_fsync(&mut cl, now).unwrap()
    };
    let wc = run(MmioMode::WriteCombining);
    let uc = run(MmioMode::Uncached);
    assert!(
        uc.as_nanos() > wc.as_nanos() * 2,
        "UC ({uc}) must pay far more TLP overhead than WC ({wc})"
    );
}
