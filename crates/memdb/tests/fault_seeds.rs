//! Hand-rolled property test over fault seeds (paper §4.1 / §7.1).
//!
//! Property: under *any* deterministic fault schedule — flash transient
//! retries, permanent bad-block growth, TLP drops — a crash-restart of a
//! replicated pair recovers every committed transaction from every copy
//! and never resurrects a transaction whose commit marker was not logged,
//! even when its records were durably destaged.
//!
//! No property-testing crate is available in this workspace, so the sweep
//! is driven by a seeded [`DetRng`]: a dozen derived seeds each configure a
//! different fault mix and workload shape. A failing seed prints in the
//! assertion message and replays exactly.

use memdb::{durable_log_stream, encode_txn, keys, recover, Database, LogOp, LogRecord};
use simkit::faults::{FaultPlan, FlashFaultConfig, TransportFaultConfig};
use simkit::{DetRng, SimDuration, SimTime};
use xssd_core::{Cluster, VillarsConfig, XLogFile};

/// One replicated commit-crash-recover arc under a seed-derived fault mix.
fn run_case(seed: u64) {
    let mut cluster = Cluster::new();
    let p = cluster.add_device(VillarsConfig::small());
    let s = cluster.add_device(VillarsConfig::small());
    let t0 = cluster.configure_replication(SimTime::ZERO, p, &[s]);

    // Rates themselves vary with the seed, so the sweep covers quiet and
    // hostile mixes rather than twelve samples of one distribution.
    let mut mix = DetRng::new(seed).fork(0xA117);
    let plan = FaultPlan {
        seed,
        flash: FlashFaultConfig {
            transient_read: 0.02 + 0.10 * mix.unit(),
            transient_program: 0.02 + 0.10 * mix.unit(),
            permanent_program: 0.05 * mix.unit(),
            max_retries: 3,
        },
        transport: TransportFaultConfig {
            tlp_drop: 0.08 * mix.unit(),
            replay_timeout: SimDuration::from_micros(5),
        },
        ..FaultPlan::disabled()
    };
    cluster.arm_faults(&plan);

    let mut db = Database::new();
    let tab = db.create_table("t");
    let mut file = XLogFile::open(p);
    let mut now = t0;
    let mut shape = DetRng::new(seed).fork(0xCA5E);
    let n_txns = 16 + (seed % 17) as u32;
    let mut live: Vec<u32> = Vec::new();
    for i in 0..n_txns {
        let mut ctx = db.begin();
        let val_len = 16 + (shape.next_u64() % 96) as usize;
        db.insert(&mut ctx, tab, keys::composite(&[i]), vec![(i % 251) as u8; val_len]);
        if !live.is_empty() && shape.chance(0.3) {
            let victim = live.swap_remove((shape.next_u64() as usize) % live.len());
            db.delete(&mut ctx, tab, keys::composite(&[victim]));
        }
        live.push(i);
        let recs = db.commit(ctx).expect("commit");
        let t = file.x_pwrite(&mut cluster, now, &encode_txn(&recs)).expect("x_pwrite");
        now = file.x_fsync(&mut cluster, t).expect("x_fsync");
    }

    // A durable-but-uncommitted tail: records with no commit marker. Even
    // fsynced onto both copies, recovery must never apply it.
    let ghost = LogRecord {
        txn_id: 0xDEAD_0000 + seed,
        op: LogOp::Insert,
        table: tab,
        key: b"ghost".to_vec().into(),
        value: vec![0xEE; 32].into(),
    };
    let t = file.x_pwrite(&mut cluster, now, &ghost.encode()).expect("x_pwrite");
    now = file.x_fsync(&mut cluster, t).expect("x_fsync");

    // Crash-restart: both copies power-fail, each crash-destages its
    // residue; recovery from either copy alone must rebuild the database.
    let settle = now + SimDuration::from_millis(2);
    cluster.advance(settle);
    cluster.power_fail(p, settle);
    cluster.power_fail(s, settle);
    for dev in [p, s] {
        cluster.reboot_device(dev);
        let stream = durable_log_stream(&mut cluster, settle, dev);
        let mut recovered = Database::new();
        recovered.create_table("t");
        let rep = recover(&mut recovered, &stream);
        assert_eq!(
            rep.txns_committed as u32, n_txns,
            "seed {seed:#x} dev {dev}: committed transactions lost"
        );
        assert!(
            recovered.peek(tab, b"ghost").is_none(),
            "seed {seed:#x} dev {dev}: uncommitted transaction resurrected"
        );
        assert_eq!(
            recovered.fingerprint(),
            db.fingerprint(),
            "seed {seed:#x} dev {dev}: recovered state diverged from the live database"
        );
    }
}

#[test]
fn any_fault_schedule_recovers_committed_txns_only() {
    let mut seeds = DetRng::new(0x5EED_53ED);
    for _ in 0..12 {
        run_case(seeds.next_u64());
    }
}
