//! Fault injection: the stack under imperfect NAND.
//!
//! The paper's error story (§7.1): destage failures are handled internally
//! by picking a new block; conventional-side errors surface as status
//! codes. These tests run the full logging path over flash with grown bad
//! blocks and program failures and verify the durability contract is
//! unaffected.

use xssd_suite::db::{encode_txn, recover, Database};
use xssd_suite::flash::ReliabilityConfig;
use xssd_suite::sim::{DetRng, SimDuration, SimTime};
use xssd_suite::xssd::{Cluster, VillarsConfig, XLogFile};

/// A Villars whose NAND grows bad blocks aggressively.
fn flaky_config(seed: u64) -> VillarsConfig {
    let mut cfg = VillarsConfig::small();
    cfg.conventional.reliability = ReliabilityConfig {
        initial_bad_block_rate: 0.05,
        program_fail_rate: 0.01, // 1% of programs grow a bad block
        base_bit_error_rate: 1e-9,
        ecc_correctable_bits: 72,
    };
    cfg.conventional.seed = seed;
    cfg
}

#[test]
fn destage_retries_through_program_failures() {
    // Push enough pages through the fast side that several destage programs
    // fail; the firmware retries onto fresh blocks and the log content is
    // still byte-exact.
    let mut cl = Cluster::new();
    let dev = cl.add_device(flaky_config(0xBAD));
    let mut f = XLogFile::open(dev);
    let mut rng = DetRng::new(17);
    let mut payload = Vec::new();
    let mut now = SimTime::ZERO;
    for _ in 0..60 {
        let chunk: Vec<u8> = (0..2048).map(|_| rng.uniform(0, 255) as u8).collect();
        now = f.x_pwrite(&mut cl, now, &chunk).unwrap();
        now = f.x_fsync(&mut cl, now).unwrap();
        payload.extend_from_slice(&chunk);
    }
    let settle = now + SimDuration::from_millis(5);
    cl.advance(settle);
    // Everything destaged despite failures; read a window back and compare.
    let from = cl.device(dev).destaged_upto().saturating_sub(16 << 10).max(8 << 10); // stay inside the readable ring
    let (_t, bytes) =
        cl.device_mut(dev).read_destaged(settle, 0, from, 8 << 10).expect("window readable");
    assert_eq!(&bytes[..], &payload[from as usize..from as usize + (8 << 10)]);
}

#[test]
fn crash_protocol_holds_on_flaky_nand() {
    let mut cl = Cluster::new();
    let dev = cl.add_device(flaky_config(0xFA11));
    let mut f = XLogFile::open(dev);
    let mut db = Database::new();
    let tab = db.create_table("t");
    let mut now = SimTime::ZERO;
    for i in 0..40u32 {
        let mut ctx = db.begin();
        db.insert(&mut ctx, tab, xssd_suite::db::keys::composite(&[i]), vec![i as u8; 300]);
        let bytes = encode_txn(&db.commit(ctx).unwrap());
        now = f.x_pwrite(&mut cl, now, &bytes).unwrap();
        now = f.x_fsync(&mut cl, now).unwrap();
    }
    let report = cl.power_fail(dev, now);
    let durable = report.durable_upto[0] as usize;
    let (_t, stream) = cl
        .device_mut(dev)
        .read_destaged(now, 0, 0, durable)
        .expect("durable log readable after crash on flaky NAND");
    let mut recovered = Database::new();
    recovered.create_table("t");
    let rec = recover(&mut recovered, &stream);
    assert_eq!(rec.txns_committed, 40, "every fsynced txn survives");
    assert_eq!(recovered.fingerprint(), db.fingerprint());
}

#[test]
fn replication_still_exact_with_flaky_secondary_nand() {
    let mut cl = Cluster::new();
    let p = cl.add_device(VillarsConfig::small());
    let s = cl.add_device(flaky_config(0x5EC));
    let t0 = cl.configure_replication(SimTime::ZERO, p, &[s]);
    let mut f = XLogFile::open(p);
    let mut now = t0;
    let mut total = 0u64;
    for i in 0..30u8 {
        now = f.x_pwrite(&mut cl, now, &[i; 700]).unwrap();
        total += 700;
        now = f.x_fsync(&mut cl, now).unwrap();
    }
    // Eager fsync returned: the flaky secondary holds every byte in PM.
    let sec_credit = cl.device_mut(s).local_credit(now);
    assert_eq!(sec_credit, total);
    // And the secondary's destage (with retries) still lands content.
    let settle = now + SimDuration::from_millis(10);
    cl.advance(settle);
    let (_t, bytes) =
        cl.device_mut(s).read_destaged(settle, 0, 0, 700).expect("secondary log readable");
    assert_eq!(bytes, vec![0u8; 700]);
}
