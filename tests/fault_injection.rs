//! Fault injection: the stack under imperfect NAND.
//!
//! The paper's error story (§7.1): destage failures are handled internally
//! by picking a new block; conventional-side errors surface as status
//! codes. These tests run the full logging path over flash with factory bad
//! blocks and program failures injected by the fault plan, see at least one
//! failure each, and verify the durability contract is unaffected.

use xssd_suite::db::{encode_txn, recover, Database};
use xssd_suite::flash::ReliabilityConfig;
use xssd_suite::sim::faults::FlashFaultConfig;
use xssd_suite::sim::{DetRng, SimDuration, SimTime};
use xssd_suite::xssd::{Cluster, DeviceIndex, VillarsConfig, XLogFile};

/// The share of page programs that fail. The crash and replication tests
/// program only 4 and 6 pages, so their seeds are ones whose fault stream
/// fails one of them; each test asserts that a program failed.
const PERMANENT_PROGRAM: f64 = 0.2;

/// Add a Villars whose NAND has factory bad blocks and whose programs fail
/// permanently at a high rate, each failure growing a bad block.
fn add_flaky_device(cl: &mut Cluster, seed: u64) -> DeviceIndex {
    let mut cfg = VillarsConfig::small();
    cfg.conventional.reliability = ReliabilityConfig { initial_bad_block_rate: 0.05 };
    cfg.conventional.seed = seed;
    let dev = cl.add_device(cfg);
    let faults = FlashFaultConfig { permanent_program: PERMANENT_PROGRAM, ..Default::default() };
    cl.device_mut(dev).arm_flash_faults(faults, DetRng::new(seed));
    dev
}

#[test]
fn destage_retries_through_program_failures() {
    // Push enough pages through the fast side that several destage programs
    // fail; the firmware retries onto fresh blocks and the log content is
    // still byte-exact.
    let mut cl = Cluster::new();
    let dev = add_flaky_device(&mut cl, 0xBAD);
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
    assert!(cl.device(dev).flash_stats().program_failures > 0, "a destage program failed");
}

#[test]
fn crash_protocol_holds_on_flaky_nand() {
    let mut cl = Cluster::new();
    let dev = add_flaky_device(&mut cl, 0xFA12);
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
    assert!(cl.device(dev).flash_stats().program_failures > 0, "a program failed");
}

#[test]
fn replication_still_exact_with_flaky_secondary_nand() {
    let mut cl = Cluster::new();
    let p = cl.add_device(VillarsConfig::small());
    let s = add_flaky_device(&mut cl, 0x5ED);
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
    assert!(cl.device(s).flash_stats().program_failures > 0, "a secondary program failed");
}
