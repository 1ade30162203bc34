//! Checkpointing: bounding recovery once the destage ring wraps.
//!
//! Run with: `cargo run --release --example checkpointing`
//!
//! The destage ring on the conventional side is finite; a long-running
//! database periodically snapshots its tables through the block interface
//! (conventional-class traffic — the priority scheduling of §6.4 keeps it
//! from hurting the log path) and records the covered log offset. Recovery
//! is snapshot + log-suffix replay instead of a full-log scan.

use xssd_suite::db::{encode_txn, recover, Checkpointer, Database};
use xssd_suite::sim::{SimDuration, SimTime};
use xssd_suite::xssd::{Cluster, VillarsConfig, XLogFile};

fn main() {
    println!("== checkpoint + log-suffix recovery ==");
    let mut cfg = VillarsConfig::small();
    cfg.destage.ring_lbas = 16; // a deliberately small log window (64 KiB)
    let mut cluster = Cluster::new();
    let dev = cluster.add_device(cfg);
    let mut log = XLogFile::open(dev);
    let mut db = Database::new();
    let table = db.create_table("events");
    let mut ck = Checkpointer::new(dev, 64, 64);

    let mut now = SimTime::ZERO;
    let mut last_meta = None;
    for i in 0u32..150 {
        let mut ctx = db.begin();
        db.insert(&mut ctx, table, xssd_suite::db::keys::composite(&[i]), vec![i as u8; 500]);
        let bytes = encode_txn(&db.commit(ctx).unwrap());
        now = log.x_pwrite(&mut cluster, now, &bytes).unwrap();
        now = log.x_fsync(&mut cluster, now).unwrap();
        // Checkpoint every 50 transactions (the final 50 stay in the log,
        // so recovery demonstrates the suffix replay).
        if i % 50 == 49 && i < 100 {
            let (_t, durable) = cluster.read_credit(dev, now);
            let (t, meta) = ck.checkpoint(&mut cluster, now, &db, durable);
            println!(
                "checkpoint generation {} at txn {} (covers {} log bytes, {} KiB snapshot, done {t})",
                meta.generation,
                i + 1,
                meta.log_offset,
                meta.bytes >> 10
            );
            now = t;
            last_meta = Some(meta);
        }
    }
    cluster.advance(now + SimDuration::from_millis(2));
    let settle = now + SimDuration::from_millis(2);

    // The 150 x ~550 B of log far exceeds the 64 KiB ring: a full-log scan
    // is impossible, and that is fine.
    assert!(cluster.device_mut(dev).read_destaged(settle, 0, 0, 64).is_none());
    println!("ring has wrapped: log offset 0 is gone (expected)");

    // Crash and recover from the newest snapshot + suffix.
    let report = cluster.power_fail(dev, settle);
    cluster.reboot_device(dev);
    let durable = report.durable_upto[0];
    let (_t, meta, mut recovered) = ck.restore(&mut cluster, settle).expect("snapshot");
    println!(
        "restored snapshot generation {} (log offset {}); replaying suffix of {} bytes",
        meta.generation,
        meta.log_offset,
        durable - meta.log_offset
    );
    let (_t2, suffix) = cluster
        .device_mut(dev)
        .read_destaged(settle, 0, meta.log_offset, (durable - meta.log_offset) as usize)
        .expect("suffix readable");
    let rec = recover(&mut recovered, &suffix);
    println!("replayed {} transactions from the suffix", rec.txns_committed);
    assert_eq!(recovered.fingerprint(), db.fingerprint());
    assert_eq!(Some(meta.generation), last_meta.map(|m| m.generation));
    println!("state identical to pre-crash database: ok");
}
