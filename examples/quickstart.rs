//! Quickstart: log to a Villars device's fast side and read the log back.
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! The flow mirrors the paper's drop-in API (§5.1): `x_pwrite` hands log
//! bytes to the byte-addressable fast side, `x_fsync` blocks until the
//! credit counter covers them (persistent on PM), and `x_pread` tail-reads
//! the log once the device has destaged it to NAND.

use xssd_suite::sim::SimTime;
use xssd_suite::xssd::{Cluster, VillarsConfig, XLogFile};

fn main() {
    // A single stand-alone Villars device with the paper's SRAM-backed CMB
    // (128 KiB fast side, 32 KiB flow-control window).
    let mut cluster = Cluster::new();
    let dev = cluster.add_device(VillarsConfig::villars_sram());
    let mut log = XLogFile::open(dev);

    println!("== X-SSD quickstart ==");
    println!(
        "device: SRAM-backed CMB, intake queue {} KiB",
        cluster.device(dev).intake_queue_bytes() >> 10
    );

    // Append a few transaction-log-shaped records.
    let mut now = SimTime::ZERO;
    let mut total = 0usize;
    for txn in 0u8..32 {
        let record = vec![txn; 512];
        now = log.x_pwrite(&mut cluster, now, &record).expect("x_pwrite");
        total += record.len();
    }
    let t_write = now;
    println!("appended {total} bytes by {t_write}");

    // Make them durable: one x_fsync covers everything outstanding.
    now = log.x_fsync(&mut cluster, now).expect("x_fsync");
    println!("durable (credit counter caught up) at {now}");
    println!("fsync cost for the batch: {}", now.saturating_since(t_write));

    // The device destages to its conventional side in the background; the
    // tail read blocks until the requested range is on NAND.
    let (t_read, bytes) = log.x_pread(&mut cluster, now, 1024).expect("x_pread");
    println!(
        "tail-read 1 KiB of destaged log at {t_read}: first txn id {}, last {}",
        bytes[0],
        bytes[bytes.len() - 1]
    );
    assert_eq!(&bytes[..512], &[0u8; 512][..]);
    assert_eq!(&bytes[512..], &[1u8; 512][..]);

    let stats = cluster.device(dev).cmb_stats();
    let dstats = cluster.device(dev).destage_stats();
    println!(
        "CMB: {} bytes in, {} chunks; destage: {} full pages, {} partial ({} filler bytes)",
        stats.bytes_in, stats.chunks, dstats.full_pages, dstats.partial_pages, dstats.filler_bytes
    );
    println!("ok");
}
