//! Destage pages shared across the devices of one cluster.
//!
//! Under eager replication every copy of the log destages the same spans
//! with the same bytes, and the cluster keeps one allocation per page for
//! all of them (`destage::PageStore`). Sharing is storage only: a page
//! whose span matches another device's but whose bytes differ is copied, so
//! no device ever reads back bytes it was not sent.

use pcie::MmioMode;
use simkit::{DetRng, SimDuration, SimTime};
use xssd_core::{Cluster, VillarsConfig, XLogFile};

/// `len` bytes of the log at `from`, salted per writer.
fn pattern(salt: u8, from: u64, len: usize) -> Vec<u8> {
    (from..from + len as u64).map(|o| (o.wrapping_mul(131) >> 3) as u8 ^ salt).collect()
}

#[test]
fn eager_replicas_hold_one_allocation_per_destaged_page() {
    let config = VillarsConfig::small();
    let ring_bytes = config.destage.ring_lbas * u64::from(config.conventional.geometry.page_bytes);
    let mut cl = Cluster::new();
    for _ in 0..3 {
        cl.add_device(config.clone());
    }
    let mut now = cl.configure_replication(SimTime::ZERO, 0, &[1, 2]);
    let mut file = XLogFile::open(0);
    let mut rng = DetRng::new(0x5A4E);
    // One and a half rings of log, 64 B – 6 KiB per commit.
    while file.written() < ring_bytes * 3 / 2 {
        let data = pattern(0, file.written(), 8 * rng.uniform(8, 768) as usize);
        let t1 = file.x_pwrite(&mut cl, now, &data).expect("x_pwrite");
        now = file.x_fsync(&mut cl, t1).expect("x_fsync");
    }
    // Past the partial-page deadline and every program.
    cl.advance(now + SimDuration::from_millis(5));
    let from = cl.device(0).destage_readable_from(0).expect("pages destaged");
    assert!(from > 0, "the ring never wrapped");
    let (mut off, mut spans) = (from, 0);
    while let Some(seg) = cl.device(0).destaged_segment(off) {
        let page = cl.device(0).conventional().media_content(seg.lba).expect("programmed");
        let len = (seg.log_to - seg.log_from) as usize;
        assert_eq!(
            page[..len],
            pattern(0, seg.log_from, len),
            "[{}, {})",
            seg.log_from,
            seg.log_to
        );
        for dev in [1, 2] {
            assert_eq!(cl.device(dev).destaged_segment(off), Some(seg), "dev{dev}");
            let theirs = cl.device(dev).conventional().media_content(seg.lba).expect("programmed");
            assert_eq!(
                theirs.as_ptr(),
                page.as_ptr(),
                "dev{dev} holds its own copy of [{}, {})",
                seg.log_from,
                seg.log_to
            );
        }
        (off, spans) = (seg.log_to, spans + 1);
    }
    assert_eq!(off, file.written(), "the readable window ends at the log's tail");
    assert!(spans >= config.destage.ring_lbas - 1, "{spans} readable spans");
}

#[test]
fn devices_with_different_bytes_at_the_same_offsets_share_no_page() {
    // Two stand-alone devices in one cluster, fed in lockstep: the same
    // offsets at the same instants, so they destage the same spans — but
    // different bytes.
    let config = VillarsConfig::small();
    let mut cl = Cluster::new();
    cl.add_device(config.clone());
    cl.add_device(config.clone());
    let (mut now, mut tail) = (SimTime::ZERO, 0u64);
    let ring_bytes = config.destage.ring_lbas * u64::from(config.conventional.geometry.page_bytes);
    while tail < ring_bytes * 3 / 2 {
        for dev in 0..2 {
            let data = pattern(dev as u8 + 1, tail, 3 << 10);
            cl.fast_write(dev, now, tail, &data, MmioMode::WriteCombining).expect("fast_write");
        }
        tail += 3 << 10;
        now += SimDuration::from_micros(20);
        cl.advance(now);
    }
    now += SimDuration::from_millis(5);
    cl.advance(now);
    let from = cl.device(0).destage_readable_from(0).expect("pages destaged");
    assert!(from > 0, "the ring never wrapped");
    let mut off = from;
    while let Some(seg) = cl.device(0).destaged_segment(off) {
        assert_eq!(cl.device(1).destaged_segment(off), Some(seg), "the spans match");
        let [a, b] = [0, 1].map(|d| cl.device(d).conventional().media_content(seg.lba));
        let (a, b) = (a.expect("programmed"), b.expect("programmed"));
        assert_ne!(
            a.as_ptr(),
            b.as_ptr(),
            "[{}, {}) shared across different bytes",
            seg.log_from,
            seg.log_to
        );
        off = seg.log_to;
    }
    assert_eq!(off, tail);
    for dev in 0..2 {
        let len = (tail - from) as usize;
        let (_, bytes) = cl.device_mut(dev).read_destaged(now, 0, from, len).expect("readable");
        assert!(
            bytes == pattern(dev as u8 + 1, from, len),
            "dev{dev} reads back bytes it was not sent"
        );
    }
}
