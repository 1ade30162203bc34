//! # ssd — the conventional SSD
//!
//! The block-interface device of paper Fig. 2 (bottom), which also serves as
//! the *conventional side* of a Villars device:
//!
//! - [`hic`] — Host Interface Controller: command fetch, DMA, the host link;
//! - [`buffer`] — the DRAM Data Buffer (write-back cache) whose port a
//!   DRAM-backed CMB shares;
//! - [`ftl`] — page-mapping Flash Translation Layer with per-stream active
//!   blocks;
//! - [`device`] — [`ConventionalSsd`]: the full NVMe block device, plus the
//!   internal destage-write/read entry points the X-SSD fast side uses.
//!
//! Fresh device only: the FTL never reclaims; a run that writes more pages
//! than the raw capacity stops with `device full`.

#![warn(missing_docs)]

pub mod buffer;
pub mod device;
pub mod ftl;
pub mod hic;

pub use buffer::{BufferStats, DataBuffer};
pub use device::{ConventionalSsd, SsdConfig};
pub use ftl::{AllocStream, Ftl, FtlStats, Lpn};
pub use hic::{Hic, HicConfig};

#[cfg(test)]
mod crate_tests {
    use super::*;
    use nvme::{NvmeController, NvmeDriver, Status};
    use simkit::bytes::Bytes;
    use simkit::SimTime;

    fn driver() -> NvmeDriver<ConventionalSsd> {
        NvmeDriver::new(ConventionalSsd::new(SsdConfig::small()))
    }

    #[test]
    fn write_read_round_trip_with_content() {
        let mut drv = driver();
        let payload = Bytes::from(vec![0xAB; 4096]);
        drv.controller_mut().stage_write_data(5, payload.clone());
        let w = drv.write_blocking(SimTime::ZERO, 5, 1);
        assert!(w.status.is_ok());
        let r = drv.read_blocking(w.completed_at, 5, 1);
        assert!(r.status.is_ok());
        assert!(r.completed_at > w.completed_at);
        assert_eq!(drv.controller().read_content(5).unwrap(), payload);
    }

    #[test]
    fn cached_write_is_fast_flush_is_slow() {
        let mut drv = driver();
        let w = drv.write_blocking(SimTime::ZERO, 0, 1);
        // Write-cache ack: syscall + fetch + DMA + buffer, well under tPROG.
        assert!(w.completed_at.as_micros_f64() < 50.0, "cached ack took {}", w.completed_at);
        let f = drv.flush_blocking(w.completed_at);
        assert!(f.status.is_ok());
        // Flush waits for the 50us (fast-timing) program.
        assert!(
            f.completed_at.as_micros_f64() >= 50.0,
            "flush returned too early: {}",
            f.completed_at
        );
    }

    #[test]
    fn flush_makes_data_durable() {
        let mut drv = driver();
        let payload = Bytes::from(vec![7u8; 4096]);
        drv.controller_mut().stage_write_data(3, payload.clone());
        let w = drv.write_blocking(SimTime::ZERO, 3, 1);
        let f = drv.flush_blocking(w.completed_at);
        drv.controller_mut().power_fail(f.completed_at);
        // Flushed data survives on media.
        assert_eq!(drv.controller().media_content(3).unwrap(), payload);
    }

    #[test]
    fn unflushed_write_lost_on_power_failure() {
        let mut drv = driver();
        drv.controller_mut().stage_write_data(9, Bytes::from(vec![1u8; 4096]));
        let w = drv.write_blocking(SimTime::ZERO, 9, 1);
        // Crash right after the cached ack, before tPROG can finish.
        drv.controller_mut().power_fail(w.completed_at);
        assert!(drv.controller().media_content(9).is_none(), "dirty page must be lost");
    }

    #[test]
    fn out_of_range_io_rejected() {
        let mut drv = driver();
        let cap = drv.namespace().capacity_lbas;
        let w = drv.write_blocking(SimTime::ZERO, cap, 1);
        assert_eq!(w.status, Status::LbaOutOfRange);
        let r = drv.read_blocking(w.completed_at, cap - 1, 2);
        assert_eq!(r.status, Status::LbaOutOfRange);
    }

    #[test]
    fn read_of_never_written_page_returns_zeros_fast() {
        let mut drv = driver();
        let r = drv.read_blocking(SimTime::ZERO, 7, 1);
        assert!(r.status.is_ok());
        assert!(drv.controller().read_content(7).is_none());
    }

    #[test]
    fn write_cache_off_waits_for_flash() {
        let mut cfg = SsdConfig::small();
        cfg.write_cache = false;
        let mut drv = NvmeDriver::new(ConventionalSsd::new(cfg));
        let w = drv.write_blocking(SimTime::ZERO, 0, 1);
        assert!(w.status.is_ok());
        assert!(
            w.completed_at.as_micros_f64() >= 50.0,
            "uncached write must include tPROG, got {}",
            w.completed_at
        );
    }

    #[test]
    fn destage_path_bypasses_buffer_and_lands_on_media() {
        let mut ssd = ConventionalSsd::new(SsdConfig::small());
        let data = Bytes::from(vec![0xDD; 4096]);
        let token = ssd.submit_destage_write(SimTime::ZERO, 100, data.clone());
        ssd.advance_to(SimTime::from_millis(10));
        let mut done = Vec::new();
        ssd.drain_destage_completions_into(SimTime::from_millis(10), &mut done);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].1, token);
        assert_eq!(ssd.media_content(100).unwrap(), data);
        // Destage never touched the data buffer.
        assert_eq!(ssd.buffer_stats().writes, 0);
    }

    #[test]
    fn destage_rescue_completes_on_power_loss() {
        let mut ssd = ConventionalSsd::new(SsdConfig::small());
        let data = Bytes::from(vec![0xEE; 4096]);
        // Queue destage writes and crash immediately, before any complete.
        for i in 0..4u64 {
            ssd.submit_destage_write(SimTime::ZERO, 200 + i, data.clone());
        }
        let finished = ssd.power_fail_rescue_destage(SimTime::ZERO);
        assert!(finished > SimTime::ZERO);
        for i in 0..4u64 {
            assert_eq!(ssd.media_content(200 + i).unwrap(), data, "page {i} rescued");
        }
    }

    #[test]
    fn internal_read_completes() {
        let mut ssd = ConventionalSsd::new(SsdConfig::small());
        ssd.submit_destage_write(SimTime::ZERO, 50, Bytes::from(vec![1u8; 4096]));
        ssd.advance_to(SimTime::from_millis(1));
        let token = ssd.submit_internal_read(SimTime::from_millis(1), 50).expect("page mapped");
        ssd.advance_to(SimTime::from_millis(2));
        let mut done = Vec::new();
        ssd.drain_internal_reads_into(SimTime::from_millis(2), &mut done);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].1, token);
        // Unmapped page: no read possible.
        assert!(ssd.submit_internal_read(SimTime::from_millis(2), 999).is_none());
    }

    #[test]
    #[should_panic(expected = "device full")]
    fn sustained_overwrites_stop_at_device_full() {
        // Nothing reclaims a stale page: overwriting eight pages uses up the
        // raw capacity one page per write, and the write after that stops
        // the run.
        let cfg = SsdConfig::small();
        let total_pages = cfg.geometry.total_pages();
        let mut drv = NvmeDriver::new(ConventionalSsd::new(cfg));
        let mut now = SimTime::ZERO;
        for i in 0..total_pages {
            let w = drv.write_blocking(now, i % 8, 1);
            assert!(w.status.is_ok(), "write {i} failed");
            now = w.completed_at;
        }
        assert_eq!(drv.controller().ftl_stats().host_writes, total_pages);
        drv.write_blocking(now, 0, 1);
    }

    #[test]
    fn link_sees_dma_traffic() {
        let mut drv = driver();
        drv.write_blocking(SimTime::ZERO, 0, 2);
        let stats = drv.controller().link_stats();
        assert!(stats.payload_bytes >= 8192, "two pages DMAed: {stats:?}");
    }
}
