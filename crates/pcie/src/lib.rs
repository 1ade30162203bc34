//! # pcie — PCIe transaction-layer, store-issue, and interconnect models
//!
//! "PCI may have been a bus, but PCIe is a full-fledged networking system"
//! (paper §2.1). This crate models the parts of that networking system the
//! X-SSD architecture leans on:
//!
//! - [`tlp`] — Transaction Layer Packets and their fixed per-packet costs;
//! - [`link`] — generation/lane-width bandwidth arithmetic and a serializing
//!   [`PcieLink`];
//! - [`wc`] — the CPU Write-Combining vs. Uncached store-issue model behind
//!   paper Fig. 10;
//! - [`dma`] — the device DMA engine (NVMe data phases);
//! - [`ntb`] — Non-Transparent Bridging between hosts (paper §2.3), the
//!   transport under log shipping.

#![warn(missing_docs)]

pub mod dma;
pub mod link;
pub mod ntb;
pub mod tlp;
pub mod wc;

pub use dma::{DmaDirection, DmaEngine, DmaTransfer};
pub use link::{Generation, LaneWidth, LinkConfig, LinkStats, PcieLink};
pub use ntb::{HostId, NtbFaultStats, NtbPort, TranslationWindow, NTB_LINK};
pub use tlp::{BusAddr, Tlp, TlpKind, TLP_OVERHEAD_BYTES};
pub use wc::{MmioMode, StoreIssueModel, WriteShape, UC_STORE_BYTES, WC_BUFFER_BYTES};

#[cfg(test)]
mod integration_tests {
    use super::*;
    use simkit::{Bandwidth, DetRng, SampleSeries, SerialResource, SimDuration, SimTime};

    /// A miniature end-to-end sanity check: pump 4 KiB writes, each a
    /// burst of 256 B TLPs, through a 4 GB/s link feeding a serial 1 GB/s
    /// "memory" and confirm the pipeline's steady-state throughput equals
    /// the slower stage.
    #[test]
    fn pipeline_throughput_is_bottleneck_bound() {
        let mut link = PcieLink::new(LinkConfig::cosmos_native());
        let mut memory = SerialResource::new();
        let mem_bw = Bandwidth::gbytes_per_sec(1.0);

        let write = 4096u64;
        let n = 1000u64;
        let mut done = SimTime::ZERO;
        for _ in 0..n {
            // Issue the next write as soon as the wire frees.
            let g = link.send_write_burst(link.busy_until(), 256, write / 256);
            done = memory.acquire(g.end, mem_bw.transfer_time(write)).end;
        }
        let elapsed = done.saturating_since(SimTime::ZERO);
        let gbps = (n * write) as f64 / elapsed.as_secs_f64() / 1e9;
        // Memory at 1 GB/s is the bottleneck; expect within 5%.
        assert!((gbps - 1.0).abs() < 0.05, "throughput {gbps} GB/s");
    }

    /// Deterministic replay: the same seed and schedule produce the same
    /// measurement series.
    #[test]
    fn deterministic_replay() {
        fn run(seed: u64) -> Vec<f64> {
            let mut rng = DetRng::new(seed);
            let mut link = PcieLink::new(LinkConfig::villars_host());
            let mut lat = SampleSeries::new();
            let mut now = SimTime::ZERO;
            for _ in 0..200 {
                let size = rng.uniform(64, 4096) as u32;
                let g = link.send(now, &Tlp::write(0, size));
                lat.record_duration(g.latency_from(now));
                now += SimDuration::from_nanos(rng.uniform(0, 500));
            }
            lat.samples().to_vec()
        }
        assert_eq!(run(99), run(99));
        assert_ne!(run(99), run(100));
    }
}
