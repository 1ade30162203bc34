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
//!   transport under log shipping;
//! - [`rdma`] — an RDMA-verbs-class model used as the ablation baseline.

#![warn(missing_docs)]

pub mod dma;
pub mod link;
pub mod ntb;
pub mod rdma;
pub mod tlp;
pub mod wc;

pub use dma::{DmaConfig, DmaDirection, DmaEngine, DmaTransfer};
pub use link::{Generation, LaneWidth, LinkConfig, PcieLink};
pub use ntb::{HostId, NtbConfig, NtbFaultStats, NtbPort, TranslationWindow};
pub use rdma::{RdmaConfig, RdmaTransport};
pub use tlp::{BusAddr, MaxPayloadSize, Tlp, TlpKind, TlpOverhead};
pub use wc::{MmioMode, StoreIssueModel, WriteShape, UC_STORE_BYTES, WC_BUFFER_BYTES};

#[cfg(test)]
mod crate_tests {
    use super::*;
    use simkit::SimTime;

    /// End-to-end across the crate: an application write lands in a CMB
    /// window, the TLPs are forwarded over NTB, and the NTB path is faster
    /// than the equivalent RDMA-persistent path (the paper's §2.3 claim).
    #[test]
    fn ntb_beats_rdma_for_persistent_small_writes() {
        // The CMB's BAR window on the local bus.
        let (cmb_base, cmb_len) = (0x8000_0000u64, 128u64 << 10);

        let mut port = NtbPort::new(NtbConfig::default(), HostId(1));
        port.add_window(TranslationWindow {
            local_base: cmb_base,
            len: cmb_len,
            remote_host: HostId(1),
            remote_base: 0x9000_0000,
        });

        // A 64-byte log record: one WC-combined TLP.
        let issue = StoreIssueModel::wc();
        let shape = issue.shape(64);
        assert_eq!((shape.full_count, shape.trailing_bytes), (1, 0));
        let (_fwd, ntb_grant) = port
            .forward(SimTime::ZERO, &Tlp::write(cmb_base, shape.unit as u32))
            .expect("window covers the CMB");

        let mut rdma = RdmaTransport::new(RdmaConfig::default());
        let rdma_grant = rdma.write_persistent(SimTime::ZERO, 64);

        assert!(ntb_grant.end < rdma_grant.end, "NTB {} vs RDMA {}", ntb_grant.end, rdma_grant.end);
    }
}
