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

pub use dma::{DmaConfig, DmaDirection, DmaEngine, DmaTransfer};
pub use link::{Generation, LaneWidth, LinkConfig, PcieLink};
pub use ntb::{HostId, NtbConfig, NtbFaultStats, NtbPort, TranslationWindow};
pub use tlp::{BusAddr, MaxPayloadSize, Tlp, TlpKind, TlpOverhead};
pub use wc::{MmioMode, StoreIssueModel, WriteShape, UC_STORE_BYTES, WC_BUFFER_BYTES};
