//! # xssd_core — the X-SSD architecture and the Villars reference device
//!
//! The paper's primary contribution (SIGMOD '22): an SSD that mixes PM and
//! NAND flash, taking transaction-log writes on a byte-addressable *fast
//! side* and owning their propagation — to NAND (destaging) and to peer
//! devices (log shipping) — on behalf of the database.
//!
//! - [`config`] — device/CMB/destage/transport configuration;
//! - [`cmb`] — the CMB module: intake queue, PM ring, credit counter,
//!   credit-based flow control, gap detection (paper §4.1);
//! - [`destage`] — the Destage module: LBA ring, filler pages, latency
//!   threshold, crash destaging (paper §4.3);
//! - [`transport`] — the Transport module: NTB mirror flows, shadow
//!   counters, replication policies (paper §4.2);
//! - [`device`] — [`VillarsDevice`]: both sides glued together behind a
//!   conformant NVMe interface with vendor-command setup;
//! - [`cluster`] — [`Cluster`]: devices interconnected by NTB, routing
//!   mirror and shadow-counter traffic deterministically;
//! - the asynchronous [`IoPort`] command-lifecycle contract (tagged
//!   submissions, event-driven completions) the Villars device shares
//!   with the NVMe host driver, with the closed-loop
//!   [`drive_to_completion`] adapter the `*_blocking` helpers route
//!   through, re-exported from `nvme::port` (the protocol layer below
//!   every device crate);
//! - [`api`] — the drop-in host API: [`XLogFile`] (`x_pwrite`/`x_fsync`/
//!   `x_pread`) and the advanced [`XAllocator`] (`x_alloc`/`x_free`)
//!   (paper §5).

#![warn(missing_docs)]

pub mod api;
pub mod cluster;
pub mod cmb;
pub mod config;
pub mod destage;
pub mod device;
pub mod transport;

pub use api::{XAllocator, XApiError, XLogFile, XRegion};
pub use cluster::Cluster;
pub use cmb::{CmbError, CmbModule, CmbStats};
pub use config::{CmbConfig, DestageConfig, ReplicationPolicy, TransportConfig, VillarsConfig};
pub use destage::{DestageModule, DestageStats, Segment};
pub use device::{vendor, CrashReport, FastWrite, VillarsDevice};
pub use nvme::port::{drive_to_completion, CmdTag, Completion, IoPort, PortAccounting};
pub use transport::{
    DeviceIndex, MirrorWrite, Outbound, Role, TlpRun, TransportModule, TransportStatus,
};
