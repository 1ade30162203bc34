//! The unified asynchronous I/O port, re-exported at the `core` layer.
//!
//! The host side of both command paths speaks the same command-lifecycle
//! contract — submit → queue → device event → completion:
//!
//! - [`VillarsDevice`](crate::VillarsDevice) (fast side + conventional
//!   side behind one NVMe interface), whose host is the
//!   [`Cluster`](crate::Cluster);
//! - the `nvme` host driver (`NvmeDriver`), which adds syscall/interrupt
//!   costs on top of a wrapped controller such as a bare
//!   `ssd::ConventionalSsd` (itself device side only).
//!
//! The contract itself — [`IoPort`], [`CmdTag`], [`Completion`], the
//! shared [`PortAccounting`] bookkeeping and the closed-loop
//! [`drive_to_completion`] adapter — lives in `nvme::port` (the protocol
//! layer below every device crate) and is re-exported here so host-level
//! code can name it from `xssd_core` directly. Cluster-level entry points
//! are [`Cluster::submit`](crate::Cluster::submit),
//! [`Cluster::completions_into`](crate::Cluster::completions_into) and
//! [`Cluster::wait_for_completion`](crate::Cluster::wait_for_completion);
//! the `*_blocking` helpers are thin closed-loop adapters over them.

pub use nvme::port::{drive_to_completion, CmdTag, Completion, IoPort, PortAccounting};
