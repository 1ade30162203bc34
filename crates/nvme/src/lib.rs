//! # nvme — the NVMe protocol layer
//!
//! "Today's main conduit between devices and the OS/applications is a
//! standard protocol called NVMe" (paper §2.1). This crate provides:
//!
//! - [`command`] — the I/O, admin, and vendor-specific command set (the
//!   X-SSD control plane rides on vendor commands, §4.2);
//! - [`namespace`] — the logical-block address space;
//! - [`regions`] — CMB/PMR descriptors (§2.3);
//! - [`controller`] — the [`NvmeController`] device contract and the one
//!   host driver, [`NvmeDriver`], with fixed syscall/interrupt costs
//!   and the fault-retry path;
//! - [`port`] — the asynchronous host-side [`IoPort`]
//!   submission/completion contract ([`NvmeDriver`] and the Villars device
//!   implement it), plus the closed-loop [`drive_to_completion`] adapter
//!   blocking helpers route through.
//!
//! Host-side submission/completion rings are not modelled: every port is
//! unbounded and queueing delay comes from the device models behind it.

#![warn(missing_docs)]

pub mod command;
pub mod controller;
pub mod namespace;
pub mod port;
pub mod regions;

pub use command::{
    AdminCommand, Command, CommandId, CommandKind, CompletionEntry, IoCommand, Lba, Status,
    VendorCommand,
};
pub use controller::{IoResult, NvmeController, NvmeDriver};
pub use namespace::Namespace;
pub use port::{drive_to_completion, CmdTag, Completion, IoPort, PortAccounting};
pub use regions::{BackingClass, CmbDescriptor};
