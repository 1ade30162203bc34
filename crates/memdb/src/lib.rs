//! # memdb — main-memory database substrate
//!
//! An ERMIA-class main-memory engine (paper §6: "they maintain all their
//! data in DRAM and persist only the transaction log, which therefore
//! becomes their main bottleneck"):
//!
//! - [`storage`] — ordered in-memory tables, serial transactions,
//!   order-preserving key encoding;
//! - [`log`] — self-framing WAL records with checksums;
//! - [`backend`] — the pluggable log devices Fig. 9 compares ([`NoLog`],
//!   [`PmLog`], [`NvmeLog`], [`XssdLog`]);
//! - [`wal`] — group commit (16 KiB threshold + timeout);
//! - [`runner`] — the one workload runner: [`runner::run`] drives a
//!   [`Workload`]'s weighted kinds on pinned workers through a
//!   [`WalManager`] and returns a [`DriverReport`] (throughput, latency per
//!   kind and per time bucket);
//! - [`checkpoint`] — ping-pong snapshots on the conventional side;
//! - [`recovery`] — analysis+redo over the device's destaged log: the
//!   latest snapshot plus the log suffix after its offset
//!   (docs/ROBUSTNESS.md, "Log lifecycle");
//! - [`replica`] — hot-standby apply over a Villars secondary.

#![warn(missing_docs)]

mod arena;
pub mod backend;
pub mod checkpoint;
pub mod failover;
mod index;
pub mod key;
pub mod log;
pub mod recovery;
pub mod replica;
pub mod runner;
pub mod storage;
pub mod wal;

pub use backend::{AppendTag, LogBackend, NoLog, NvmeLog, PmConfig, PmLog, XssdLog};
pub use failover::{durable_log_stream, fail_over, rejoin_secondary, FailoverReport};

pub use checkpoint::{
    decode_snapshot, encode_snapshot, CheckpointMeta, Checkpointer, SnapshotError,
};
pub use index::HintCounts;
pub use key::SmallKey;
pub use log::{decode_one, decode_stream, DecodeError, LogOp, LogRecord, TableId};
pub use recovery::{encode_txn, recover, RecoveryReport};
pub use replica::Replica;
pub use runner::{
    DriverConfig, DriverReport, KindReport, RunReport, TimeBucket, TxnOutcome, Workload,
};
pub use storage::{keys, Database, Key, Row, Table, TxnCtx, TxnError};
pub use wal::{FlushReport, Lsn, WalConfig, WalManager};
