//! # simkit — discrete-event simulation kernel
//!
//! The foundation every hardware model in the X-SSD reproduction is built on:
//!
//! - [`time`] — virtual nanosecond clock ([`SimTime`], [`SimDuration`]);
//! - [`events`] — deterministic per-device event calendars ([`EventQueue`]):
//!   indexed binary heaps with O(1) frontier peek, O(log n) in-place
//!   cancellation, and generation-tagged [`EventId`] handles;
//! - [`resource`] — the contention primitive ([`SerialResource`]) where
//!   interference *emerges* from queueing;
//! - [`bandwidth`] — rate arithmetic in the units hardware specs use;
//! - [`stats`] — exact sample series, their summaries, candlesticks;
//! - [`rng`] — explicitly seeded randomness for replayable workloads;
//! - [`bytes`] — cheaply cloneable immutable payload buffers;
//! - [`hash`] — the fixed integer hasher behind the device models' maps
//!   ([`IntMap`], [`IntSet`]);
//! - [`telemetry`] — the cross-stack metrics registry every device model
//!   reports into, with snapshot/diff phase measurement and JSON export;
//! - [`faults`] — deterministic fault injection ([`FaultPlan`],
//!   [`FaultHook`]): seed-reproducible fault schedules threaded through
//!   every layer, inert (zero draws, zero latency) when disarmed.
//!
//! A stalled model or an impossible state panics where it is detected, and
//! the message names the instant and the state; there is no error type to
//! return it in.
//!
//! Design note: there is intentionally no global scheduler or actor runtime.
//! Each device owns its own calendar and exposes `advance_to(t)`; a
//! higher-level coordinator (e.g. `xssd_core::Cluster`) interleaves device
//! calendars in global time order on one thread. This keeps ownership
//! simple (no `Rc<RefCell>` graphs) and the simulation fully deterministic.

#![warn(missing_docs)]

pub mod bandwidth;
pub mod bytes;
pub mod events;
pub mod faults;
pub mod hash;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod telemetry;
pub mod time;

pub use bandwidth::Bandwidth;
pub use bytes::Bytes;
pub use events::{EventId, EventQueue};
pub use faults::{FaultHook, FaultPlan};
pub use hash::{IntHasher, IntMap, IntSet};
pub use resource::{Ends, Grant, SerialResource};
pub use rng::{DetRng, Zipfian};
pub use stats::{Candlestick, SampleSeries, Summary};
pub use telemetry::{Instrument, MetricValue, MetricsRegistry, Scope, Snapshot};
pub use time::{SimDuration, SimTime};
