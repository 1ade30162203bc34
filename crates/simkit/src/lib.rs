//! # simkit — discrete-event simulation kernel
//!
//! The foundation every hardware model in the X-SSD reproduction is built on:
//!
//! - [`time`] — virtual nanosecond clock ([`SimTime`], [`SimDuration`]);
//! - [`events`] — deterministic per-device event calendars ([`EventQueue`]):
//!   indexed binary heaps with O(1) frontier peek, O(log n) in-place
//!   cancellation, and generation-tagged [`EventId`] handles;
//! - [`resource`] — contention primitives ([`SerialResource`], [`Link`])
//!   where interference *emerges* from queueing;
//! - [`bandwidth`] — rate arithmetic in the units hardware specs use;
//! - [`stats`] — exact sample series, their summaries, candlesticks;
//! - [`rng`] — explicitly seeded randomness for replayable workloads;
//! - [`bytes`] — cheaply cloneable immutable payload buffers;
//! - [`telemetry`] — the cross-stack metrics registry every device model
//!   reports into, with snapshot/diff phase measurement and JSON export;
//! - [`faults`] — deterministic fault injection ([`FaultPlan`],
//!   [`FaultHook`]): seed-reproducible fault schedules threaded through
//!   every layer, inert (zero draws, zero latency) when disarmed;
//! - [`error`] — structured simulation failures ([`SimError`]) carrying a
//!   diagnostic snapshot (time, in-flight commands, queue depths).
//!
//! Design note: there is intentionally no global scheduler or actor runtime.
//! Each device owns its own calendar and exposes `advance_to(t)`; a
//! higher-level coordinator (e.g. `xssd_core::Cluster`) interleaves device
//! calendars in global time order on one thread. This keeps ownership
//! simple (no `Rc<RefCell>` graphs) and the simulation fully deterministic.

#![warn(missing_docs)]

pub mod bandwidth;
pub mod bytes;
pub mod error;
pub mod events;
pub mod faults;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod telemetry;
pub mod time;

pub use bandwidth::Bandwidth;
pub use bytes::Bytes;
pub use error::{DiagnosticSnapshot, SimError};
pub use events::{EventId, EventQueue};
pub use faults::{FaultHook, FaultPlan};
pub use resource::{Ends, Grant, Link, LinkStats, SerialResource};
pub use rng::{DetRng, Zipfian};
pub use stats::{Candlestick, SampleSeries, Summary};
pub use telemetry::{Instrument, MetricValue, MetricsRegistry, Scope, Snapshot};
pub use time::{SimDuration, SimTime};

#[cfg(test)]
mod integration_tests {
    use super::*;

    /// A miniature end-to-end sanity check: pump fixed-size writes through a
    /// link feeding a serial "memory" and confirm the pipeline's steady-state
    /// throughput equals the slower stage.
    #[test]
    fn pipeline_throughput_is_bottleneck_bound() {
        let mut link = Link::new(Bandwidth::gbytes_per_sec(4.0), 24);
        let mut memory = SerialResource::new();
        let mem_bw = Bandwidth::gbytes_per_sec(1.0);

        let write = 4096u64;
        let n = 1000u64;
        let mut now = SimTime::ZERO;
        let mut done = SimTime::ZERO;
        for _ in 0..n {
            let g = link.transmit(now, write);
            let m = memory.acquire(g.end, mem_bw.transfer_time(write));
            done = m.end;
            now = g.end; // issue next write as soon as the link frees
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
            let mut link = Link::new(Bandwidth::gbytes_per_sec(2.0), 20);
            let mut lat = SampleSeries::new();
            let mut now = SimTime::ZERO;
            for _ in 0..200 {
                let size = rng.uniform(64, 4096);
                let g = link.transmit(now, size);
                lat.record_duration(g.latency_from(now));
                now += SimDuration::from_nanos(rng.uniform(0, 500));
            }
            lat.samples().to_vec()
        }
        assert_eq!(run(99), run(99));
        assert_ne!(run(99), run(100));
    }
}
