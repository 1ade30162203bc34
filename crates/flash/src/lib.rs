//! # flash — NAND flash subsystem model
//!
//! The storage substrate under both sides of a Villars device (paper §2.2,
//! Fig. 2 bottom):
//!
//! - [`geometry`] — channels/dies/blocks/pages and physical addressing;
//! - [`timing`] — `tPROG`/`tR` and channel-bus rates calibrated to the
//!   Cosmos+ 2 GB/s envelope, plus the factory bad-block rate;
//! - [`crate::array`] — the arrays themselves: bus/die contention, in-order page
//!   programming, factory bad blocks; program failures and read/program
//!   retries from the fault plan (`simkit::faults`);
//! - [`scheduler`] — the priority-aware channel scheduler, the one component
//!   the paper modifies for Opportunistic Destaging (§4.3).
//!
//! Fresh device only: the FTL above never reclaims, so no block is erased
//! and nothing wears; a run that writes more pages than the raw capacity
//! stops with `device full` (in `ssd`).

#![warn(missing_docs)]

pub mod array;
pub mod geometry;
pub mod scheduler;
pub mod timing;

pub use array::{FlashArray, FlashError, FlashStats, OpOutcome};
pub use geometry::{BlockAddr, DieAddr, FlashGeometry, Ppa};
pub use scheduler::{
    ChannelScheduler, ClassStats, Completion, OpKind, OpRequest, Priority, SchedulingMode,
};
pub use timing::{FlashTiming, ReliabilityConfig};

#[cfg(test)]
mod crate_tests {
    use super::*;
    use simkit::{SimDuration, SimTime};

    /// The Fig. 12 mechanism in miniature: under ConventionalPriority and
    /// total demand above capacity, the conventional stream keeps its
    /// bandwidth and the destage stream absorbs the shortfall; under Neutral
    /// both degrade.
    #[test]
    fn priority_protects_conventional_bandwidth_under_overload() {
        fn run(mode: SchedulingMode) -> (f64, f64) {
            let geometry = FlashGeometry::tiny();
            let mut array =
                FlashArray::new(geometry, FlashTiming::fast(), ReliabilityConfig::perfect(), 3);
            let mut sched = ChannelScheduler::new(geometry.channels, mode);
            // Offered load: both classes request pages on channel 0 faster
            // than it can serve them (overload).
            let step = SimDuration::from_micros(10);
            let n = 24u64;
            for i in 0..n {
                let die = (i % 2) as u32;
                let page = (i / 2) as u32;
                sched.submit(OpRequest {
                    id: i,
                    kind: OpKind::Program(Ppa::new(0, die, 0, page)),
                    arrival: SimTime::ZERO + step * i,
                    class: Priority::Conventional,
                });
                sched.submit(OpRequest {
                    id: 1000 + i,
                    kind: OpKind::Program(Ppa::new(0, die, 1, page)),
                    arrival: SimTime::ZERO + step * i,
                    class: Priority::Destage,
                });
            }
            let done = sched.pump(&mut array, SimTime::MAX);
            let horizon = done.iter().map(|c| c.at).max().unwrap();
            let per_class = |cls: Priority| {
                let bytes = sched.class_stats(cls).bytes as f64;
                bytes / horizon.as_secs_f64() / 1e6 // MB/s
            };
            (per_class(Priority::Conventional), per_class(Priority::Destage))
        }

        let (conv_neutral, dest_neutral) = run(SchedulingMode::Neutral);
        let (conv_prio, dest_prio) = run(SchedulingMode::ConventionalPriority);
        // Under strict priority the conventional class must do at least as
        // well as under neutral, and the destage class pays for it.
        assert!(conv_prio >= conv_neutral * 0.99, "{conv_prio} vs {conv_neutral}");
        assert!(dest_prio <= dest_neutral * 1.01, "{dest_prio} vs {dest_neutral}");
    }

    /// Aggregate programming bandwidth approaches the analytic envelope when
    /// every die is kept busy.
    #[test]
    fn aggregate_bandwidth_matches_envelope() {
        let geometry = FlashGeometry::default();
        let timing = FlashTiming::default();
        let mut array = FlashArray::new(geometry, timing, ReliabilityConfig::perfect(), 5);
        let mut sched = ChannelScheduler::new(geometry.channels, SchedulingMode::Neutral);
        // Saturate: one page per die, several rounds.
        let rounds = 4u32;
        let mut id = 0;
        for page in 0..rounds {
            for ch in 0..geometry.channels {
                for die in 0..geometry.dies_per_channel {
                    sched.submit(OpRequest {
                        id,
                        kind: OpKind::Program(Ppa::new(ch, die, 0, page)),
                        arrival: SimTime::ZERO,
                        class: Priority::Conventional,
                    });
                    id += 1;
                }
            }
        }
        let done = sched.pump(&mut array, SimTime::MAX);
        let horizon = done.iter().map(|c| c.at).max().unwrap();
        let bytes = sched.class_stats(Priority::Conventional).bytes as f64;
        let gbps = bytes / horizon.as_secs_f64() / 1e9;
        let envelope = timing.program_bandwidth_gbps(&geometry);
        assert!(
            gbps > envelope * 0.7 && gbps < envelope * 1.1,
            "measured {gbps} GB/s vs envelope {envelope} GB/s"
        );
    }
}
