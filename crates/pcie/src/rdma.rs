//! RDMA-class transport model (ablation baseline).
//!
//! The paper's related work (Query Fresh, Active-Memory) ships logs over
//! RDMA; §2.3 argues NTB is both faster and simpler because RDMA NICs must
//! convert PCIe traffic into network packets and back. This module models an
//! RDMA write verb with that conversion cost so the `ablation_transport`
//! bench can compare the two paths. It also models the DDIO hazard the paper
//! highlights: an RDMA write is *visible* when it lands in the remote cache,
//! but *persistent* only after an explicit flush round-trip.

use simkit::{Bandwidth, Grant, Link, SimDuration, SimTime};

/// RDMA NIC/network parameters, defaulting to a 100 Gb/s RoCE ConnectX-5
/// class card (the paper's testbed NIC).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RdmaConfig {
    /// Network bandwidth (100 Gb/s = 12.5 GB/s raw).
    pub bandwidth_gbps: f64,
    /// One-way latency for a posted write verb (NIC processing + packet
    /// conversion + switch): measured RoCE is ~1.5-2.5 µs.
    pub one_way_latency: SimDuration,
    /// Per-message protocol overhead bytes (Ethernet + IP + UDP + IB BTH).
    pub per_message_overhead: u64,
    /// Extra round trip needed to guarantee *persistence* (not just
    /// visibility) of a remote PM write — an RDMA read or flush after the
    /// write, per the paper's discussion of DDIO (reference \[37\] there).
    pub persistence_flush: bool,
}

impl Default for RdmaConfig {
    fn default() -> Self {
        RdmaConfig {
            bandwidth_gbps: 100.0,
            one_way_latency: SimDuration::from_nanos(1_800),
            per_message_overhead: 90,
            persistence_flush: true,
        }
    }
}

/// A one-directional RDMA transport (requester -> responder).
#[derive(Debug, Clone)]
pub struct RdmaTransport {
    config: RdmaConfig,
    wire: Link,
}

impl RdmaTransport {
    /// Transport with the given NIC configuration.
    pub fn new(config: RdmaConfig) -> Self {
        let wire = Link::new(
            Bandwidth::gbytes_per_sec(config.bandwidth_gbps / 8.0),
            config.per_message_overhead,
        );
        RdmaTransport { config, wire }
    }

    /// Post an RDMA write of `len` bytes. Returns the instant the data is
    /// **visible** at the responder.
    pub fn write_visible(&mut self, now: SimTime, len: u64) -> Grant {
        let g = self.wire.transmit(now, len);
        Grant { start: g.start, end: g.end + self.config.one_way_latency }
    }

    /// Post an RDMA write and wait until it is **persistent** at the
    /// responder. With `persistence_flush` this adds a zero-byte read
    /// round-trip that forces the remote write out of the DDIO cache path.
    pub fn write_persistent(&mut self, now: SimTime, len: u64) -> Grant {
        let vis = self.write_visible(now, len);
        if !self.config.persistence_flush {
            return vis;
        }
        // Flush = tiny read verb out + completion back: two one-way trips.
        let flush_out = self.wire.transmit(vis.end, 0);
        let done = flush_out.end + self.config.one_way_latency + self.config.one_way_latency;
        Grant { start: vis.start, end: done }
    }

    /// Wire utilization over `[0, horizon]`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        self.wire.utilization(horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visibility_latency_is_microsecond_class() {
        let mut t = RdmaTransport::new(RdmaConfig::default());
        let g = t.write_visible(SimTime::ZERO, 64);
        let us = g.end.as_micros_f64();
        assert!(us > 1.5 && us < 3.0, "one-way {us}us");
    }

    #[test]
    fn persistence_costs_a_round_trip_more() {
        let mut a = RdmaTransport::new(RdmaConfig::default());
        let mut b = RdmaTransport::new(RdmaConfig::default());
        let vis = a.write_visible(SimTime::ZERO, 64);
        let per = b.write_persistent(SimTime::ZERO, 64);
        let delta = per.end.saturating_since(vis.end);
        // At least two extra one-way latencies.
        assert!(delta.as_nanos() >= 2 * 1_800, "delta {delta}");
    }

    #[test]
    fn flush_can_be_disabled() {
        let cfg = RdmaConfig { persistence_flush: false, ..RdmaConfig::default() };
        let mut t = RdmaTransport::new(cfg);
        let vis = t.write_visible(SimTime::ZERO, 64);
        let mut t2 = RdmaTransport::new(cfg);
        let per = t2.write_persistent(SimTime::ZERO, 64);
        assert_eq!(vis.end, per.end);
    }

    #[test]
    fn bandwidth_bound_for_large_messages() {
        let mut t = RdmaTransport::new(RdmaConfig::default());
        let g = t.write_visible(SimTime::ZERO, 1 << 20);
        // 1 MiB at 12.5 GB/s ~ 84us plus fixed costs.
        let us = g.end.as_micros_f64();
        assert!(us > 80.0 && us < 100.0, "1MiB took {us}us");
    }
}
