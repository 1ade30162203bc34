//! PCIe link bandwidth model.
//!
//! The Villars prototype constrains its interface to ×4 Gen2 — 2 GB/s —
//! "to better reflect the fact that the full PCIe bandwidth may seldom be
//! available for CMB to consume" (paper §6). This module provides the
//! generation/lane-width arithmetic and a [`PcieLink`] that serializes TLPs.

use crate::tlp::{Tlp, TLP_OVERHEAD_BYTES};
use simkit::{Bandwidth, Grant, SerialResource, SimDuration, SimTime};

/// PCIe protocol generation; determines per-lane raw rate and line encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Generation {
    /// 5.0 GT/s, 8b/10b encoding.
    Gen2,
    /// 8.0 GT/s, 128b/130b encoding.
    Gen3,
}

impl Generation {
    /// Effective (post-encoding) bandwidth per lane, decimal GB/s.
    pub fn gbytes_per_sec_per_lane(self) -> f64 {
        match self {
            Generation::Gen2 => 5.0 / 10.0, // 0.5 GB/s
            Generation::Gen3 => 8.0 * (128.0 / 130.0) / 8.0,
        }
    }
}

/// Number of lanes (×1 .. ×16).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneWidth(pub u8);

impl LaneWidth {
    /// ×4 link (the Villars configuration).
    pub const X4: LaneWidth = LaneWidth(4);
    /// ×8 link (the unconstrained Cosmos+ configuration).
    pub const X8: LaneWidth = LaneWidth(8);
}

/// Static description of a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Protocol generation.
    pub generation: Generation,
    /// Lane count.
    pub lanes: LaneWidth,
    /// Propagation latency added to every packet (switch + flight time).
    pub propagation: SimDuration,
}

impl LinkConfig {
    /// The Villars host link: ×4 Gen2 = 2 GB/s (paper §6).
    pub fn villars_host() -> Self {
        LinkConfig {
            generation: Generation::Gen2,
            lanes: LaneWidth::X4,
            propagation: SimDuration::from_nanos(150),
        }
    }

    /// The unconstrained Cosmos+ link: ×8 Gen2 = 4 GB/s.
    pub fn cosmos_native() -> Self {
        LinkConfig { lanes: LaneWidth::X8, ..Self::villars_host() }
    }

    /// Raw bandwidth of the configured link.
    pub fn bandwidth(&self) -> Bandwidth {
        Bandwidth::gbytes_per_sec(self.generation.gbytes_per_sec_per_lane() * self.lanes.0 as f64)
    }
}

/// Cumulative traffic statistics of a [`PcieLink`].
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkStats {
    /// Data bytes carried.
    pub payload_bytes: u64,
    /// TLP header, framing and prefix bytes carried.
    pub overhead_bytes: u64,
    /// Number of TLPs.
    pub messages: u64,
}

/// One direction of a PCIe link: a serializing wire carrying TLPs one way.
/// A link is dual-simplex — a full-duplex port owns two of these, and a
/// read's completion returns on the other one. Each of the host link's two
/// wires (which DMA and the host's CMB stores ride) and each NTB hop is one
/// of these.
///
/// Each TLP occupies the wire for its wire bytes (payload plus the per-TLP
/// overhead, [`TLP_OVERHEAD_BYTES`]) over the link's bandwidth, and TLPs
/// queue FIFO behind the wire's `busy_until` horizon. Latency of a packet =
/// queueing + serialization + propagation.
#[derive(Debug, Clone)]
pub struct PcieLink {
    config: LinkConfig,
    bandwidth: Bandwidth,
    wire: SerialResource,
    stats: LinkStats,
}

impl PcieLink {
    /// Build a link from its static description.
    pub fn new(config: LinkConfig) -> Self {
        PcieLink {
            config,
            bandwidth: config.bandwidth(),
            wire: SerialResource::new(),
            stats: LinkStats::default(),
        }
    }

    /// The static configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Transmit one TLP. Returns the window whose `end` is the instant the
    /// packet has fully arrived at the far side (serialization done +
    /// propagation).
    pub fn send(&mut self, now: SimTime, tlp: &Tlp) -> Grant {
        let overhead = tlp.wire_bytes() - tlp.payload_data_bytes();
        self.transmit(now, tlp.payload_data_bytes(), overhead, 1)
    }

    /// Transmit one TLP that does not wait out the traffic ahead of it: the
    /// link arbitrates packet by packet, so a lone TLP from another source
    /// slots in between a burst's packets instead of queueing behind the
    /// whole train. It is on the wire from `now`; the wire is charged what
    /// [`PcieLink::send`] charges — statistics, busy time, and the horizon
    /// moves out by the packet's wire time: the traffic it displaced ends
    /// that much later. Windows already granted are not revised, so a burst
    /// it cut into lands early by that wire time (12 ns for a read request),
    /// and the packet itself is early by its wait for the TLP on the wire
    /// (at most one, 140 ns at full size) — against the whole burst it
    /// would wait for as a `send`. On an idle wire it is `send`.
    pub fn send_interleaved(&mut self, now: SimTime, tlp: &Tlp) -> Grant {
        let fifo = self.send(now, tlp);
        Grant { start: now, end: fifo.end - fifo.queueing_delay(now) }
    }

    /// Transmit a burst of `n` identical write TLPs of `payload` bytes each,
    /// back to back. Returns the arrival instant of the last packet. The
    /// DMA, WC and NTB-mirror models send whole transfers through here: the
    /// wire is charged for all `n` packets at once, so the cost to the
    /// simulator does not grow with the TLP count.
    pub fn send_write_burst(&mut self, now: SimTime, payload: u32, n: u64) -> Grant {
        assert!(n > 0, "burst must contain at least one TLP");
        self.transmit(now, payload as u64, TLP_OVERHEAD_BYTES, n)
    }

    /// `n` packets of `payload + overhead` wire bytes, back to back, the
    /// next entering the wire as the previous one leaves it: the window
    /// from the first packet's start to the last one's arrival, with the
    /// statistics and wire occupancy of `n` single packets, in constant
    /// time.
    fn transmit(&mut self, now: SimTime, payload: u64, overhead: u64, n: u64) -> Grant {
        let service = self.bandwidth.transfer_time(payload + overhead);
        self.count(payload, overhead, n);
        let start = now.max(self.wire.busy_until());
        self.wire.acquire_run(now, SimDuration::ZERO, service, n);
        Grant { start, end: self.wire.busy_until() + self.config.propagation }
    }

    fn count(&mut self, payload: u64, overhead: u64, n: u64) {
        self.stats.payload_bytes += n * payload;
        self.stats.overhead_bytes += n * overhead;
        self.stats.messages += n;
    }

    /// What [`PcieLink::send_write_burst`]`(now, payload, n)` would do,
    /// without charging the wire: `(first, per_tlp)` — packet `k` of the
    /// burst arrives at `first + k·per_tlp`, so the burst's grant ends at
    /// `first + (n−1)·per_tlp`. Lets a receiver that takes a whole burst at
    /// once decide whether it can before anything is sent.
    pub fn peek_write_burst(&self, now: SimTime, payload: u32) -> (SimTime, SimDuration) {
        let per_tlp = self.bandwidth.transfer_time(payload as u64 + TLP_OVERHEAD_BYTES);
        (now.max(self.wire.busy_until()) + per_tlp + self.config.propagation, per_tlp)
    }

    /// Transmit `n` copies of `tlp`, one every `period` starting at `first`
    /// — a fixed-cycle reporter's traffic over a horizon, charged at once.
    /// Granted only when the wire is idle by `first` and one TLP serializes
    /// within `period`, so packet `k` arrives `k·period` after the first;
    /// returns the first packet's window as [`PcieLink::send`] would, or
    /// `None` with the link untouched.
    pub fn send_periodic(
        &mut self,
        first: SimTime,
        tlp: &Tlp,
        period: SimDuration,
        n: u64,
    ) -> Option<Grant> {
        let payload = tlp.payload_data_bytes();
        let overhead = tlp.wire_bytes() - payload;
        let service = self.bandwidth.transfer_time(payload + overhead);
        if self.wire.busy_until() > first || service > period {
            return None;
        }
        self.wire.acquire_run(first, period, service, n);
        self.count(payload, overhead, n);
        Some(Grant { start: first, end: first + service + self.config.propagation })
    }

    /// The instant the wire next goes idle.
    pub fn busy_until(&self) -> SimTime {
        self.wire.busy_until()
    }

    /// Cumulative traffic statistics.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Total time the wire has been occupied.
    pub fn busy_time(&self) -> SimDuration {
        self.wire.busy_time()
    }

    /// Wire utilization over `[0, horizon]`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        self.wire.utilization(horizon)
    }
}

impl simkit::Instrument for PcieLink {
    fn instrument(&self, out: &mut simkit::Scope<'_>) {
        out.counter("payload_bytes", self.stats.payload_bytes);
        out.counter("overhead_bytes", self.stats.overhead_bytes);
        out.counter("messages", self.stats.messages);
        out.counter("busy_ns", self.wire.busy_time().as_nanos());
    }
}

impl Tlp {
    /// Data bytes this packet carries in its travel direction (reads carry
    /// none; the completion carries them instead).
    pub fn payload_data_bytes(&self) -> u64 {
        match self.kind {
            crate::tlp::TlpKind::MemRead => 0,
            _ => self.payload as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tlp::TlpKind;

    #[test]
    fn generation_rates() {
        assert!((Generation::Gen2.gbytes_per_sec_per_lane() - 0.5).abs() < 1e-12);
        assert!((Generation::Gen3.gbytes_per_sec_per_lane() - 0.985).abs() < 0.01);
    }

    #[test]
    fn villars_link_is_2_gbps() {
        let cfg = LinkConfig::villars_host();
        assert!((cfg.bandwidth().as_gbytes_per_sec() - 2.0).abs() < 1e-9);
        let cfg8 = LinkConfig::cosmos_native();
        assert!((cfg8.bandwidth().as_gbytes_per_sec() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn send_costs_serialization_plus_propagation() {
        let mut link = PcieLink::new(LinkConfig {
            generation: Generation::Gen2,
            lanes: LaneWidth::X4, // 2 B/ns
            propagation: SimDuration::from_nanos(100),
        });
        let g = link.send(SimTime::ZERO, &Tlp::write(0x0, 64));
        // (64 + 24) / 2 = 44ns serialization + 100ns propagation.
        assert_eq!(g.end.as_nanos(), 144);
    }

    #[test]
    fn packets_queue_fifo() {
        let mut link = PcieLink::new(LinkConfig::villars_host());
        let a = link.send(SimTime::ZERO, &Tlp::write(0, 232)); // 256 wire bytes -> 128ns
        let b = link.send(SimTime::ZERO, &Tlp::write(0, 232));
        assert_eq!(a.end.as_nanos(), 128 + 150);
        assert_eq!(b.start.as_nanos(), 128);
        assert_eq!(b.end.as_nanos(), 256 + 150);
    }

    #[test]
    fn burst_matches_individual_sends() {
        // Random (now, wire busy-until, payload, n): one burst call and n
        // sends chained on the wire-free instant leave the same grant,
        // statistics and wire horizon, and every packet arrives where
        // `peek_write_burst` said it would.
        let mut rng = simkit::DetRng::new(0x7195);
        for case in 0..500 {
            let mut a = PcieLink::new(LinkConfig::villars_host());
            if rng.chance(0.5) {
                a.send(SimTime::from_nanos(rng.uniform(0, 2_000)), &Tlp::write(0, 512));
            }
            let mut b = a.clone();
            let now = SimTime::from_nanos(rng.uniform(0, 4_000));
            let payload = rng.uniform(1, 512) as u32;
            let n = rng.uniform(1, 300);

            // The peek names every packet's arrival and charges nothing.
            let (first, per_tlp) = a.peek_write_burst(now, payload);
            assert_eq!(a.busy_until(), b.busy_until(), "case {case}: peek touched the wire");
            let burst = a.send_write_burst(now, payload, n);

            let mut first_start = None;
            let mut wire_free = now;
            for k in 0..n {
                let g = b.send(wire_free, &Tlp::write(0, payload));
                assert_eq!(g.end, first + per_tlp * k, "case {case}: packet {k} of {n}");
                first_start.get_or_insert(g.start);
                wire_free = g.end - b.config.propagation;
            }
            let want = Grant {
                start: first_start.expect("n >= 1"),
                end: wire_free + b.config.propagation,
            };
            assert_eq!(burst, want, "case {case}: now {now}, payload {payload}, n {n}");
            assert_eq!(a.busy_until(), b.busy_until(), "case {case}");
            assert_eq!(a.wire.busy_time(), b.wire.busy_time(), "case {case}");
            let (sa, sb) = (a.stats(), b.stats());
            assert_eq!(
                (sa.payload_bytes, sa.overhead_bytes, sa.messages),
                (sb.payload_bytes, sb.overhead_bytes, sb.messages),
                "case {case}"
            );
        }
    }

    #[test]
    fn periodic_matches_individual_sends() {
        // Random (wire busy-until, first, period, payload, n): a granted
        // run leaves the grants, statistics and wire horizon of n sends on
        // the cycle instants; a refused one leaves the link untouched.
        let mut rng = simkit::DetRng::new(0x9E21);
        let (mut granted, mut refused) = (0, 0);
        for case in 0..1_000 {
            let mut a = PcieLink::new(LinkConfig::villars_host());
            if rng.chance(0.5) {
                a.send(SimTime::from_nanos(rng.uniform(0, 2_000)), &Tlp::write(0, 512));
            }
            let mut b = a.clone();
            let first = SimTime::from_nanos(rng.uniform(0, 4_000));
            let period = SimDuration::from_nanos(rng.uniform(1, 400));
            let tlp = Tlp::write(0, rng.uniform(1, 512) as u32);
            let n = rng.uniform(1, 300);
            let state = |l: &PcieLink| {
                let s = l.stats();
                (l.busy_until(), l.wire.busy_time(), s.payload_bytes, s.overhead_bytes, s.messages)
            };
            let before = state(&a);
            match a.send_periodic(first, &tlp, period, n) {
                Some(got) => {
                    granted += 1;
                    for k in 0..n {
                        let g = b.send(first + period * k, &tlp);
                        let want =
                            Grant { start: got.start + period * k, end: got.end + period * k };
                        assert_eq!(g, want, "case {case}: packet {k} of {n}, period {period}");
                    }
                    assert_eq!(state(&a), state(&b), "case {case}");
                }
                None => {
                    refused += 1;
                    assert_eq!(state(&a), before, "case {case}: refused run touched the link");
                }
            }
        }
        assert!(granted > 100 && refused > 100, "{granted} granted, {refused} refused");
    }

    #[test]
    fn a_lone_tlp_slots_into_a_burst() {
        let mut a = PcieLink::new(LinkConfig::villars_host());
        // 64 TLPs of 256 B: the wire is taken until 64 × 140 = 8960 ns.
        let burst = a.send_write_burst(SimTime::ZERO, 256, 64);
        let mut b = a.clone();
        let at = SimTime::from_nanos(1_000);
        // A 24 B read request: 12 ns of wire from `at`, then the flight.
        let g = a.send_interleaved(at, &Tlp::read(0, 8));
        assert_eq!((g.start, g.end.as_nanos()), (at, 1_000 + 12 + 150));
        // As a `send` it waits the burst out; the wire is charged the same.
        let fifo = b.send(at, &Tlp::read(0, 8));
        assert_eq!(fifo.end, burst.end + SimDuration::from_nanos(12));
        assert_eq!(a.busy_until(), b.busy_until());
        assert_eq!(a.busy_until().as_nanos(), 8_960 + 12);
        assert_eq!(a.busy_time(), b.busy_time());
        assert_eq!(a.stats().messages, 65);
        // On an idle wire the two are one.
        let later = SimTime::from_nanos(20_000);
        assert_eq!(
            a.send_interleaved(later, &Tlp::completion(0, 8)),
            b.send(later, &Tlp::completion(0, 8))
        );
    }

    #[test]
    fn utilization_reflects_traffic() {
        let mut link = PcieLink::new(LinkConfig::villars_host());
        // 2000 wire bytes at 2 B/ns = 1000 ns busy.
        link.send(SimTime::ZERO, &Tlp { kind: TlpKind::MemWrite, addr: 0, payload: 1976 });
        let u = link.utilization(SimTime::from_nanos(2000));
        assert!((u - 0.5).abs() < 0.01);
    }
}
