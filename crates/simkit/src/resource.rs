//! Contention primitives.
//!
//! The whole device stack models shared hardware — PCIe links, DRAM ports,
//! flash dies — as *resources* that serialize work. A request against a
//! resource yields a `(start, end)` window; contention emerges from requests
//! queueing behind each other's `busy_until` horizon rather than from
//! closed-form utilization formulas. This keeps interference experiments
//! (paper §6.4) emergent instead of hand-tuned.

use crate::bandwidth::Bandwidth;
use crate::time::{SimDuration, SimTime};

/// The service window granted to a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// When service actually starts (>= request time under contention).
    pub start: SimTime,
    /// When service completes.
    pub end: SimTime,
}

impl Grant {
    /// Total time from request to completion.
    pub fn latency_from(&self, requested_at: SimTime) -> SimDuration {
        self.end.saturating_since(requested_at)
    }

    /// Time spent waiting before service began.
    pub fn queueing_delay(&self, requested_at: SimTime) -> SimDuration {
        self.start.saturating_since(requested_at)
    }
}

/// `count` instants `period` apart from `first` — where a run of requests
/// on a [`SerialResource`] ends ([`SerialResource::acquire_run`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ends {
    /// The first instant.
    pub first: SimTime,
    /// Spacing of the instants.
    pub period: SimDuration,
    /// How many there are (zero for an empty piece).
    pub count: u64,
}

impl Ends {
    /// The last instant (`first` when there is none).
    pub fn last(&self) -> SimTime {
        self.first + self.period * self.count.saturating_sub(1)
    }

    /// How many of the instants are at or before `t`.
    pub fn by(&self, t: SimTime) -> u64 {
        if self.count == 0 || t < self.first {
            0
        } else if self.period.is_zero() {
            self.count
        } else {
            self.count.min((t - self.first).as_nanos() / self.period.as_nanos() + 1)
        }
    }

    /// The run without its first `k` instants.
    pub fn skip(&self, k: u64) -> Ends {
        Ends { first: self.first + self.period * k, count: self.count - k, ..*self }
    }
}

/// A single-server FIFO resource (e.g. one flash die, a DMA engine).
///
/// Work requested at `now` begins at `max(now, busy_until)` and holds the
/// resource for `service` time.
#[derive(Debug, Clone, Default)]
pub struct SerialResource {
    busy_until: SimTime,
    busy_accum: SimDuration,
    requests: u64,
}

impl SerialResource {
    /// A resource that is idle from t=0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request `service` time starting no earlier than `now`.
    pub fn acquire(&mut self, now: SimTime, service: SimDuration) -> Grant {
        let start = now.max(self.busy_until);
        let end = start + service;
        self.busy_until = end;
        self.busy_accum += service;
        self.requests += 1;
        Grant { start, end }
    }

    /// `n` requests of `service` each, arriving at `first`, `first +
    /// period`, …, each served FIFO as it comes: the state `n` single
    /// [`SerialResource::acquire`] calls at those instants leave, in constant
    /// time, and where each request ends — back to back while they queue
    /// behind the resource, then on the arrivals' period once it has caught
    /// up (when `service < period`). Either piece may be empty.
    pub fn acquire_run(
        &mut self,
        first: SimTime,
        period: SimDuration,
        service: SimDuration,
        n: u64,
    ) -> [Ends; 2] {
        let busy = self.busy_until;
        // Request k queues while busy + k·service > first + k·period.
        let queued = if busy <= first && service <= period {
            0
        } else if service < period {
            n.min((busy - first).as_nanos().div_ceil((period - service).as_nanos()))
        } else {
            n
        };
        let start = busy.max(first);
        let runs = [
            Ends { first: start + service, period: service, count: queued },
            Ends { first: first + period * queued + service, period, count: n - queued },
        ];
        if n > 0 {
            self.busy_until = runs[usize::from(queued < n)].last();
        }
        self.busy_accum += service * n;
        self.requests += n;
        runs
    }

    /// The instant the resource next becomes idle.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Total service time ever granted.
    pub fn busy_time(&self) -> SimDuration {
        self.busy_accum
    }

    /// Number of requests served.
    pub fn request_count(&self) -> u64 {
        self.requests
    }

    /// Fraction of the window `[SimTime::ZERO, horizon]` spent busy.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        self.busy_accum.as_nanos() as f64 / horizon.as_nanos() as f64
    }
}

/// Cumulative transfer statistics for a [`Link`].
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkStats {
    /// Payload bytes carried.
    pub payload_bytes: u64,
    /// Overhead bytes carried (headers, framing).
    pub overhead_bytes: u64,
    /// Number of messages.
    pub messages: u64,
}

impl LinkStats {
    /// Fraction of carried bytes that were payload.
    pub fn efficiency(&self) -> f64 {
        let total = self.payload_bytes + self.overhead_bytes;
        if total == 0 {
            0.0
        } else {
            self.payload_bytes as f64 / total as f64
        }
    }
}

/// A serializing interconnect: each message occupies the wire for
/// `(payload + per_message_overhead_bytes) / bandwidth` and messages queue
/// FIFO. Used for PCIe links, NTB hops, and the flash channel bus.
#[derive(Debug, Clone)]
pub struct Link {
    wire: SerialResource,
    bandwidth: Bandwidth,
    per_message_overhead_bytes: u64,
    stats: LinkStats,
}

impl Link {
    /// A link with the given raw bandwidth and fixed per-message byte
    /// overhead (e.g. a TLP header).
    pub fn new(bandwidth: Bandwidth, per_message_overhead_bytes: u64) -> Self {
        Link {
            wire: SerialResource::new(),
            bandwidth,
            per_message_overhead_bytes,
            stats: LinkStats::default(),
        }
    }

    /// Raw bandwidth of the wire.
    pub fn bandwidth(&self) -> Bandwidth {
        self.bandwidth
    }

    /// Per-message byte overhead.
    pub fn overhead_bytes(&self) -> u64 {
        self.per_message_overhead_bytes
    }

    /// Transmit a message of `payload` bytes, queueing behind in-flight
    /// traffic. Returns the service window (ends when the last bit leaves
    /// the wire).
    pub fn transmit(&mut self, now: SimTime, payload: u64) -> Grant {
        self.transmit_with_overhead(now, payload, 0)
    }

    /// Transmit with extra per-message overhead bytes on top of the link's
    /// fixed overhead (e.g. an NTB-translation prefix).
    pub fn transmit_with_overhead(
        &mut self,
        now: SimTime,
        payload: u64,
        extra_overhead: u64,
    ) -> Grant {
        self.transmit_burst_with_overhead(now, payload, extra_overhead, 1)
    }

    /// Transmit `n` identical messages back to back (each as
    /// [`Link::transmit_with_overhead`] would, the next entering the wire
    /// as the previous one leaves it). Returns the window from the first
    /// message's start to the last one's end; statistics and wire
    /// occupancy are those of the `n` single transmits, in constant time.
    pub fn transmit_burst_with_overhead(
        &mut self,
        now: SimTime,
        payload: u64,
        extra_overhead: u64,
        n: u64,
    ) -> Grant {
        let overhead = self.per_message_overhead_bytes + extra_overhead;
        let service = self.bandwidth.transfer_time(payload + overhead);
        self.stats.payload_bytes += n * payload;
        self.stats.overhead_bytes += n * overhead;
        self.stats.messages += n;
        let start = now.max(self.wire.busy_until());
        self.wire.acquire_run(now, SimDuration::ZERO, service, n);
        Grant { start, end: self.wire.busy_until() }
    }

    /// Transmit `n` identical messages, one every `period` starting at
    /// `first` (each as [`Link::transmit_with_overhead`] would). Granted
    /// only when none of them would queue — the wire is idle by `first` and
    /// a message serializes within `period` — so message `k` is on the wire
    /// over the first one's window shifted by `k·period`; returns that
    /// window, or `None` with the link untouched.
    pub fn transmit_periodic_with_overhead(
        &mut self,
        first: SimTime,
        period: SimDuration,
        payload: u64,
        extra_overhead: u64,
        n: u64,
    ) -> Option<Grant> {
        let overhead = self.per_message_overhead_bytes + extra_overhead;
        let service = self.bandwidth.transfer_time(payload + overhead);
        if self.wire.busy_until() > first || service > period {
            return None;
        }
        self.wire.acquire_run(first, period, service, n);
        self.stats.payload_bytes += n * payload;
        self.stats.overhead_bytes += n * overhead;
        self.stats.messages += n;
        Some(Grant { start: first, end: first + service })
    }

    /// The instant the wire next goes idle.
    pub fn busy_until(&self) -> SimTime {
        self.wire.busy_until()
    }

    /// Cumulative transfer statistics.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Total time the wire has been occupied (cumulative serialization
    /// time; divide by any horizon for utilization).
    pub fn busy_time(&self) -> SimDuration {
        self.wire.busy_time()
    }

    /// Fraction of `[0, horizon]` the wire was busy.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        self.wire.utilization(horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth::Bandwidth;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }
    fn d(ns: u64) -> SimDuration {
        SimDuration::from_nanos(ns)
    }

    #[test]
    fn serial_resource_serializes() {
        let mut r = SerialResource::new();
        let g1 = r.acquire(t(0), d(100));
        assert_eq!((g1.start, g1.end), (t(0), t(100)));
        // Requested while busy: starts when the first finishes.
        let g2 = r.acquire(t(10), d(50));
        assert_eq!((g2.start, g2.end), (t(100), t(150)));
        assert_eq!(g2.queueing_delay(t(10)).as_nanos(), 90);
        assert_eq!(g2.latency_from(t(10)).as_nanos(), 140);
        // Requested after idle: starts immediately.
        let g3 = r.acquire(t(500), d(10));
        assert_eq!((g3.start, g3.end), (t(500), t(510)));
        assert_eq!(r.request_count(), 3);
        assert_eq!(r.busy_time().as_nanos(), 160);
    }

    #[test]
    fn serial_resource_utilization() {
        let mut r = SerialResource::new();
        r.acquire(t(0), d(250));
        assert!((r.utilization(t(1000)) - 0.25).abs() < 1e-9);
        assert_eq!(r.utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn link_accounts_overhead() {
        // 1 byte/ns, 24-byte header per message.
        let mut l = Link::new(Bandwidth::bytes_per_ns(1.0), 24);
        let g = l.transmit(t(0), 64);
        assert_eq!(g.end, t(88)); // 64 + 24 bytes at 1 B/ns
        let s = l.stats();
        assert_eq!(s.payload_bytes, 64);
        assert_eq!(s.overhead_bytes, 24);
        assert_eq!(s.messages, 1);
        assert!((s.efficiency() - 64.0 / 88.0).abs() < 1e-12);
    }

    #[test]
    fn link_messages_queue() {
        let mut l = Link::new(Bandwidth::bytes_per_ns(2.0), 0);
        let g1 = l.transmit(t(0), 100); // 50ns
        let g2 = l.transmit(t(0), 100);
        assert_eq!(g1.end, t(50));
        assert_eq!(g2.start, t(50));
        assert_eq!(g2.end, t(100));
    }

    #[test]
    fn link_extra_overhead() {
        let mut l = Link::new(Bandwidth::bytes_per_ns(1.0), 24);
        let g = l.transmit_with_overhead(t(0), 64, 8);
        assert_eq!(g.end, t(96));
        assert_eq!(l.stats().overhead_bytes, 32);
    }

    /// Everything a caller can observe of a link after some traffic.
    fn link_state(l: &Link) -> (SimTime, SimDuration, u64, u64, u64, u64) {
        let s = l.stats();
        (
            l.busy_until(),
            l.busy_time(),
            l.wire.request_count(),
            s.payload_bytes,
            s.overhead_bytes,
            s.messages,
        )
    }

    #[test]
    fn burst_equals_n_chained_single_transmits() {
        // Random (now, busy_until, payload, extra overhead, n) on random
        // bandwidths: the closed form must return the same window and
        // leave the same statistics, wire occupancy and request count as
        // the per-message loop it replaced.
        let mut rng = crate::DetRng::new(0xB0257);
        for case in 0..2_000 {
            let bw = Bandwidth::gbytes_per_sec(0.25 + rng.unit() * 15.75);
            let fixed = rng.uniform(0, 32);
            let mut burst = Link::new(bw, fixed);
            // Leave the wire busy until some instant before or after `now`.
            let warm = rng.uniform(0, 3);
            for _ in 0..warm {
                burst.transmit(t(rng.uniform(0, 5_000)), rng.uniform(1, 4_096));
            }
            let mut single = burst.clone();
            let now = t(rng.uniform(0, 20_000));
            let payload = rng.uniform(0, 4_096);
            let extra = rng.uniform(0, 64);
            let n = match rng.uniform(0, 3) {
                0 => 1,
                1 => rng.uniform(1, 8),
                _ => rng.uniform(1, 1_024),
            };

            let got = burst.transmit_burst_with_overhead(now, payload, extra, n);

            let mut first_start = None;
            let mut last_end = now;
            for _ in 0..n {
                let g = single.transmit_with_overhead(last_end, payload, extra);
                first_start.get_or_insert(g.start);
                last_end = g.end;
            }
            let want = Grant { start: first_start.expect("n >= 1"), end: last_end };

            assert_eq!(got, want, "case {case}: now {now}, payload {payload}+{extra}, n {n}");
            assert_eq!(link_state(&burst), link_state(&single), "case {case}");
        }
    }

    #[test]
    fn periodic_equals_n_single_acquires_or_refuses_untouched() {
        // Random (busy_until, first, period, service, n) on a 1 B/ns wire,
        // refusing cases included: a granted run leaves the state of the
        // per-message loop and every message starts on its own instant; a
        // refused one leaves the link as it was.
        let mut rng = crate::DetRng::new(0x9E210D);
        let (mut granted, mut refused) = (0, 0);
        for case in 0..4_000 {
            let mut run = Link::new(Bandwidth::bytes_per_ns(1.0), 0);
            if rng.chance(0.7) {
                run.transmit(t(rng.uniform(0, 4_000)), rng.uniform(1, 2_000));
            }
            let mut single = run.clone();
            let first = t(rng.uniform(0, 8_000));
            let period = d(rng.uniform(1, 1_000));
            let bytes = rng.uniform(0, 1_200);
            let n = match rng.uniform(0, 2) {
                0 => 1,
                1 => rng.uniform(1, 8),
                _ => rng.uniform(1, 2_000),
            };
            let before = link_state(&run);
            match run.transmit_periodic_with_overhead(first, period, bytes, 0, n) {
                Some(got) => {
                    granted += 1;
                    for k in 0..n {
                        let at = first + period * k;
                        let g = single.transmit_with_overhead(at, bytes, 0);
                        assert_eq!(g.start, at, "case {case}: message {k} queued");
                        if k == 0 {
                            assert_eq!(got, g, "case {case}");
                        }
                    }
                    assert_eq!(
                        link_state(&run),
                        link_state(&single),
                        "case {case}: first {first}, period {period}, {bytes} B, n {n}"
                    );
                }
                None => {
                    refused += 1;
                    assert!(
                        before.0 > first || d(bytes) > period,
                        "case {case}: refused for nothing"
                    );
                    assert_eq!(link_state(&run), before, "case {case}: a refused run touched it");
                }
            }
        }
        assert!(granted > 500 && refused > 500, "{granted} granted, {refused} refused");
    }

    #[test]
    fn a_run_ends_where_n_single_acquires_end() {
        // Random (busy_until, first, period, service, n) on both sides of
        // service = period, idle and busy: every request ends where its own
        // `acquire` does, and the resource is left as the n calls leave it.
        let mut rng = crate::DetRng::new(0xAC0_12E5);
        let (mut catches_up, mut falls_behind, mut two_pieces) = (0, 0, 0);
        for case in 0..4_000 {
            let mut run = SerialResource::new();
            if rng.chance(0.7) {
                run.acquire(t(rng.uniform(0, 6_000)), d(rng.uniform(1, 3_000)));
            }
            let mut single = run.clone();
            let first = t(rng.uniform(0, 8_000));
            let service = rng.uniform(0, 200);
            let period = d(match rng.uniform(0, 3) {
                0 => service,
                1 => rng.uniform(0, service),
                _ => rng.uniform(service, 400),
            });
            let service = d(service);
            let n = match rng.uniform(0, 3) {
                0 => rng.uniform(0, 1),
                1 => rng.uniform(2, 8),
                _ => rng.uniform(2, 600),
            };
            let pieces = run.acquire_run(first, period, service, n);
            let got: Vec<SimTime> = pieces
                .iter()
                .flat_map(|p| (0..p.count).map(move |k| p.first + p.period * k))
                .collect();
            let want: Vec<SimTime> =
                (0..n).map(|k| single.acquire(first + period * k, service).end).collect();
            assert_eq!(got, want, "case {case}: first {first}, period {period}, {n} x {service}");
            assert_eq!(pieces[0].period, service, "case {case}: queued requests end back to back");
            assert_eq!(
                (run.busy_until(), run.busy_time(), run.request_count()),
                (single.busy_until(), single.busy_time(), single.request_count()),
                "case {case}"
            );
            two_pieces += u64::from(pieces.iter().all(|p| p.count > 0));
            if service < period {
                catches_up += 1;
            } else {
                falls_behind += 1;
            }
        }
        assert!(
            catches_up > 1_000 && falls_behind > 1_000 && two_pieces > 300,
            "{catches_up} / {falls_behind} / {two_pieces}"
        );
    }

    #[test]
    fn run_ends_answer_inside_the_run() {
        let ends = Ends { first: t(100), period: d(40), count: 5 };
        assert_eq!(ends.last(), t(260));
        assert_eq!([99, 100, 139, 140, 260, 999].map(|ns| ends.by(t(ns))), [0, 1, 1, 2, 5, 5]);
        assert_eq!(ends.skip(2), Ends { first: t(180), period: d(40), count: 3 });
        let at_once = Ends { first: t(100), period: SimDuration::ZERO, count: 3 };
        assert_eq!((at_once.by(t(99)), at_once.by(t(100))), (0, 3));
    }

    #[test]
    fn small_payload_efficiency_drops() {
        // The Fig. 10 mechanism in miniature: with a fixed header, small
        // payloads waste most of the wire.
        let mut l = Link::new(Bandwidth::bytes_per_ns(1.0), 24);
        for _ in 0..100 {
            l.transmit(t(0), 8);
        }
        assert!(l.stats().efficiency() < 0.26);
    }
}
