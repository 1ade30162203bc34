//! Contention primitives.
//!
//! The whole device stack models shared hardware — PCIe links, DRAM ports,
//! flash dies — as *resources* that serialize work. A request against a
//! resource yields a `(start, end)` window; contention emerges from requests
//! queueing behind each other's `busy_until` horizon rather than from
//! closed-form utilization formulas. This keeps interference experiments
//! (paper §6.4) emergent instead of hand-tuned.

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
    #[inline]
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
    #[inline]
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
