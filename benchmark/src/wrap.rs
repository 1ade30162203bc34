//! Wrappers that put the benchmark *between* layers without touching them:
//! a [`LogBackend`] that brackets every call under the WAL, and a
//! [`Workload`] that brackets every transaction and opens the measured
//! window when the driver's ramp-up ends.

use crate::host::Window;
use crate::span::{self, SpanName};
use memdb::{AppendTag, Database, LogBackend, TxnOutcome};
use simkit::{DetRng, SimDuration, SimTime};
use xssd_bench::driver::Workload;

/// What the backend boundary saw, in simulated time (traced runs only).
#[derive(Debug, Clone, Copy, Default)]
pub struct BackendSim {
    /// Group commits handed to the backend.
    pub groups: u64,
    /// Their bytes.
    pub group_bytes: u64,
    /// Groups whose durability instant was observed.
    pub synced: u64,
    /// Sum over those of (durable − handed over): the device's share of
    /// commit latency.
    pub sync_sim: SimDuration,
}

impl BackendSim {
    /// Mean device time per group commit, µs.
    pub fn sync_us_mean(&self) -> f64 {
        if self.synced == 0 {
            0.0
        } else {
            self.sync_sim.as_micros_f64() / self.synced as f64
        }
    }

    /// Mean bytes per group commit.
    pub fn group_bytes_mean(&self) -> f64 {
        if self.groups == 0 {
            0.0
        } else {
            self.group_bytes as f64 / self.groups as f64
        }
    }
}

/// A [`LogBackend`] that forwards to `inner` inside a
/// [`SpanName::Backend`] span. The simulated-time bookkeeping counts only
/// groups handed over at or after the ramp-up.
#[derive(Debug)]
pub struct Spanned<B> {
    inner: B,
    ramp_end: SimTime,
    sim: BackendSim,
    /// Start instant of the blocking group being appended.
    blocking_start: Option<SimTime>,
    /// Submission instants of asynchronous groups in flight.
    pending: Vec<(AppendTag, SimTime)>,
}

impl<B: LogBackend> Spanned<B> {
    /// Wrap `inner` for a run whose ramp-up lasts `ramp_up`.
    pub fn new(inner: B, ramp_up: SimDuration) -> Self {
        Spanned {
            inner,
            ramp_end: SimTime::ZERO + ramp_up,
            sim: BackendSim::default(),
            blocking_start: None,
            pending: Vec::new(),
        }
    }

    /// The wrapped backend, mutably (tear-down: drain, crash).
    pub fn inner_mut(&mut self) -> &mut B {
        &mut self.inner
    }

    /// Simulated-time observations so far.
    pub fn sim(&self) -> BackendSim {
        self.sim
    }

    /// Whether a group handed over at `now` is counted; counts it if so.
    fn count_group(&mut self, now: SimTime, data: &[u8]) -> bool {
        let counted = span::enabled() && now >= self.ramp_end;
        if counted {
            self.sim.groups += 1;
            self.sim.group_bytes += data.len() as u64;
        }
        counted
    }
}

impl<B: LogBackend> LogBackend for Spanned<B> {
    fn append(&mut self, now: SimTime, data: &[u8]) -> SimTime {
        if self.count_group(now, data) {
            self.blocking_start = Some(now);
        }
        span::scope(SpanName::Backend, || self.inner.append(now, data))
    }

    fn sync(&mut self, now: SimTime) -> SimTime {
        let done = span::scope(SpanName::Backend, || self.inner.sync(now));
        if let Some(start) = self.blocking_start.take() {
            self.sim.synced += 1;
            self.sim.sync_sim += done.saturating_since(start);
        }
        done
    }

    fn append_submit(&mut self, now: SimTime, data: &[u8]) -> (AppendTag, SimTime) {
        let (tag, handoff) = span::scope(SpanName::Backend, || self.inner.append_submit(now, data));
        if self.count_group(now, data) {
            self.pending.push((tag, now));
        }
        (tag, handoff)
    }

    fn drain_completions(&mut self, now: SimTime, out: &mut Vec<(AppendTag, SimTime)>) {
        let before = out.len();
        span::scope(SpanName::Backend, || self.inner.drain_completions(now, out));
        for &(tag, at) in &out[before..] {
            if let Some(pos) = self.pending.iter().position(|&(t, _)| t == tag) {
                let (_, submitted) = self.pending.remove(pos);
                self.sim.synced += 1;
                self.sim.sync_sim += at.saturating_since(submitted);
            }
        }
    }

    fn appends_in_flight(&self) -> usize {
        self.inner.appends_in_flight()
    }

    fn next_completion_at(&self) -> Option<SimTime> {
        self.inner.next_completion_at()
    }

    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl<B: simkit::Instrument> simkit::Instrument for Spanned<B> {
    fn instrument(&self, out: &mut simkit::Scope<'_>) {
        self.inner.instrument(out);
    }
}

/// A [`Workload`] that forwards to `inner` inside a
/// [`SpanName::Execute`] span and opens the measured window at the first
/// transaction that starts at or after the ramp-up — the same rule
/// `memdb::run_observed` uses to decide what it counts.
#[derive(Debug)]
pub struct Observed<'a, W: ?Sized> {
    inner: &'a mut W,
    ramp_ns: u64,
    window: Window,
    attempted: u64,
}

impl<'a, W: Workload + ?Sized> Observed<'a, W> {
    /// Wrap `inner` for a run whose ramp-up lasts `ramp_up`.
    pub fn new(inner: &'a mut W, ramp_up: SimDuration) -> Self {
        Observed { inner, ramp_ns: ramp_up.as_nanos(), window: Window::new(), attempted: 0 }
    }

    /// Hand back the window (to close it when the driver returns) and the
    /// number of transactions started at or after the ramp-up.
    pub fn finish(self) -> (Window, u64) {
        (self.window, self.attempted)
    }
}

impl<W: Workload + ?Sized> Workload for Observed<'_, W> {
    fn kinds(&self) -> &'static [&'static str] {
        self.inner.kinds()
    }

    fn default_mix(&self) -> &'static [u32] {
        self.inner.default_mix()
    }

    fn execute(
        &mut self,
        db: &mut Database,
        rng: &mut DetRng,
        kind: usize,
        now_ns: u64,
    ) -> TxnOutcome {
        if now_ns >= self.ramp_ns {
            self.window.open();
            self.attempted += 1;
        }
        span::scope(SpanName::Execute, || self.inner.execute(db, rng, kind, now_ns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memdb::NoLog;

    #[test]
    fn spanned_backend_is_transparent() {
        let mut plain = NoLog::new();
        let mut wrapped = Spanned::new(NoLog::new(), SimDuration::ZERO);
        let t = SimTime::from_micros(3);
        assert_eq!(wrapped.append(t, &[0; 100]), plain.append(t, &[0; 100]));
        assert_eq!(wrapped.sync(t), plain.sync(t));
        let (tag_w, t_w) = wrapped.append_submit(t, &[0; 50]);
        let (tag_p, t_p) = plain.append_submit(t, &[0; 50]);
        assert_eq!((tag_w, t_w), (tag_p, t_p));
        assert_eq!(wrapped.appends_in_flight(), plain.appends_in_flight());
        assert_eq!(wrapped.next_completion_at(), plain.next_completion_at());
        let (mut out_w, mut out_p) = (Vec::new(), Vec::new());
        wrapped.drain_completions(t, &mut out_w);
        plain.drain_completions(t, &mut out_p);
        assert_eq!(out_w, out_p);
        assert_eq!(wrapped.bytes_written(), 150);
        assert_eq!(wrapped.name(), plain.name());
        // Untraced: no simulated-time bookkeeping.
        assert_eq!(wrapped.sim().groups, 0);
    }
}
