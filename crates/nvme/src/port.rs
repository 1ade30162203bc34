//! The unified asynchronous submission/completion port.
//!
//! The host side of every command path — the NVMe host driver in front of
//! a bare SSD, and the Villars device, whose host is the `Cluster` — speaks
//! one command-lifecycle contract: tagged submissions go in, event-driven
//! completions come out, and the caller decides how many commands to keep
//! in flight. (A device model behind a driver speaks only the device side,
//! [`crate::NvmeController`].) This is the shape the paper's host interface requires
//! (NVMe queue pairs keep many commands outstanding per device, §2.1;
//! CMB fast-writes race destage and replication mirrors overlap local
//! I/O, §4, §6.2): the *port* is asynchronous, and blocking is a policy
//! layered on top — the closed-loop adapter [`drive_to_completion`] —
//! not a property of the device.
//!
//! The port contract is deliberately small:
//!
//! 1. [`IoPort::submit`] hands a [`CommandKind`] to the device at a
//!    virtual instant and returns a [`CmdTag`] identifying the in-flight
//!    command (the port allocates the NVMe CID — callers never mint
//!    their own, which is what makes per-port collision checking
//!    possible). Every port is unbounded, so submission cannot fail:
//!    back-pressure is modelled inside the device (HIC fetch, channel
//!    queues, CMB intake), not by a host-side ring.
//! 2. [`IoPort::poll`] runs device work up to an instant so due
//!    completions become visible.
//! 3. [`IoPort::completions_into`] delivers every completion due by an
//!    instant, in completion order, retiring their tags.
//! 4. [`IoPort::next_port_event_at`] lets callers jump virtual time
//!    straight to the next device event instead of polling in quanta.
//!
//! [`PortAccounting`] is the bookkeeping every implementation shares:
//! per-port CID allocation that skips live CIDs (a wrapped 16-bit CID
//! must never collide with a still-in-flight command), plus queue-depth
//! telemetry (submitted/completed counters, an in-flight gauge and
//! high-water mark, an exact count of submissions per in-flight depth, and
//! the driver's retry and fault counters). Its owner reports it:
//! `VillarsDevice` under `core.port`, `NvmeLog` under `db.log.port`
//! (`docs/OBSERVABILITY.md`).

use crate::command::{CommandId, CommandKind, CompletionEntry};
use simkit::{IntSet, SimTime, Summary};

/// Identifies one in-flight submission on the port that issued it.
///
/// Tags wrap the NVMe CID the port allocated; they are only meaningful
/// relative to the issuing port, and only until the matching completion
/// is delivered (after which the CID may be reissued).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CmdTag(pub CommandId);

/// One completed command: the shape a device posts and a port delivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// When the completion is observed. Out of a device
    /// ([`crate::NvmeController::drain_completions_into`]) this is the
    /// instant the device posted it; host drivers that model interrupt
    /// cost fold it in before delivering.
    pub at: SimTime,
    /// The NVMe completion-queue entry (CID, status, result).
    pub entry: CompletionEntry,
}

/// The unified asynchronous submission/completion contract.
///
/// Implemented by the NVMe host driver ([`crate::NvmeDriver`]) and by
/// `VillarsDevice`, so both command paths share one lifecycle: submit →
/// queue → device event → completion. Blocking
/// callers layer [`drive_to_completion`] on top; pipelined callers keep
/// several tags in flight and drain completions as virtual time advances.
pub trait IoPort {
    /// Submit `kind` at `now` and return the tag of the in-flight command.
    fn submit(&mut self, now: SimTime, kind: CommandKind) -> CmdTag;

    /// Run device-internal work up to and including instant `now`, so
    /// completions due by `now` become visible to
    /// [`IoPort::completions_into`].
    fn poll(&mut self, now: SimTime);

    /// Append every completion due at or before `now` to `out`, in
    /// completion order, retiring their tags from the in-flight set.
    fn completions_into(&mut self, now: SimTime, out: &mut Vec<Completion>);

    /// The earliest instant port work (a pending completion or internal
    /// device event) is scheduled, if any. Named to avoid colliding with
    /// [`crate::NvmeController::next_event_at`] on types implementing
    /// both contracts.
    fn next_port_event_at(&self) -> Option<SimTime>;

    /// Commands submitted through this port and not yet delivered.
    fn in_flight(&self) -> usize;
}

/// Per-port command accounting shared by every [`IoPort`] implementation:
/// CID allocation that never reissues a live CID, and queue-depth
/// telemetry.
#[derive(Debug, Clone)]
pub struct PortAccounting {
    next_cid: CommandId,
    live: IntSet<CommandId>,
    submitted: u64,
    completed: u64,
    /// `depth[d]` submissions found `d` commands in flight, their own
    /// included; `d` is bounded by the deepest the port has been.
    depth: Vec<u64>,
    /// Driver retries (error-completion resubmits + timeout resubmits).
    retries: u64,
    /// Commands whose completion deadline expired (timeout → abort).
    timeouts: u64,
    /// Injected error completions swallowed by the driver's retry loop.
    error_completions: u64,
    /// Injected lost completions (CQE never posted; timeout path fired).
    dropped_completions: u64,
}

impl PortAccounting {
    /// Fresh accounting: CIDs start at 0, nothing in flight.
    pub fn new() -> Self {
        PortAccounting {
            next_cid: 0,
            live: IntSet::default(),
            submitted: 0,
            completed: 0,
            depth: Vec::new(),
            retries: 0,
            timeouts: 0,
            error_completions: 0,
            dropped_completions: 0,
        }
    }

    /// Allocate the CID for a new submission and mark it live.
    ///
    /// Allocation is a wrapping scan that skips CIDs still in flight, so
    /// a wrapped 16-bit counter can never collide with an outstanding
    /// command (the bug the old global `wrapping_add(1)` allocator had).
    pub fn begin(&mut self) -> CommandId {
        assert!(
            self.live.len() < usize::from(CommandId::MAX),
            "I/O port exhausted: {} commands in flight, no free CID",
            self.live.len()
        );
        let mut cid = self.next_cid;
        while self.live.contains(&cid) {
            cid = cid.wrapping_add(1);
        }
        self.next_cid = cid.wrapping_add(1);
        let fresh = self.live.insert(cid);
        debug_assert!(fresh, "cid {cid} allocated while still in flight");
        self.submitted += 1;
        let depth = self.live.len();
        if self.depth.len() <= depth {
            self.depth.resize(depth + 1, 0);
        }
        self.depth[depth] += 1;
        cid
    }

    /// Retire `cid` after its completion is delivered. Returns whether it
    /// was live on this port (completions for CIDs submitted around the
    /// port are ignored).
    pub fn finish(&mut self, cid: CommandId) -> bool {
        let was_live = self.live.remove(&cid);
        if was_live {
            self.completed += 1;
        }
        was_live
    }

    /// Commands currently in flight.
    pub fn in_flight(&self) -> usize {
        self.live.len()
    }

    /// The ledger's invariant, `submitted − completed == in_flight()`:
    /// every submission is either delivered or still live. Its owner runs
    /// it in debug builds (`VillarsDevice` after every `advance`).
    pub fn check(&self) {
        assert!(
            self.completed + self.live.len() as u64 == self.submitted,
            "I/O port ledger: submitted {}, completed {}, in flight {}",
            self.submitted,
            self.completed,
            self.live.len()
        );
    }

    /// A test-only corruption: a completion counted for no live command.
    #[cfg(test)]
    fn count_phantom_completion(&mut self) {
        self.completed += 1;
    }

    /// Total commands submitted through this port.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Total completions delivered through this port.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// High-water mark of the in-flight depth.
    pub fn max_in_flight(&self) -> usize {
        self.depth.len().saturating_sub(1)
    }

    /// Distribution of in-flight depth sampled at each submission.
    fn depth_summary(&self) -> Summary {
        let n = self.submitted as usize;
        let sum: u64 = self.depth.iter().zip(0..).map(|(&count, depth)| count * depth).sum();
        let mean = if n == 0 { 0.0 } else { sum as f64 / n as f64 };
        Summary::of_ranked(n, mean, |k| {
            let mut seen = 0;
            let depth = self.depth.iter().position(|&count| {
                seen += count;
                seen > k as u64
            });
            depth.expect("a rank below the submission count") as f64
        })
    }

    /// Count one driver retry (resubmission of an existing CID).
    pub fn record_retry(&mut self) {
        self.retries += 1;
    }

    /// Count one command timeout (deadline expired, command aborted).
    pub fn record_timeout(&mut self) {
        self.timeouts += 1;
    }

    /// Count one error completion swallowed by the retry loop.
    pub fn record_error_completion(&mut self) {
        self.error_completions += 1;
    }

    /// Count one lost completion (injected drop).
    pub fn record_dropped_completion(&mut self) {
        self.dropped_completions += 1;
    }

    /// Driver retries so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Command timeouts so far.
    pub fn timeouts(&self) -> u64 {
        self.timeouts
    }

    /// Error completions swallowed so far.
    pub fn error_completions(&self) -> u64 {
        self.error_completions
    }

    /// Lost completions so far.
    pub fn dropped_completions(&self) -> u64 {
        self.dropped_completions
    }
}

impl Default for PortAccounting {
    fn default() -> Self {
        Self::new()
    }
}

impl simkit::Instrument for PortAccounting {
    fn instrument(&self, out: &mut simkit::Scope<'_>) {
        out.counter("submitted", self.submitted);
        out.counter("completed", self.completed);
        out.gauge("inflight", self.live.len() as f64);
        out.gauge("max_inflight", self.max_in_flight() as f64);
        out.latency("depth", self.depth_summary());
        out.counter("retry.resubmits", self.retries);
        out.counter("fault.timeouts", self.timeouts);
        out.counter("fault.error_completions", self.error_completions);
        out.counter("fault.dropped_completions", self.dropped_completions);
    }
}

/// The single closed-loop wait every `*_blocking` helper routes through:
/// poll the port, drain its completions, and jump virtual time straight
/// to the port's next scheduled event until the tagged command completes.
///
/// Completions for *other* in-flight commands drained while waiting are
/// discarded (their tags are retired) — exactly the behaviour of the
/// pre-port blocking helpers; pipelined callers drain the port themselves
/// instead of using this adapter.
///
/// Panics if the port goes idle before the tag completes (a stalled device
/// model is a simulation bug); the message names the instant, the
/// in-flight count and the waiting CID.
pub fn drive_to_completion<P: IoPort + ?Sized>(
    port: &mut P,
    from: SimTime,
    tag: CmdTag,
    scratch: &mut Vec<Completion>,
) -> Completion {
    let mut horizon = from;
    loop {
        port.poll(horizon);
        scratch.clear();
        port.completions_into(horizon, scratch);
        if let Some(done) = scratch.iter().find(|c| c.entry.cid == tag.0) {
            return *done;
        }
        let Some(t) = port.next_port_event_at() else {
            panic!(
                "simulation stalled at I/O port: waiting since t={}us [t={}us, {} in flight; \
                 command cid={} never completed]",
                from.as_micros_f64(),
                horizon.as_micros_f64(),
                port.in_flight(),
                tag.0
            );
        };
        horizon = t.max(horizon);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn cid_allocation_skips_live_cids() {
        let mut acct = PortAccounting::new();
        let a = acct.begin();
        let b = acct.begin();
        assert_ne!(a, b);
        assert_eq!(acct.in_flight(), 2);
        // Force the counter to wrap onto a live CID: it must skip it.
        let mut seen = HashSet::new();
        seen.insert(a);
        seen.insert(b);
        for _ in 0..u32::from(CommandId::MAX) - 1 {
            let cid = acct.begin();
            assert!(seen.insert(cid), "cid {cid} reissued while live");
            acct.finish(cid);
            seen.remove(&cid);
        }
        // The counter has wrapped past `a` and `b`; they stayed unique.
        assert_eq!(acct.in_flight(), 2);
        assert!(acct.finish(a));
        assert!(acct.finish(b));
        assert_eq!(acct.in_flight(), 0);
    }

    #[test]
    #[should_panic(expected = "I/O port ledger: submitted 2, completed 2, in flight 1")]
    fn a_phantom_completion_breaks_the_ledger() {
        let mut acct = PortAccounting::new();
        let a = acct.begin();
        acct.begin();
        acct.finish(a);
        acct.count_phantom_completion();
        acct.check();
    }

    #[test]
    fn finish_ignores_foreign_cids() {
        let mut acct = PortAccounting::new();
        let cid = acct.begin();
        assert!(!acct.finish(cid.wrapping_add(7)));
        acct.check();
        assert!(acct.finish(cid));
        assert_eq!(acct.completed(), 1);
        assert_eq!(acct.submitted(), 1);
        acct.check();
    }

    #[test]
    fn depth_telemetry_tracks_high_water_mark() {
        let mut acct = PortAccounting::new();
        let a = acct.begin();
        let b = acct.begin();
        let c = acct.begin();
        acct.finish(b);
        acct.finish(a);
        assert_eq!(acct.max_in_flight(), 3);
        assert_eq!(acct.in_flight(), 1);
        assert_eq!(acct.depth_summary().count, 3);
        acct.finish(c);
        let mut reg = simkit::MetricsRegistry::new();
        reg.collect("port", &acct);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("port.submitted"), 3);
        assert_eq!(snap.counter("port.completed"), 3);
        assert_eq!(snap.gauge("port.max_inflight"), 3.0);
        assert_eq!(snap.gauge("port.inflight"), 0.0);
    }

    #[test]
    fn a_port_held_at_depth_one_reports_depth_one() {
        let mut acct = PortAccounting::new();
        for _ in 0..50 {
            let cid = acct.begin();
            acct.finish(cid);
        }
        let d = acct.depth_summary();
        assert_eq!((d.count, d.mean, d.p50, d.p99), (50, 1.0, 1.0, 1.0));
        assert_eq!(PortAccounting::new().depth_summary(), simkit::SampleSeries::new().summary());
    }

    #[test]
    fn depth_summary_matches_a_sample_series_of_the_same_depths() {
        let mut rng = simkit::DetRng::new(0xDE97);
        let mut acct = PortAccounting::new();
        let mut brute = simkit::SampleSeries::new();
        let mut live = Vec::new();
        for step in 0..2_000 {
            // Mostly shallow with bursts, so p50 and p99 land on different
            // depths and the interpolated rank falls between two of them.
            let target = if step % 97 < 30 { 24 } else { rng.uniform(1, 4) as usize };
            while live.len() >= target {
                let cid = live.swap_remove(rng.uniform(0, live.len() as u64 - 1) as usize);
                acct.finish(cid);
            }
            live.push(acct.begin());
            brute.record(live.len() as f64);
            assert_eq!(acct.depth_summary(), brute.summary(), "after {} submissions", step + 1);
        }
        assert_eq!(acct.max_in_flight(), 24);
    }

    /// A port that accepts commands and never completes one.
    struct BlackHole(PortAccounting);

    impl IoPort for BlackHole {
        fn submit(&mut self, _now: SimTime, _kind: CommandKind) -> CmdTag {
            CmdTag(self.0.begin())
        }
        fn poll(&mut self, _now: SimTime) {}
        fn completions_into(&mut self, _now: SimTime, _out: &mut Vec<Completion>) {}
        fn next_port_event_at(&self) -> Option<SimTime> {
            None
        }
        fn in_flight(&self) -> usize {
            self.0.in_flight()
        }
    }

    #[test]
    #[should_panic(expected = "2 in flight; command cid=1 never completed")]
    fn a_port_that_goes_idle_names_the_waiting_cid() {
        let mut port = BlackHole(PortAccounting::new());
        let kind = CommandKind::Admin(crate::AdminCommand::Identify);
        port.submit(SimTime::ZERO, kind);
        let tag = port.submit(SimTime::ZERO, kind);
        drive_to_completion(&mut port, SimTime::from_micros(3), tag, &mut Vec::new());
    }
}
