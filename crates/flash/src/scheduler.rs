//! The priority-aware channel scheduler.
//!
//! This is the piece of the storage controller the paper modifies to build
//! a Villars device: "other than in the scheduler, practically no additional
//! change is necessary to the Storage Controller" (§4.3). It serves two
//! traffic classes — conventional-side writes and fast-side destage writes —
//! under three policies. In the strict-priority policies the low class is
//! only scheduled into the *gaps* of the high class ("Opportunistic
//! Destaging").

use crate::array::{FlashArray, FlashError, OpOutcome};
use crate::geometry::Ppa;
use simkit::SimTime;
use std::collections::VecDeque;

/// Traffic class of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Priority {
    /// Regular block-interface traffic (data-buffer flushes, user writes).
    Conventional,
    /// Fast-side destage traffic (CMB ring being moved to NAND).
    Destage,
}

/// Scheduling policy (paper §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulingMode {
    /// "That of a traditional device": divide opportunities by arrival order.
    Neutral,
    /// Destage traffic first; conventional fills the gaps.
    DestagePriority,
    /// Conventional traffic first; destage fills the gaps.
    ConventionalPriority,
}

impl SchedulingMode {
    /// The class served first under this mode, if strict.
    fn preferred(&self) -> Option<Priority> {
        match self {
            SchedulingMode::Neutral => None,
            SchedulingMode::DestagePriority => Some(Priority::Destage),
            SchedulingMode::ConventionalPriority => Some(Priority::Conventional),
        }
    }
}

/// What a request asks the arrays to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Program the page at a specific PPA.
    Program(Ppa),
    /// Read the page at a specific PPA.
    Read(Ppa),
}

impl OpKind {
    fn channel(&self) -> u32 {
        match self {
            OpKind::Program(p) | OpKind::Read(p) => p.channel(),
        }
    }
}

/// A queued request.
#[derive(Debug, Clone, Copy)]
pub struct OpRequest {
    /// Caller-chosen identifier, echoed in the completion.
    pub id: u64,
    /// The operation.
    pub kind: OpKind,
    /// When the request reached the controller.
    pub arrival: SimTime,
    /// Traffic class.
    pub class: Priority,
}

/// A finished request.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// Echo of the request id.
    pub id: u64,
    /// Traffic class of the request.
    pub class: Priority,
    /// Completion instant (equals `outcome.grant.end` on success; errors
    /// complete at detection time).
    pub at: SimTime,
    /// The outcome.
    pub result: Result<OpOutcome, FlashError>,
}

#[derive(Debug, Default)]
struct ChannelQueues {
    conventional: VecDeque<OpRequest>,
    destage: VecDeque<OpRequest>,
}

impl ChannelQueues {
    fn queue(&mut self, class: Priority) -> &mut VecDeque<OpRequest> {
        match class {
            Priority::Conventional => &mut self.conventional,
            Priority::Destage => &mut self.destage,
        }
    }

    fn len(&self) -> usize {
        self.conventional.len() + self.destage.len()
    }
}

/// Per-class service accounting (drives the Fig. 12 bandwidth series).
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassStats {
    /// Completed operations.
    pub ops: u64,
    /// Completed page-bytes (programs and reads count one page each).
    pub bytes: u64,
}

/// The scheduler. Owns the per-channel queues; the flash arrays are passed
/// into [`ChannelScheduler::pump`] so array and policy stay separately
/// testable.
#[derive(Debug)]
pub struct ChannelScheduler {
    mode: SchedulingMode,
    channels: Vec<ChannelQueues>,
    /// Requests queued across all channels: lets an idle scheduler answer
    /// `pump` / `next_start_hint` / `pending` without visiting a channel.
    queued: usize,
    conventional_stats: ClassStats,
    destage_stats: ClassStats,
}

impl ChannelScheduler {
    /// A scheduler for `channels` channels under `mode`.
    pub fn new(channels: u32, mode: SchedulingMode) -> Self {
        ChannelScheduler {
            mode,
            channels: (0..channels).map(|_| ChannelQueues::default()).collect(),
            queued: 0,
            conventional_stats: ClassStats::default(),
            destage_stats: ClassStats::default(),
        }
    }

    /// Current policy.
    pub fn mode(&self) -> SchedulingMode {
        self.mode
    }

    /// Change policy (an NVMe vendor command on the Villars device).
    pub fn set_mode(&mut self, mode: SchedulingMode) {
        self.mode = mode;
    }

    /// Enqueue a request. Requests are kept in arrival order within their
    /// class; a late submission with an early arrival (a firmware retry) is
    /// inserted at its time-correct position.
    pub fn submit(&mut self, req: OpRequest) {
        let ch = req.kind.channel() as usize;
        assert!(ch < self.channels.len(), "channel {ch} out of range");
        let q = self.channels[ch].queue(req.class);
        // Stable insert: after all entries with arrival <= req.arrival.
        let pos = q.partition_point(|r| r.arrival <= req.arrival);
        q.insert(pos, req);
        self.queued += 1;
    }

    /// Drop every queued (not yet started) request. Used on power failure:
    /// queued work is volatile device state.
    pub fn drop_all(&mut self) {
        for ch in &mut self.channels {
            ch.conventional.clear();
            ch.destage.clear();
        }
        self.queued = 0;
    }

    /// Drop queued requests of one class (power failure with supercap
    /// rescue keeps the destage class).
    pub fn drop_class(&mut self, class: Priority) {
        for ch in &mut self.channels {
            ch.queue(class).clear();
        }
        self.queued = self.channels.iter().map(ChannelQueues::len).sum();
    }

    /// Number of queued requests across all channels.
    pub fn pending(&self) -> usize {
        self.queued
    }

    /// Service accounting for one class.
    pub fn class_stats(&self, class: Priority) -> ClassStats {
        match class {
            Priority::Conventional => self.conventional_stats,
            Priority::Destage => self.destage_stats,
        }
    }

    /// The earliest instant any queued request could begin service, using
    /// the same die-aware feasibility `pump` uses — advancing a device to
    /// this instant guarantees pumping makes progress. Lets a device event
    /// loop jump virtual time.
    pub fn next_start_hint(&self, array: &FlashArray) -> Option<SimTime> {
        if self.queued == 0 {
            return None;
        }
        let window = (4 * array.geometry().dies_per_channel as usize).max(8);
        let mut best: Option<SimTime> = None;
        for (ch, q) in self.channels.iter().enumerate() {
            if q.len() == 0 {
                continue;
            }
            for queue in [&q.conventional, &q.destage] {
                if let Some((_, start)) = Self::best_in_window(queue, array, ch as u32, window) {
                    best = Some(best.map_or(start, |b: SimTime| b.min(start)));
                }
            }
        }
        best
    }

    /// Drive all channels, starting every request whose service can begin at
    /// or before `until`. Returns completions sorted by completion time.
    ///
    /// Scheduling is *die-aware with lookahead*: within a bounded window of
    /// each class queue, the scheduler finds the request that can start
    /// soonest given its target die's availability (firmware command-queue
    /// lookahead — without it, every grant piles onto already-backlogged
    /// dies and priorities become meaningless). Under strict priority the
    /// preferred class wins whenever it can start no later than the other —
    /// the low class runs only in true gaps (paper §4.3, Opportunistic
    /// Destaging).
    pub fn pump(&mut self, array: &mut FlashArray, until: SimTime) -> Vec<Completion> {
        let mut done = Vec::new();
        if self.queued == 0 {
            return done;
        }
        let page_bytes = array.geometry().page_bytes as u64;
        let window = (4 * array.geometry().dies_per_channel as usize).max(8);
        for ch in 0..self.channels.len() {
            if self.channels[ch].len() == 0 {
                continue;
            }
            loop {
                let conv =
                    Self::best_in_window(&self.channels[ch].conventional, array, ch as u32, window);
                let dest =
                    Self::best_in_window(&self.channels[ch].destage, array, ch as u32, window);
                let pick = match (conv, dest) {
                    (None, None) => break,
                    (Some(c), None) => (Priority::Conventional, c),
                    (None, Some(d)) => (Priority::Destage, d),
                    (Some(c), Some(d)) => match self.mode.preferred() {
                        Some(Priority::Conventional) if c.1 <= d.1 => (Priority::Conventional, c),
                        Some(Priority::Conventional) => (Priority::Destage, d),
                        Some(Priority::Destage) if d.1 <= c.1 => (Priority::Destage, d),
                        Some(Priority::Destage) => (Priority::Conventional, c),
                        None => {
                            // Neutral: earliest feasible start; tie-break by
                            // arrival order (FIFO across classes).
                            let (c_idx, c_start) = c;
                            let (d_idx, d_start) = d;
                            let c_arr = self.channels[ch].conventional[c_idx].arrival;
                            let d_arr = self.channels[ch].destage[d_idx].arrival;
                            if (c_start, c_arr) <= (d_start, d_arr) {
                                (Priority::Conventional, c)
                            } else {
                                (Priority::Destage, d)
                            }
                        }
                    },
                };
                let (class, (idx, start)) = pick;
                if start > until {
                    break;
                }
                let req =
                    self.channels[ch].queue(class).remove(idx).expect("candidate index valid");
                self.queued -= 1;
                let result = match req.kind {
                    OpKind::Program(p) => array.program(start, p),
                    OpKind::Read(p) => array.read(start, p),
                };
                let at = match &result {
                    Ok(o) => o.grant.end,
                    Err(_) => start,
                };
                let stats = match req.class {
                    Priority::Conventional => &mut self.conventional_stats,
                    Priority::Destage => &mut self.destage_stats,
                };
                if result.is_ok() {
                    stats.ops += 1;
                    stats.bytes += page_bytes;
                }
                done.push(Completion { id: req.id, class: req.class, at, result });
            }
        }
        done.sort_by_key(|c| c.at);
        done
    }

    /// The request within the first `window` entries of `q` that can start
    /// soonest, and that start instant. A program's start accounts for the
    /// channel bus and its die (the bus transfer may overlap the die's
    /// previous operation tail); reads gate on the die.
    fn best_in_window(
        q: &VecDeque<OpRequest>,
        array: &FlashArray,
        channel: u32,
        window: usize,
    ) -> Option<(usize, SimTime)> {
        if q.is_empty() {
            return None;
        }
        let bus_free = array.bus_busy_until(channel);
        // The same for every program in the window.
        let xfer = array.timing().page_transfer(array.geometry().page_bytes);
        let mut best: Option<(usize, SimTime)> = None;
        for (idx, req) in q.iter().take(window).enumerate() {
            // Queues are arrival-ordered, so once the best found start is at
            // or below every later entry's floor (max of bus-free and its
            // arrival), no later entry can improve on it.
            if let Some((_, b)) = best {
                if b <= req.arrival.max(bus_free) {
                    break;
                }
            }
            let start = match req.kind {
                OpKind::Program(p) => {
                    let die_gate = array.die_busy_until(p.die()) - xfer;
                    req.arrival.max(bus_free).max(die_gate)
                }
                OpKind::Read(p) => req.arrival.max(array.die_busy_until(p.die())),
            };
            match best {
                Some((_, b)) if b <= start => {}
                _ => best = Some((idx, start)),
            }
        }
        best
    }
}

impl simkit::Instrument for ChannelScheduler {
    fn instrument(&self, out: &mut simkit::Scope<'_>) {
        out.counter("conventional.ops", self.conventional_stats.ops);
        out.counter("conventional.bytes", self.conventional_stats.bytes);
        out.counter("destage.ops", self.destage_stats.ops);
        out.counter("destage.bytes", self.destage_stats.bytes);
        out.gauge("pending_ops", self.pending() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::FlashGeometry;
    use crate::timing::{FlashTiming, ReliabilityConfig};
    use simkit::SimDuration;

    fn array() -> FlashArray {
        FlashArray::new(FlashGeometry::tiny(), FlashTiming::fast(), ReliabilityConfig::perfect(), 1)
    }

    /// Program requests striped across the dies of channel 0.
    fn stripe_reqs(
        n: u64,
        class: Priority,
        arrival_step: SimDuration,
        id_base: u64,
        block: u32,
    ) -> Vec<OpRequest> {
        let g = FlashGeometry::tiny();
        (0..n)
            .map(|i| {
                let die = (i % g.dies_per_channel as u64) as u32;
                let page = (i / g.dies_per_channel as u64) as u32;
                OpRequest {
                    id: id_base + i,
                    kind: OpKind::Program(Ppa::new(0, die, block, page)),
                    arrival: SimTime::ZERO + arrival_step * i,
                    class,
                }
            })
            .collect()
    }

    #[test]
    fn completions_come_back_in_time_order() {
        let mut a = array();
        let mut s = ChannelScheduler::new(2, SchedulingMode::Neutral);
        for r in stripe_reqs(8, Priority::Conventional, SimDuration::ZERO, 0, 0) {
            s.submit(r);
        }
        let done = s.pump(&mut a, SimTime::MAX);
        assert_eq!(done.len(), 8);
        assert!(done.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(done.iter().all(|c| c.result.is_ok()));
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn pump_honours_until() {
        let mut a = array();
        let mut s = ChannelScheduler::new(2, SchedulingMode::Neutral);
        // Two requests far apart in arrival time.
        s.submit(OpRequest {
            id: 0,
            kind: OpKind::Program(Ppa::new(0, 0, 0, 0)),
            arrival: SimTime::ZERO,
            class: Priority::Conventional,
        });
        s.submit(OpRequest {
            id: 1,
            kind: OpKind::Program(Ppa::new(0, 0, 0, 1)),
            arrival: SimTime::from_millis(10),
            class: Priority::Conventional,
        });
        let done = s.pump(&mut a, SimTime::from_millis(1));
        assert_eq!(done.len(), 1);
        assert_eq!(s.pending(), 1);
        let done2 = s.pump(&mut a, SimTime::from_millis(20));
        assert_eq!(done2.len(), 1);
    }

    #[test]
    fn strict_priority_preempts_waiting_low_class() {
        let mut a = array();
        let mut s = ChannelScheduler::new(2, SchedulingMode::ConventionalPriority);
        // Both queues deep, all arrived at t=0 (block 0 for conventional,
        // block 1 for destage so program order is per-block).
        for r in stripe_reqs(8, Priority::Destage, SimDuration::ZERO, 100, 1) {
            s.submit(r);
        }
        for r in stripe_reqs(8, Priority::Conventional, SimDuration::ZERO, 0, 0) {
            s.submit(r);
        }
        let done = s.pump(&mut a, SimTime::MAX);
        // All conventional ops must start before any destage op starts.
        let first_destage = done
            .iter()
            .filter(|c| c.class == Priority::Destage)
            .map(|c| c.result.unwrap().grant.start)
            .min()
            .unwrap();
        let last_conv_start = done
            .iter()
            .filter(|c| c.class == Priority::Conventional)
            .map(|c| c.result.unwrap().grant.start)
            .max()
            .unwrap();
        assert!(last_conv_start <= first_destage);
    }

    #[test]
    fn gap_filling_serves_low_class_when_high_idle() {
        let mut a = array();
        let mut s = ChannelScheduler::new(2, SchedulingMode::ConventionalPriority);
        // Destage request available immediately; conventional arrives later.
        s.submit(OpRequest {
            id: 1,
            kind: OpKind::Program(Ppa::new(0, 0, 1, 0)),
            arrival: SimTime::ZERO,
            class: Priority::Destage,
        });
        s.submit(OpRequest {
            id: 0,
            kind: OpKind::Program(Ppa::new(0, 0, 0, 0)),
            arrival: SimTime::from_millis(5),
            class: Priority::Conventional,
        });
        let done = s.pump(&mut a, SimTime::MAX);
        // The destage op runs in the gap before the conventional op arrives.
        let d = done.iter().find(|c| c.id == 1).unwrap();
        assert_eq!(d.result.unwrap().grant.start, SimTime::ZERO);
    }

    #[test]
    fn neutral_mode_is_arrival_fifo() {
        let mut a = array();
        let mut s = ChannelScheduler::new(2, SchedulingMode::Neutral);
        s.submit(OpRequest {
            id: 0,
            kind: OpKind::Program(Ppa::new(0, 0, 1, 0)),
            arrival: SimTime::from_nanos(10),
            class: Priority::Destage,
        });
        s.submit(OpRequest {
            id: 1,
            kind: OpKind::Program(Ppa::new(0, 0, 0, 0)),
            arrival: SimTime::from_nanos(20),
            class: Priority::Conventional,
        });
        let done = s.pump(&mut a, SimTime::MAX);
        assert_eq!(done[0].id, 0, "earlier arrival first");
        assert_eq!(done[1].id, 1);
    }

    #[test]
    fn class_stats_track_bytes() {
        let mut a = array();
        let mut s = ChannelScheduler::new(2, SchedulingMode::Neutral);
        for r in stripe_reqs(4, Priority::Destage, SimDuration::ZERO, 0, 1) {
            s.submit(r);
        }
        s.pump(&mut a, SimTime::MAX);
        let st = s.class_stats(Priority::Destage);
        assert_eq!(st.ops, 4);
        assert_eq!(st.bytes, 4 * 4096);
        assert_eq!(s.class_stats(Priority::Conventional).ops, 0);
    }

    #[test]
    fn errors_complete_immediately() {
        let mut a = array();
        let mut s = ChannelScheduler::new(2, SchedulingMode::Neutral);
        // Out-of-order program: page 5 before 0..4.
        s.submit(OpRequest {
            id: 9,
            kind: OpKind::Program(Ppa::new(0, 0, 0, 5)),
            arrival: SimTime::ZERO,
            class: Priority::Conventional,
        });
        let done = s.pump(&mut a, SimTime::MAX);
        assert!(matches!(done[0].result, Err(FlashError::OutOfOrderProgram { .. })));
    }

    #[test]
    fn late_submission_with_early_arrival_is_reordered() {
        let mut a = array();
        let mut s = ChannelScheduler::new(2, SchedulingMode::Neutral);
        // Submitted second, but arrives first -> must be served first
        // (page-order constraint demands id 1 programs page 0 first).
        s.submit(OpRequest {
            id: 0,
            kind: OpKind::Program(Ppa::new(0, 0, 0, 1)),
            arrival: SimTime::from_nanos(100),
            class: Priority::Conventional,
        });
        s.submit(OpRequest {
            id: 1,
            kind: OpKind::Program(Ppa::new(0, 0, 0, 0)),
            arrival: SimTime::from_nanos(50),
            class: Priority::Conventional,
        });
        let done = s.pump(&mut a, SimTime::MAX);
        assert_eq!(done[0].id, 1);
        assert!(done.iter().all(|c| c.result.is_ok()));
    }

    #[test]
    fn pending_count_tracks_the_queues() {
        // Random submit / pump / drop_class / drop_all: the running count
        // equals a recount of the queues after every step, and an empty
        // scheduler has no start hint and pumps nothing.
        let recount = |s: &ChannelScheduler| -> usize {
            s.channels.iter().map(|c| c.conventional.len() + c.destage.len()).sum()
        };
        let g = FlashGeometry::tiny();
        let mut rng = simkit::DetRng::new(0x9EED);
        for _ in 0..20 {
            let mut a = array();
            let mut s = ChannelScheduler::new(2, SchedulingMode::Neutral);
            let mut next_page = vec![0u32; (2 * g.dies_per_channel) as usize];
            let mut now = SimTime::ZERO;
            for id in 0..300u64 {
                now += SimDuration::from_micros(rng.uniform(0, 40));
                match rng.uniform(0, 9) {
                    0..=5 => {
                        let (ch, die) = (rng.uniform(0, 1) as u32, rng.uniform(0, 1) as u32);
                        let slot = &mut next_page[(ch * g.dies_per_channel + die) as usize];
                        if *slot < g.pages_per_block {
                            let class = if rng.chance(0.5) {
                                Priority::Conventional
                            } else {
                                Priority::Destage
                            };
                            let kind = OpKind::Program(Ppa::new(ch, die, 0, *slot));
                            *slot += 1;
                            s.submit(OpRequest { id, kind, arrival: now, class });
                        }
                    }
                    6..=7 => {
                        let before = s.pending();
                        let done = s.pump(&mut a, now);
                        assert_eq!(s.pending(), before - done.len());
                    }
                    8 => s.drop_class(if rng.chance(0.5) {
                        Priority::Conventional
                    } else {
                        Priority::Destage
                    }),
                    _ => s.drop_all(),
                }
                assert_eq!(s.pending(), recount(&s));
                if s.pending() == 0 {
                    assert_eq!(s.next_start_hint(&a), None);
                    assert!(s.pump(&mut a, SimTime::MAX).is_empty());
                }
            }
        }
    }

    #[test]
    fn mode_change_takes_effect() {
        let mut s = ChannelScheduler::new(1, SchedulingMode::Neutral);
        assert_eq!(s.mode(), SchedulingMode::Neutral);
        s.set_mode(SchedulingMode::DestagePriority);
        assert_eq!(s.mode(), SchedulingMode::DestagePriority);
    }
}
