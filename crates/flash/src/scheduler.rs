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
use std::cell::Cell;
use std::collections::VecDeque;

/// Traffic class of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Priority {
    /// Regular block-interface traffic (data-buffer flushes, user writes).
    Conventional,
    /// Fast-side destage traffic (CMB ring being moved to NAND).
    Destage,
}

impl Priority {
    /// The class's slot in a channel's per-class arrays.
    fn slot(self) -> usize {
        match self {
            Priority::Conventional => 0,
            Priority::Destage => 1,
        }
    }
}

/// The classes in slot order.
const CLASSES: [Priority; 2] = [Priority::Conventional, Priority::Destage];

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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// What [`ChannelScheduler::best_in_window`] answers for one class queue:
/// the index of the request that can start soonest and that start instant,
/// `None` for an empty queue.
type Best = Option<(usize, SimTime)>;

/// One channel's class queues, in slot order, and what each one's window
/// answered when it last changed.
#[derive(Debug)]
struct ChannelQueues {
    queues: [VecDeque<OpRequest>; 2],
    /// Each queue's `best_in_window` as of the last change to the queue or
    /// to this channel's bus and dies; `None` once a `submit` left it to be
    /// recomputed against the array.
    kept: [Cell<Option<Best>>; 2],
}

impl ChannelQueues {
    fn empty() -> Self {
        ChannelQueues {
            queues: [VecDeque::new(), VecDeque::new()],
            kept: [Cell::new(Some(None)), Cell::new(Some(None))],
        }
    }

    fn len(&self) -> usize {
        self.queues[0].len() + self.queues[1].len()
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
///
/// It answers from what changed. A queue's best start depends only on the
/// queue and on its channel's bus and dies, so each channel keeps its two
/// answers and the scheduler keeps their minimum. A `submit` or a drop
/// changes a queue, and only `pump`, starting a request, touches a bus or a
/// die; nothing else may drive the array a scheduler pumps, or the kept
/// answers go stale. `set_mode` changes which answer wins, not the answers.
#[derive(Debug)]
pub struct ChannelScheduler {
    mode: SchedulingMode,
    channels: Vec<ChannelQueues>,
    /// Requests queued across all channels.
    queued: usize,
    /// The earliest kept start over all channels, when `current`.
    earliest: Cell<Option<SimTime>>,
    /// Whether `earliest` and every kept answer are up to date.
    current: Cell<bool>,
    /// `best_in_window` calls on a non-empty queue: the host work
    /// `crates/bench/tests/host_counts.rs` gates.
    window_visits: Cell<u64>,
    conventional_stats: ClassStats,
    destage_stats: ClassStats,
}

impl ChannelScheduler {
    /// A scheduler for `channels` channels under `mode`.
    pub fn new(channels: u32, mode: SchedulingMode) -> Self {
        ChannelScheduler {
            mode,
            channels: (0..channels).map(|_| ChannelQueues::empty()).collect(),
            queued: 0,
            earliest: Cell::new(None),
            current: Cell::new(true),
            window_visits: Cell::new(0),
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
        let slot = req.class.slot();
        let channel = &mut self.channels[ch];
        let q = &mut channel.queues[slot];
        // Stable insert: after all entries with arrival <= req.arrival.
        let pos = q.partition_point(|r| r.arrival <= req.arrival);
        q.insert(pos, req);
        channel.kept[slot].set(None);
        self.current.set(false);
        self.queued += 1;
        self.check(None);
    }

    /// Drop every queued (not yet started) request. Used on power failure:
    /// queued work is volatile device state.
    pub fn drop_all(&mut self) {
        for ch in &mut self.channels {
            *ch = ChannelQueues::empty();
        }
        self.queued = 0;
        self.earliest.set(None);
        self.current.set(true);
        self.check(None);
    }

    /// Drop queued requests of one class (power failure with supercap
    /// rescue keeps the destage class).
    pub fn drop_class(&mut self, class: Priority) {
        for ch in &mut self.channels {
            self.queued -= ch.queues[class.slot()].len();
            ch.queues[class.slot()].clear();
            ch.kept[class.slot()].set(Some(None));
        }
        self.current.set(false);
        self.check(None);
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

    /// How many times a queue's window has been scanned for its best start
    /// (calls of `best_in_window` on a non-empty queue) since construction.
    pub fn window_visits(&self) -> u64 {
        self.window_visits.get()
    }

    /// The earliest instant any queued request could begin service, using
    /// the same die-aware feasibility `pump` uses — advancing a device to
    /// this instant guarantees pumping makes progress. Lets a device event
    /// loop jump virtual time.
    pub fn next_start_hint(&self, array: &FlashArray) -> Option<SimTime> {
        let earliest = self.earliest(array);
        self.check(Some(array));
        earliest
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
        if self.earliest(array).is_none_or(|start| start > until) {
            self.check(Some(array));
            return done;
        }
        let page_bytes = array.geometry().page_bytes as u64;
        let window = Self::window(array);
        for ch in 0..self.channels.len() {
            // A channel whose kept answers both start after `until` is
            // passed over with two reads: the pick's start is their minimum.
            loop {
                let best = CLASSES.map(|class| self.best(ch, class.slot(), array, window));
                let Some((class, idx, start)) =
                    Self::choose(self.mode, &self.channels[ch].queues, best)
                else {
                    break;
                };
                if start > until {
                    break;
                }
                let channel = &mut self.channels[ch];
                let req = channel.queues[class.slot()].remove(idx).expect("candidate index valid");
                // The start moves this channel's bus or a die: both class
                // answers are recomputed.
                channel.kept.iter().for_each(|k| k.set(None));
                self.current.set(false);
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
        self.check(Some(array));
        done
    }

    /// The request a channel serves next given its two class answers, as
    /// (class, queue index, start); `None` when both queues are empty.
    /// The start is always the earlier of the two answers' starts.
    fn choose(
        mode: SchedulingMode,
        queues: &[VecDeque<OpRequest>; 2],
        [conv, dest]: [Best; 2],
    ) -> Option<(Priority, usize, SimTime)> {
        let (class, (idx, start)) = match (conv, dest) {
            (None, None) => return None,
            (Some(c), None) => (Priority::Conventional, c),
            (None, Some(d)) => (Priority::Destage, d),
            (Some(c), Some(d)) => match mode.preferred() {
                Some(Priority::Conventional) if c.1 <= d.1 => (Priority::Conventional, c),
                Some(Priority::Conventional) => (Priority::Destage, d),
                Some(Priority::Destage) if d.1 <= c.1 => (Priority::Destage, d),
                Some(Priority::Destage) => (Priority::Conventional, c),
                None => {
                    // Neutral: earliest feasible start; tie-break by
                    // arrival order (FIFO across classes).
                    let c_arr = queues[0][c.0].arrival;
                    let d_arr = queues[1][d.0].arrival;
                    if (c.1, c_arr) <= (d.1, d_arr) {
                        (Priority::Conventional, c)
                    } else {
                        (Priority::Destage, d)
                    }
                }
            },
        };
        Some((class, idx, start))
    }

    /// The earliest start over every channel's kept answers, recomputing the
    /// ones a `submit` left stale.
    fn earliest(&self, array: &FlashArray) -> Option<SimTime> {
        if !self.current.get() {
            let window = Self::window(array);
            let mut earliest = None;
            for ch in 0..self.channels.len() {
                for slot in 0..CLASSES.len() {
                    let start = self.best(ch, slot, array, window).map(|(_, start)| start);
                    earliest = SimTime::earliest(earliest, start);
                }
            }
            self.earliest.set(earliest);
            self.current.set(true);
        }
        self.earliest.get()
    }

    /// Queue `slot` of channel `ch`'s best start: the kept answer, or a
    /// fresh scan that is kept from then on.
    fn best(&self, ch: usize, slot: usize, array: &FlashArray, window: usize) -> Best {
        let channel = &self.channels[ch];
        if let Some(best) = channel.kept[slot].get() {
            return best;
        }
        let q = &channel.queues[slot];
        if !q.is_empty() {
            self.window_visits.set(self.window_visits.get() + 1);
        }
        let best = Self::best_in_window(q, array, ch as u32, window);
        channel.kept[slot].set(Some(best));
        best
    }

    /// How deep into each class queue the scheduler looks for a request its
    /// die can take sooner.
    fn window(array: &FlashArray) -> usize {
        (4 * array.geometry().dies_per_channel as usize).max(8)
    }

    /// The invariants, checked in debug builds after every call that can
    /// move them: the queued count equals a recount of the queues, and,
    /// given the array, every kept answer equals a fresh scan and the kept
    /// earliest start is their minimum.
    fn check(&self, array: Option<&FlashArray>) {
        if !cfg!(debug_assertions) {
            return;
        }
        let recount: usize = self.channels.iter().map(ChannelQueues::len).sum();
        assert_eq!(self.queued, recount, "flash scheduler: queued count vs the queues");
        let Some(array) = array else { return };
        let window = Self::window(array);
        let mut earliest = None;
        for (ch, channel) in self.channels.iter().enumerate() {
            for (slot, q) in channel.queues.iter().enumerate() {
                let fresh = Self::best_in_window(q, array, ch as u32, window);
                if let Some(kept) = channel.kept[slot].get() {
                    assert_eq!(
                        kept, fresh,
                        "flash scheduler: kept answer of channel {ch} queue {slot} vs a fresh scan"
                    );
                }
                earliest = SimTime::earliest(earliest, fresh.map(|(_, start)| start));
            }
        }
        if self.current.get() {
            assert_eq!(
                self.earliest.get(),
                earliest,
                "flash scheduler: kept earliest start vs the channels'"
            );
        }
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
    ) -> Best {
        if q.is_empty() {
            return None;
        }
        let bus_free = array.bus_busy_until(channel);
        // The same for every program in the window.
        let xfer = array.timing().page_transfer(array.geometry().page_bytes);
        let mut best: Best = None;
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
            s.channels.iter().map(|c| c.queues[0].len() + c.queues[1].len()).sum()
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

    /// The scheduler before it kept its answers: every `pump` and
    /// `next_start_hint` rescans the window of every queue. The kept
    /// answers are held to it.
    struct Rescanning {
        mode: SchedulingMode,
        queues: Vec<[VecDeque<OpRequest>; 2]>,
    }

    impl Rescanning {
        fn submit(&mut self, req: OpRequest) {
            let q = &mut self.queues[req.kind.channel() as usize][req.class.slot()];
            let pos = q.partition_point(|r| r.arrival <= req.arrival);
            q.insert(pos, req);
        }

        fn drop_class(&mut self, class: Priority) {
            self.queues.iter_mut().for_each(|qs| qs[class.slot()].clear());
        }

        fn drop_all(&mut self) {
            self.queues.iter_mut().for_each(|qs| qs.iter_mut().for_each(VecDeque::clear));
        }

        fn scan(&self, array: &FlashArray, ch: usize) -> [Best; 2] {
            let window = ChannelScheduler::window(array);
            [0, 1].map(|slot| {
                ChannelScheduler::best_in_window(&self.queues[ch][slot], array, ch as u32, window)
            })
        }

        fn next_start_hint(&self, array: &FlashArray) -> Option<SimTime> {
            (0..self.queues.len()).flat_map(|ch| self.scan(array, ch)).flatten().map(|b| b.1).min()
        }

        fn pump(&mut self, array: &mut FlashArray, until: SimTime) -> Vec<Completion> {
            let mut done = Vec::new();
            for ch in 0..self.queues.len() {
                loop {
                    let best = self.scan(array, ch);
                    let Some((class, idx, start)) =
                        ChannelScheduler::choose(self.mode, &self.queues[ch], best)
                    else {
                        break;
                    };
                    if start > until {
                        break;
                    }
                    let req = self.queues[ch][class.slot()].remove(idx).unwrap();
                    let result = match req.kind {
                        OpKind::Program(p) => array.program(start, p),
                        OpKind::Read(p) => array.read(start, p),
                    };
                    let at = result.map_or(start, |o| o.grant.end);
                    done.push(Completion { id: req.id, class: req.class, at, result });
                }
            }
            done.sort_by_key(|c| c.at);
            done
        }
    }

    /// Random `submit`, `pump(until)`, `drop_class`, `drop_all` and
    /// `set_mode` on `geometry`, against the rescanning reference on an
    /// array of its own: every start hint and every pump's completions
    /// agree. Debug builds also check every kept answer against a fresh
    /// scan after each call. Returns how many requests completed.
    fn against_the_reference(geometry: FlashGeometry, timing: FlashTiming, seed: u64) -> usize {
        let mut rng = simkit::DetRng::new(seed);
        let mut ours_array = FlashArray::new(geometry, timing, ReliabilityConfig::perfect(), 1);
        let mut ref_array = ours_array.clone();
        let mut ours = ChannelScheduler::new(geometry.channels, SchedulingMode::Neutral);
        let mut reference = Rescanning {
            mode: SchedulingMode::Neutral,
            queues: (0..geometry.channels).map(|_| Default::default()).collect(),
        };
        // Two blocks per die, programmed in page order; reads go to pages
        // already submitted (an early read of one fails the same way on
        // both sides, as does a program a drop left out of order).
        let dies = geometry.total_dies() as usize;
        let mut next_page = vec![[0u32; 2]; dies];
        let pick = |rng: &mut simkit::DetRng| {
            if rng.chance(0.5) {
                Priority::Conventional
            } else {
                Priority::Destage
            }
        };
        let mut now = SimTime::ZERO;
        let mut completed = 0;
        for id in 0..2_000u64 {
            now += SimDuration::from_nanos(rng.uniform(0, 60_000));
            match rng.uniform(0, 99) {
                0..=59 => {
                    let die = rng.uniform(0, dies as u64 - 1) as usize;
                    let (ch, d) = (
                        die as u32 / geometry.dies_per_channel,
                        die as u32 % geometry.dies_per_channel,
                    );
                    let block = rng.uniform(0, 1) as usize;
                    let written = next_page[die][block];
                    let kind = if written > 0 && rng.chance(0.3) {
                        OpKind::Read(Ppa::new(
                            ch,
                            d,
                            block as u32,
                            rng.uniform(0, written as u64 - 1) as u32,
                        ))
                    } else if written < geometry.pages_per_block {
                        next_page[die][block] += 1;
                        OpKind::Program(Ppa::new(ch, d, block as u32, written))
                    } else {
                        continue;
                    };
                    // A firmware retry arrives before requests already queued.
                    let early =
                        SimDuration::from_nanos(rng.uniform(0, 1) * rng.uniform(0, 200_000));
                    let arrival = now - early;
                    let req = OpRequest { id, kind, arrival, class: pick(&mut rng) };
                    ours.submit(req);
                    reference.submit(req);
                }
                60..=89 => {
                    let until = now + SimDuration::from_nanos(rng.uniform(0, 400_000));
                    let done = ours.pump(&mut ours_array, until);
                    assert_eq!(done, reference.pump(&mut ref_array, until), "step {id}");
                    completed += done.len();
                }
                90..=93 => {
                    let class = pick(&mut rng);
                    ours.drop_class(class);
                    reference.drop_class(class);
                }
                94 => {
                    ours.drop_all();
                    reference.drop_all();
                }
                _ => {
                    let mode = [
                        SchedulingMode::Neutral,
                        SchedulingMode::DestagePriority,
                        SchedulingMode::ConventionalPriority,
                    ][rng.uniform(0, 2) as usize];
                    ours.set_mode(mode);
                    reference.mode = mode;
                }
            }
            assert_eq!(
                ours.next_start_hint(&ours_array),
                reference.next_start_hint(&ref_array),
                "step {id}"
            );
        }
        completed
    }

    #[test]
    fn kept_answers_match_a_rescan_on_the_tiny_and_default_geometry() {
        for seed in 0..6 {
            let tiny = against_the_reference(FlashGeometry::tiny(), FlashTiming::fast(), seed);
            let default =
                against_the_reference(FlashGeometry::default(), FlashTiming::default(), 100 + seed);
            assert!(tiny > 300 && default > 300, "seed {seed}: {tiny} / {default} completions");
        }
    }

    #[test]
    fn mode_change_takes_effect() {
        let mut s = ChannelScheduler::new(1, SchedulingMode::Neutral);
        assert_eq!(s.mode(), SchedulingMode::Neutral);
        s.set_mode(SchedulingMode::DestagePriority);
        assert_eq!(s.mode(), SchedulingMode::DestagePriority);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "flash scheduler: queued count vs the queues")]
    fn a_queued_count_off_the_queues_breaks_the_invariant() {
        let mut a = array();
        let mut s = ChannelScheduler::new(2, SchedulingMode::Neutral);
        for r in stripe_reqs(4, Priority::Conventional, SimDuration::ZERO, 0, 0) {
            s.submit(r);
        }
        // A test-only corruption: a request counted that no queue holds.
        s.queued += 1;
        s.pump(&mut a, SimTime::MAX);
    }
}
