//! The CMB module — the fast side's front end (paper §4.1, Fig. 5).
//!
//! Data arriving from the PCIe system is placed on an SRAM intake queue
//! (1), proactively dequeued into the backing-memory ring (2), and only
//! then — never before — the credit counter is incremented (3), which the
//! database reads via the control interface (4).
//!
//! The module keeps *content* as well as timing: the ring holds real bytes
//! so destaging, replication, and crash recovery are verifiable end to end.

use crate::config::CmbConfig;
use simkit::{Bandwidth, Bytes, Ends, Grant, SerialResource, SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};

/// Errors from CMB ingest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CmbError {
    /// The writer overran the advisory flow-control window (more bytes in
    /// flight than the intake queue holds). A well-behaved client (the
    /// `x_pwrite` implementation) never triggers this.
    QueueOverrun {
        /// Bytes in flight at the attempt.
        inflight: u64,
        /// The configured queue size.
        queue: u64,
    },
    /// The write would overwrite bytes not yet destaged (ring wrap onto the
    /// head).
    RingFull,
    /// The write targets an offset below the contiguous tail (replay or
    /// overlap — the device tolerates only forward, bounded reordering).
    Overlap {
        /// Attempted offset.
        offset: u64,
        /// Current contiguous tail.
        tail: u64,
    },
    /// The write landed too far beyond the contiguous tail: outside the
    /// device's bounded reordering window (paper §4.1).
    BeyondReorderWindow {
        /// Attempted offset.
        offset: u64,
        /// Current contiguous tail.
        tail: u64,
        /// The configured window.
        window: u64,
    },
}

impl std::fmt::Display for CmbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CmbError::QueueOverrun { inflight, queue } => {
                write!(f, "intake queue overrun: {inflight} bytes in flight, queue {queue}")
            }
            CmbError::RingFull => f.write_str("CMB ring full (destaging behind)"),
            CmbError::Overlap { offset, tail } => {
                write!(f, "write at {offset} below contiguous tail {tail}")
            }
            CmbError::BeyondReorderWindow { offset, tail, window } => {
                write!(
                    f,
                    "write at {offset} beyond the reorder window ({window} bytes past tail {tail})"
                )
            }
        }
    }
}

impl std::error::Error for CmbError {}

/// Observable CMB statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct CmbStats {
    /// Total bytes ingested into the ring.
    pub bytes_in: u64,
    /// Ingest chunks (TLP payloads) processed.
    pub chunks: u64,
    /// Chunks that arrived out of order and were held for gap fill.
    pub held_chunks: u64,
    /// High-water mark of in-flight (queued, not yet persisted) bytes.
    pub queue_high_water: u64,
}

/// Drains of whole chunks on the backing port: each of `ends` is a chunk of
/// `unit` bytes leaving the intake queue, and lifts the credit counter by
/// `unit`.
#[derive(Debug, Clone, Copy)]
struct Drains {
    ends: Ends,
    unit: u64,
}

/// The CMB module: an intake queue + persistent ring + credit counter. A
/// Villars device holds one.
#[derive(Debug)]
pub struct CmbModule {
    config: CmbConfig,
    /// Ring content; index = offset % size.
    ring: Vec<u8>,
    /// Monotonic byte offset: freed by destaging up to here.
    head: u64,
    /// Monotonic byte offset: persisted (credit counter) up to here, as of
    /// the last settle.
    credit: u64,
    /// Monotonic byte offset: contiguously received up to here (includes
    /// bytes still in the intake queue).
    tail: u64,
    /// Drains not yet settled, in push order: the credit climbs from
    /// `credit` through them to `tail`. Every one is a grant on the lane's
    /// one serial backing port, so they end in order: they settle from the
    /// front, a run part-way.
    pending: VecDeque<Drains>,
    /// Out-of-order runs, by offset, held until the gap below them fills:
    /// `(unit, bytes)`, whole chunks of `unit` bytes.
    held: BTreeMap<u64, (u64, Vec<u8>)>,
    stats: CmbStats,
}

impl CmbModule {
    /// An empty CMB lane.
    pub fn new(config: CmbConfig) -> Self {
        assert!(config.size > 0 && config.intake_queue_bytes > 0);
        CmbModule {
            ring: vec![0u8; config.size as usize],
            config,
            head: 0,
            credit: 0,
            tail: 0,
            pending: VecDeque::new(),
            held: BTreeMap::new(),
            stats: CmbStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CmbConfig {
        &self.config
    }

    /// Renegotiate the flow-control window (vendor command `SET_INTAKE_QUEUE`).
    /// Takes effect for subsequent ingests.
    pub fn set_intake_queue(&mut self, bytes: u64) {
        assert!(bytes > 0, "intake queue must be positive");
        self.config.intake_queue_bytes = bytes;
    }

    /// Statistics.
    pub fn stats(&self) -> CmbStats {
        self.stats
    }

    /// The contiguous write tail (monotonic offset).
    pub fn tail(&self) -> u64 {
        self.tail
    }

    /// The destage head (monotonic offset): everything below is freed.
    pub fn head(&self) -> u64 {
        self.head
    }

    /// Settle drain completions up to `now` and return the credit counter —
    /// what a control-interface read observes (paper Fig. 5 step 4).
    pub fn credit_at(&mut self, now: SimTime) -> u64 {
        self.settle(now, u64::MAX);
        self.check();
        self.credit
    }

    /// Settle the drains ended by `now` that lift the credit no higher than
    /// `upto`.
    fn settle(&mut self, now: SimTime, upto: u64) {
        while let Some(front) = self.pending.front_mut() {
            let due = front.ends.by(now).min(upto.saturating_sub(self.credit) / front.unit);
            self.credit += due * front.unit;
            if due < front.ends.count {
                front.ends = front.ends.skip(due);
                break;
            }
            self.pending.pop_front();
        }
    }

    /// Whether a write of `len` bytes at monotonic `offset` fits the ring
    /// without overrunning undestaged data (callers check before issuing
    /// TLPs so a full ring stalls the writer instead of tearing a burst).
    pub fn has_room(&self, offset: u64, len: u64) -> bool {
        // A stale handle may probe below the head after a reboot; such a
        // write "fits" here and is then rejected as an Overlap by ingest.
        (offset + len).saturating_sub(self.head) <= self.config.size
    }

    /// The earliest pending drain completion, if any — an event-loop hint
    /// so waiters on the credit counter can jump virtual time.
    pub fn next_pending(&self) -> Option<SimTime> {
        self.pending.front().map(|d| d.ends.first)
    }

    /// The instant the credit counter reaches `target`, from the drains
    /// already scheduled: the drain that lifts it to `target` or past. An
    /// instant at or before the last settle if the counter is already
    /// there; `None` while the bytes below `target` have not all been
    /// accepted (not written yet, or held above a gap).
    pub fn credit_reaches(&self, target: u64) -> Option<SimTime> {
        if self.credit >= target {
            return Some(SimTime::ZERO);
        }
        let mut below = self.credit;
        for d in &self.pending {
            let top = below + d.ends.count * d.unit;
            if target <= top {
                return Some(
                    d.ends.first + d.ends.period * ((target - below).div_ceil(d.unit) - 1),
                );
            }
            below = top;
        }
        None
    }

    /// Ingest one chunk arriving fully at `arrival` (the end of its TLP's
    /// service window) at monotonic ring `offset`: the one-chunk run of
    /// [`CmbModule::ingest_run`], on a port that `acquire` grants one drain
    /// at a time — one serial port per lane, so grants never end earlier.
    pub fn ingest(
        &mut self,
        arrival: SimTime,
        offset: u64,
        data: &[u8],
        mut acquire: impl FnMut(SimTime, u64) -> Grant,
    ) -> Result<(), CmbError> {
        if data.is_empty() {
            return Ok(());
        }
        let one = Ends { first: arrival, period: SimDuration::ZERO, count: 1 };
        let drain = |at, _, bytes, n| {
            // One chunk, or a held run released at once: back to back.
            let g = acquire(at, bytes);
            for _ in 1..n {
                acquire(at, bytes);
            }
            [Ends { first: g.end, period: g.end - g.start, count: n }, Ends::default()]
        };
        self.intake(one, offset, data, [Ends::default(); 2], drain).map_err(|(_, e)| e)
    }

    /// Ingest a *run*: `data` as `arrivals.count` equal chunks at monotonic
    /// `offset` on, chunk `k` arriving at `arrivals.first + k·period` — a
    /// burst of TLPs off one wire. The chunks drain through `port` at
    /// `bandwidth`, FIFO behind whatever holds it
    /// ([`SerialResource::acquire_run`]).
    ///
    /// The lane is left exactly as one [`CmbModule::ingest`] per chunk
    /// leaves it: in-order chunks drain as they come, bounded out-of-order
    /// ones are held and drain back to back when the gap below them fills,
    /// and credits only advance with the contiguous frontier — "the counter
    /// can only be incremented when contiguous chunks of data are formed"
    /// (§4.1). A run that overruns the intake queue, the ring or the reorder
    /// window part-way takes the chunks before the first that does; the
    /// error carries how many that is.
    pub fn ingest_run(
        &mut self,
        arrivals: Ends,
        offset: u64,
        data: &[u8],
        port: &mut SerialResource,
        bandwidth: Bandwidth,
    ) -> Result<(), (u64, CmbError)> {
        let unit = data.len() as u64 / arrivals.count;
        // The drains the whole run would get: the cut reads them (a lone
        // chunk has none ahead of it); the port is charged for the chunks
        // taken, whose drains are their prefix.
        let (Ends { first, period, count }, each) = (arrivals, bandwidth.transfer_time(unit));
        let quote = match count {
            1 => [Ends::default(); 2],
            _ => port.clone().acquire_run(first, period, each, count),
        };
        let drain = |at, every, bytes, n| {
            let service = if bytes == unit { each } else { bandwidth.transfer_time(bytes) };
            port.acquire_run(at, every, service, n)
        };
        self.intake(arrivals, offset, data, quote, drain)
    }

    /// [`CmbModule::ingest_run`] on a port that `drain(at, period, bytes,
    /// n)` charges, `quote` the drains the whole run would get.
    fn intake(
        &mut self,
        arrivals: Ends,
        offset: u64,
        data: &[u8],
        quote: [Ends; 2],
        mut drain: impl FnMut(SimTime, SimDuration, u64, u64) -> [Ends; 2],
    ) -> Result<(), (u64, CmbError)> {
        let Ends { first, period, count: n } = arrivals;
        let unit = data.len() as u64 / n;
        assert!(unit > 0 && unit * n == data.len() as u64, "a run is whole chunks, at least one");
        let arrival = |k: u64| first + period * k;
        // Each chunk meets the walk's checks in its order — overlap, reorder
        // window, intake queue, ring — and the run stops at the first chunk
        // that fails one.
        if offset < self.tail {
            return Err((0, CmbError::Overlap { offset, tail: self.tail }));
        }
        let window = self.config.reorder_window_bytes;
        let in_window = match (self.tail + window).checked_sub(offset) {
            _ if offset == self.tail => n, // each lands at the tail it finds
            Some(room) => room / unit + 1,
            None => 0,
        };
        if in_window == 0 {
            let tail = self.tail;
            return Err((0, CmbError::BeyondReorderWindow { offset, tail, window }));
        }
        self.settle(first, u64::MAX);
        // In order, the tail grows with every chunk and the chunks drain;
        // above a gap both wait.
        let (grow, own) = match offset == self.tail {
            true => (unit, quote),
            false => (0, [Ends::default(); 2]),
        };
        let queue = self.config.intake_queue_bytes;
        // Bytes in flight at chunk `k`, itself counted: what the walk reads.
        let inflight = |k: u64| {
            let tail = self.tail + k * grow;
            tail + unit - self.credit_by(arrival(k), &own, unit, tail)
        };
        // The first chunk to find more than `limit` bytes in flight, itself
        // counted; `n` if none does. Chunk `k` does iff the drain that lifts
        // the credit to `tail + k·grow + unit − limit` has not ended by its
        // arrival: within one run of drains a floor-linear condition on `k`
        // that [`first_above`] solves without visiting the chunks. With
        // nothing older pending and each drain ending before the next chunk
        // arrives, every chunk finds only itself in flight.
        let paced = grow > 0 && self.pending.is_empty() && own[0].count == 0;
        let over = |limit: u64| {
            // Each counts itself; none can if the last would not at the
            // settled credit.
            let last = self.tail + (n - 1) * grow + unit - self.credit;
            if limit < unit || paced || last <= limit {
                return if limit < unit { 0 } else { n };
            }
            let wide = |v: u64| i128::from(v);
            let target = wide(self.tail + unit) - wide(limit);
            let mut below = wide(self.credit);
            let own = own.iter().map(|&ends| Drains { ends, unit });
            for d in self.pending.iter().copied().chain(own) {
                if below >= target + wide((n - 1) * grow) {
                    break; // every target is reached below this run
                }
                let top = below + wide(d.ends.count * d.unit);
                // The chunks whose target lies in (below, top].
                let (lo, hi) = match wide(grow) {
                    0 if target > below && target <= top => (0, wide(n)),
                    0 => (0, 0),
                    g => ((below - target).div_euclid(g) + 1, (top - target).div_euclid(g) + 1),
                };
                // Drain ⌈(target_k − below)/u⌉ − 1 of the run lifts it there.
                let (u, p) = (wide(d.unit), wide(d.ends.period.as_nanos()));
                let h = [-wide(period.as_nanos()), p, wide(grow), target - below + u - 1, u];
                let late = wide(first.as_nanos()) - wide(d.ends.first.as_nanos()) + p;
                if let Some(k) = first_above(h, late, lo.max(0), hi.min(wide(n))) {
                    return k as u64;
                }
                below = top;
            }
            n
        };
        let overrun = over(queue);
        let in_ring = (self.head + self.config.size).saturating_sub(offset) / unit;
        let taken = n.min(in_window).min(overrun).min(in_ring);
        // The most bytes in flight a taken chunk found, counting itself: the
        // first one's (against the credit just settled), the last one's or,
        // between them, at most `queue` — found by bisection on the count.
        let mut high = self.stats.queue_high_water;
        if taken > 0 {
            high = high.max(self.tail + unit - self.credit);
        }
        if taken > 1 && !paced {
            high = high.max(inflight(taken - 1));
            if taken > 2 && over(high) < taken {
                let mut low = high;
                high = queue;
                while high - low > 1 {
                    let mid = low + (high - low) / 2;
                    if over(mid) < taken {
                        low = mid;
                    } else {
                        high = mid;
                    }
                }
            }
        }
        self.stats.queue_high_water = high;

        let bytes = &data[..(taken * unit) as usize];
        if taken > 0 && grow == 0 {
            self.stats.held_chunks += taken;
            self.held.insert(offset, (unit, bytes.to_vec()));
        } else if taken > 0 {
            self.append_to_ring(bytes);
            self.stats.chunks += taken;
            self.push(drain(first, period, unit, taken), unit);
        }
        // The walk last read the counter at the last chunk it checked past
        // the reorder window, before that chunk's own drain was queued.
        let beyond = taken >= in_window && taken < n;
        let seen = if taken == n || beyond { taken - 1 } else { taken };
        self.settle(arrival(seen), if grow == 0 { u64::MAX } else { offset + seen * unit });
        let error = if taken == n {
            // The last chunk may close the gap below held runs: they drain
            // now, back to back.
            while self.held.first_key_value().is_some_and(|(&at, _)| at == self.tail) {
                let (_, (unit, bytes)) = self.held.pop_first().expect("just peeked");
                let count = bytes.len() as u64 / unit;
                self.append_to_ring(&bytes);
                self.stats.chunks += count;
                self.push(drain(arrival(n - 1), SimDuration::ZERO, unit, count), unit);
            }
            None
        } else if beyond {
            let (offset, tail) = (offset + taken * unit, self.tail);
            Some(CmbError::BeyondReorderWindow { offset, tail, window })
        } else if taken == overrun {
            Some(CmbError::QueueOverrun { inflight: self.tail - self.credit + unit, queue })
        } else {
            Some(CmbError::RingFull)
        };
        self.check();
        error.map_or(Ok(()), |e| Err((taken, e)))
    }

    /// The credit a read at `at` finds — `own` drains of `unit`-byte chunks
    /// after the pending ones — counting none that would lift it past
    /// `upto`.
    fn credit_by(&self, at: SimTime, own: &[Ends; 2], unit: u64, upto: u64) -> u64 {
        let own = own.iter().map(|&ends| Drains { ends, unit });
        let mut credit = self.credit;
        for d in self.pending.iter().copied().chain(own) {
            let due = d.ends.by(at).min(upto.saturating_sub(credit) / d.unit);
            credit += due * d.unit;
            if due < d.ends.count {
                break;
            }
        }
        credit
    }

    /// Queue the drains of a run of `unit`-byte chunks.
    fn push(&mut self, runs: [Ends; 2], unit: u64) {
        for ends in runs.into_iter().filter(|e| e.count > 0) {
            match self.pending.back_mut() {
                // Drains queued behind the last ones on the same cadence
                // extend their run: a backlog stays one entry.
                Some(last)
                    if last.unit == unit
                        && last.ends.period == ends.period
                        && ends.first == last.ends.last() + ends.period =>
                {
                    last.ends.count += ends.count
                }
                _ => self.pending.push_back(Drains { ends, unit }),
            }
        }
    }

    /// Copy `data` into the ring at the tail and advance the tail past it.
    fn append_to_ring(&mut self, data: &[u8]) {
        // Two-segment ring copy (the ring-capacity check guarantees
        // `data.len() <= size`, so the write wraps at most once).
        let size = self.config.size as usize;
        let start = (self.tail % size as u64) as usize;
        let first = data.len().min(size - start);
        self.ring[start..start + first].copy_from_slice(&data[..first]);
        self.ring[..data.len() - first].copy_from_slice(&data[first..]);
        self.tail += data.len() as u64;
        self.stats.bytes_in += data.len() as u64;
    }

    /// The lane's invariants, checked in debug builds after every call that
    /// moves a counter: `head ≤ credit ≤ tail`; pending drains non-empty and
    /// ordered, climbing no higher than the tail; held runs above the tail,
    /// inside the reorder window.
    fn check(&self) {
        if cfg!(debug_assertions) {
            let (head, credit, tail) = (self.head, self.credit, self.tail);
            let mut climb = (credit, SimTime::ZERO);
            let drains = self.pending.iter().all(|d| {
                let ordered = d.ends.count > 0 && d.ends.first >= climb.1;
                climb = (climb.0 + d.ends.count * d.unit, d.ends.last());
                ordered
            });
            let window = tail + self.config.reorder_window_bytes;
            let held = self.held.keys().all(|&at| at > tail && at <= window);
            assert!(
                head <= credit && credit <= tail && drains && climb.0 <= tail && held,
                "CMB lane: head {head}, credit {credit}, tail {tail}, drains {:?}, held at {:?}",
                self.pending,
                self.held.keys().collect::<Vec<_>>()
            );
        }
    }
    /// Read `len` bytes of ring content starting at monotonic `offset`
    /// (destage module / verification). Panics on a read outside the live
    /// ring window `[head, tail)`, naming the ring's state: head, credit,
    /// tail, pending drains and held chunks.
    pub fn content(&self, offset: u64, len: usize) -> Vec<u8> {
        let (first, rest) = self.slices(offset, len);
        [first, rest].concat()
    }

    /// Live ring content `[offset, offset + len)` as one shared buffer of
    /// `padded_len` bytes, zero-filled past `len` — a destage page with its
    /// filler, copied out of the ring at most once. When `reuse` already
    /// holds exactly those bytes (the content, then zeros, `padded_len` in
    /// all) it is returned instead, a reference-count bump: another replica
    /// destaged the same page. Panics like [`CmbModule::content`] on an
    /// out-of-window read.
    pub fn content_padded(
        &self,
        offset: u64,
        len: usize,
        padded_len: usize,
        reuse: Option<&Bytes>,
    ) -> Bytes {
        let (first, rest) = self.slices(offset, len);
        let equal = |page: &&Bytes| {
            page.len() == padded_len
                && page[..first.len()] == *first
                && page[first.len()..len] == *rest
                && page[len..].iter().all(|&z| z == 0)
        };
        if let Some(page) = reuse.filter(equal) {
            return page.clone();
        }
        if rest.is_empty() && len == padded_len {
            // A full page in one piece: nothing to zero, nothing to join.
            return Bytes::copy_from_slice(first);
        }
        Bytes::concat_zero_padded(&[first, rest], padded_len)
    }

    /// Borrow live ring content `[offset, offset + len)`: two slices, the
    /// second non-empty only when the range wraps the end of the ring.
    fn slices(&self, offset: u64, len: usize) -> (&[u8], &[u8]) {
        let (head, tail) = (self.head, self.tail);
        if offset < head || offset + len as u64 > tail {
            panic!(
                "invariant violated at CMB ring [t={}us, head={head}, credit={}, tail={tail}, \
                 pending_drains={}, held_chunks={}; content read outside live ring: \
                 [{offset}, +{len}) vs [{head}, {tail})]",
                self.pending.back().map_or(SimTime::ZERO, |d| d.ends.last()).as_micros_f64(),
                self.credit,
                self.pending.len(),
                self.held.values().map(|(u, b)| b.len() as u64 / u).sum::<u64>()
            );
        }
        let size = self.config.size as usize;
        let start = (offset % size as u64) as usize;
        let first = len.min(size - start);
        (&self.ring[start..start + first], &self.ring[..len - first])
    }

    /// Advance the destage head: bytes below `new_head` are freed for
    /// reuse. Called by the Destage module as pages land on NAND.
    pub fn advance_head(&mut self, new_head: u64) {
        assert!(new_head >= self.head, "head must not move backwards");
        assert!(new_head <= self.tail, "head cannot pass the write tail");
        self.head = new_head;
        self.check();
    }

    /// Crash protocol (paper §4.1): drain the intake queue on residual
    /// power, stopping at the first gap. Returns the contiguous frontier —
    /// everything in `[head, frontier)` is destageable; held chunks beyond
    /// a gap are abandoned.
    pub fn crash_drain(&mut self) -> u64 {
        // All pending drains complete on supercap power.
        self.pending.clear();
        self.credit = self.tail;
        // Held chunks above the frontier are lost (the gap never filled).
        self.held.clear();
        self.check();
        self.tail
    }

    /// Reset after a reboot: ring content is gone (destaged or lost), but
    /// the monotonic log-offset space continues from `offset` — the ring
    /// head/tail are device metadata that survives power loss, so post-
    /// reboot appends extend the same log the destage ring holds.
    pub fn reset_to(&mut self, offset: u64) {
        self.ring.fill(0);
        self.head = offset;
        self.credit = offset;
        self.tail = offset;
        self.pending.clear();
        self.held.clear();
        self.check();
    }

    /// Entries in the pending-drain queue (each a run of drains).
    #[cfg(test)]
    pub(crate) fn pending_runs(&self) -> usize {
        self.pending.len()
    }

    /// The credit counter as settled so far, without advancing drains (a
    /// read-only view for telemetry; [`CmbModule::credit_at`] is the
    /// authoritative time-advancing read).
    pub fn credit_settled(&self) -> u64 {
        self.credit
    }
}

impl simkit::Instrument for CmbModule {
    fn instrument(&self, out: &mut simkit::Scope<'_>) {
        out.counter("bytes_in", self.stats.bytes_in);
        out.counter("chunks", self.stats.chunks);
        out.counter("held_chunks", self.stats.held_chunks);
        out.gauge("queue_high_water", self.stats.queue_high_water as f64);
        // Monotonic ring offsets: counters, so a window diff gives the
        // bytes that moved through each stage during the window.
        out.counter("tail_offset", self.tail);
        out.counter("credit_offset", self.credit);
        out.counter("head_offset", self.head);
    }
}

/// The least `x` in `lo..hi` with `a·x + b·⌊(c·x + d)/e⌋ > t` (`c ≥ 0`,
/// `e > 0`). Whole multiples of `e` come out of `c` first, so the floor
/// rises by at most one a step. Where the rest falls inside a level of the
/// floor only a level's first point can be the answer, where it rises only
/// a level's last point can be the first above `t` — the same question on
/// the levels, with `c` and `e` swapped as in Euclid's algorithm: O(log)
/// steps, none per `x`.
fn first_above([a, b, c, d, e]: [i128; 5], t: i128, lo: i128, hi: i128) -> Option<i128> {
    let (a, c) = (a + b * c.div_euclid(e), c.rem_euclid(e));
    let level = |x: i128| (c * x + d).div_euclid(e);
    if lo >= hi || a * lo + b * level(lo) > t {
        return (lo < hi).then_some(lo);
    }
    if c == 0 || b == 0 {
        // A straight line.
        let x = (a > 0).then(|| (t - b * level(lo)).div_euclid(a) + 1)?;
        return (x < hi).then_some(x);
    }
    // The first `x` of level `j`.
    let start = |j: i128| (e * j - d + c - 1).div_euclid(c);
    if a <= 0 {
        let j = first_above([b, a, e, c - 1 - d, c], t, level(lo) + 1, level(hi - 1) + 1);
        return j.filter(|_| b > 0).map(start);
    }
    // The first level whose last point is above `t` (else the last level),
    // then its first point above `t`.
    let last = level(hi - 1);
    let j = first_above([b, a, e, e + c - 1 - d, c], t + a, level(lo), last).unwrap_or(last);
    let x = start(j).max(lo).max((t - b * j).div_euclid(a) + 1);
    (x < hi).then_some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(queue: u64, size: u64) -> CmbConfig {
        CmbConfig { intake_queue_bytes: queue, size, ..CmbConfig::sram() }
    }

    /// A 1 GB/s dedicated backing port for tests.
    struct Port {
        res: SerialResource,
        bw: Bandwidth,
    }

    impl Port {
        fn new() -> Self {
            Port { res: SerialResource::new(), bw: Bandwidth::gbytes_per_sec(1.0) }
        }
        fn acquire(&mut self, now: SimTime, bytes: u64) -> Grant {
            self.res.acquire(now, self.bw.transfer_time(bytes))
        }
    }

    #[test]
    fn credit_advances_only_after_drain() {
        let mut cmb = CmbModule::new(cfg(4096, 64 << 10));
        let mut port = Port::new();
        cmb.ingest(SimTime::ZERO, 0, &[1u8; 1000], |t, b| port.acquire(t, b))
            .expect("in-window CMB write rejected");
        // 1000 bytes at 1 GB/s = 1000ns drain.
        assert_eq!(cmb.credit_at(SimTime::from_nanos(500)), 0);
        assert_eq!(cmb.credit_at(SimTime::from_nanos(1000)), 1000);
        assert_eq!(cmb.stats().bytes_in, 1000);
    }

    #[test]
    fn content_round_trips_through_ring() {
        let mut cmb = CmbModule::new(cfg(4096, 8192));
        let mut port = Port::new();
        let payload: Vec<u8> = (0..100u8).collect();
        cmb.ingest(SimTime::ZERO, 0, &payload, |t, b| port.acquire(t, b))
            .expect("in-window CMB write rejected");
        assert_eq!(cmb.content(0, 100), payload);
        assert_eq!(cmb.content(10, 5), &payload[10..15]);
    }

    #[test]
    fn queue_overrun_detected() {
        let mut cmb = CmbModule::new(cfg(1024, 64 << 10));
        let mut port = Port::new();
        cmb.ingest(SimTime::ZERO, 0, &[0u8; 1024], |t, b| port.acquire(t, b))
            .expect("in-window CMB write rejected");
        // Nothing drained yet at t=0: the next byte overruns.
        let err = cmb.ingest(SimTime::ZERO, 1024, &[0u8; 1], |t, b| port.acquire(t, b));
        assert!(matches!(err, Err(CmbError::QueueOverrun { .. })));
        // After the drain completes, there is room again.
        let later = SimTime::from_micros(10);
        cmb.ingest(later, 1024, &[0u8; 1024], |t, b| port.acquire(t, b))
            .expect("in-window CMB write rejected");
    }

    #[test]
    fn ring_full_until_head_advances() {
        let mut cmb = CmbModule::new(cfg(4096, 4096));
        let mut port = Port::new();
        let t = SimTime::from_micros(100);
        cmb.ingest(SimTime::ZERO, 0, &[7u8; 4096], |t2, b| port.acquire(t2, b))
            .expect("in-window CMB write rejected");
        let err = cmb.ingest(t, 4096, &[8u8; 64], |t2, b| port.acquire(t2, b));
        assert_eq!(err, Err(CmbError::RingFull));
        cmb.advance_head(1024);
        cmb.ingest(t, 4096, &[8u8; 64], |t2, b| port.acquire(t2, b))
            .expect("in-window CMB write rejected");
        assert_eq!(cmb.content(4096, 64), vec![8u8; 64]);
    }

    #[test]
    fn out_of_order_chunks_hold_credits_until_gap_fills() {
        let mut cmb = CmbModule::new(cfg(4096, 64 << 10));
        let mut port = Port::new();
        let t = SimTime::ZERO;
        // Chunk at [100, 200) arrives before [0, 100).
        cmb.ingest(t, 100, &[2u8; 100], |t2, b| port.acquire(t2, b))
            .expect("in-window CMB write rejected");
        let settle = SimTime::from_micros(50);
        assert_eq!(cmb.credit_at(settle), 0, "gap blocks credit");
        assert_eq!(cmb.stats().held_chunks, 1);
        cmb.ingest(t, 0, &[1u8; 100], |t2, b| port.acquire(t2, b))
            .expect("in-window CMB write rejected");
        assert_eq!(cmb.credit_at(settle), 200, "gap filled, both chunks persist");
        assert_eq!(cmb.content(0, 100), vec![1u8; 100]);
        assert_eq!(cmb.content(100, 100), vec![2u8; 100]);
    }

    #[test]
    fn reorder_window_is_bounded() {
        let mut config = cfg(64 << 10, 256 << 10);
        config.reorder_window_bytes = 1024;
        let mut cmb = CmbModule::new(config);
        let mut port = Port::new();
        // Within the window: held.
        cmb.ingest(SimTime::ZERO, 512, &[1u8; 64], |t, b| port.acquire(t, b))
            .expect("in-window CMB write rejected");
        // Beyond the window: rejected.
        let err = cmb.ingest(SimTime::ZERO, 2048, &[1u8; 64], |t, b| port.acquire(t, b));
        assert!(matches!(err, Err(CmbError::BeyondReorderWindow { .. })));
    }

    #[test]
    fn overlap_rejected() {
        let mut cmb = CmbModule::new(cfg(4096, 8192));
        let mut port = Port::new();
        cmb.ingest(SimTime::ZERO, 0, &[1u8; 100], |t, b| port.acquire(t, b))
            .expect("in-window CMB write rejected");
        let err = cmb.ingest(SimTime::ZERO, 50, &[2u8; 10], |t, b| port.acquire(t, b));
        assert!(matches!(err, Err(CmbError::Overlap { .. })));
    }

    #[test]
    fn crash_drain_stops_at_gap() {
        let mut cmb = CmbModule::new(cfg(8192, 64 << 10));
        let mut port = Port::new();
        cmb.ingest(SimTime::ZERO, 0, &[1u8; 500], |t, b| port.acquire(t, b))
            .expect("in-window CMB write rejected");
        // Out-of-order chunk leaves a gap at [500, 600).
        cmb.ingest(SimTime::ZERO, 600, &[3u8; 100], |t, b| port.acquire(t, b))
            .expect("in-window CMB write rejected");
        let frontier = cmb.crash_drain();
        assert_eq!(frontier, 500, "destage stops at the gap");
    }

    #[test]
    fn credit_reaches_names_the_drain_that_covers_the_target() {
        let mut cmb = CmbModule::new(cfg(8192, 64 << 10));
        let mut port = Port::new();
        // Drains end at 1000 ns (credit 1000) and 1500 ns (credit 1500).
        cmb.ingest(SimTime::ZERO, 0, &[1u8; 1000], |t, b| port.acquire(t, b))
            .expect("in-window CMB write rejected");
        cmb.ingest(SimTime::ZERO, 1000, &[1u8; 500], |t, b| port.acquire(t, b))
            .expect("in-window CMB write rejected");
        // A chunk above a gap is held: its bytes have no drain yet.
        cmb.ingest(SimTime::ZERO, 1600, &[1u8; 100], |t, b| port.acquire(t, b))
            .expect("in-window CMB write rejected");
        assert_eq!(cmb.credit_reaches(1), Some(SimTime::from_nanos(1000)));
        assert_eq!(cmb.credit_reaches(1000), Some(SimTime::from_nanos(1000)));
        assert_eq!(cmb.credit_reaches(1001), Some(SimTime::from_nanos(1500)));
        assert_eq!(cmb.credit_reaches(1501), None);
        assert_eq!(cmb.credit_reaches(1700), None);
        // Agrees with the settling read on both sides of each drain.
        for (ns, target) in [(999, 1000), (1000, 1000), (1499, 1500), (1500, 1500)] {
            let reached = cmb.credit_reaches(target).expect("drain scheduled");
            let now = SimTime::from_nanos(ns);
            assert_eq!(reached <= now, cmb.credit_at(now) >= target, "{ns} ns, target {target}");
        }
        assert_eq!(cmb.credit_reaches(1500), Some(SimTime::ZERO), "already there");
    }

    #[test]
    fn head_cannot_regress_or_pass_tail() {
        let mut cmb = CmbModule::new(cfg(4096, 8192));
        let mut port = Port::new();
        cmb.ingest(SimTime::ZERO, 0, &[0u8; 100], |t, b| port.acquire(t, b))
            .expect("in-window CMB write rejected");
        cmb.credit_at(SimTime::from_micros(1));
        cmb.advance_head(50);
        let r1 = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut c = CmbModule::new(cfg(4096, 8192));
            c.advance_head(1);
        }));
        assert!(r1.is_err(), "head past tail must panic");
    }

    #[test]
    fn inflight_and_undestaged_accounting() {
        let mut cmb = CmbModule::new(cfg(4096, 64 << 10));
        let mut port = Port::new();
        cmb.ingest(SimTime::ZERO, 0, &[0u8; 2000], |t, b| port.acquire(t, b))
            .expect("in-window CMB write rejected");
        // In flight: received, not yet persisted; undestaged: [head, credit).
        assert_eq!(cmb.tail() - cmb.credit_at(SimTime::ZERO), 2000);
        let after = SimTime::from_micros(10);
        assert_eq!(cmb.tail() - cmb.credit_at(after), 0);
        assert_eq!(cmb.credit_at(after) - cmb.head(), 2000);
        cmb.advance_head(1500);
        assert_eq!(cmb.credit_at(after) - cmb.head(), 500);
    }

    #[test]
    fn wrap_around_content_is_correct() {
        let size = 256u64;
        let mut cmb = CmbModule::new(cfg(4096, size));
        let mut port = Port::new();
        let mut t = SimTime::ZERO;
        // Fill, destage, and wrap several times.
        for round in 0..5u64 {
            let payload = vec![round as u8 + 1; 200];
            cmb.ingest(t, round * 200, &payload, |t2, b| port.acquire(t2, b))
                .expect("in-window CMB write rejected");
            t += SimDuration::from_micros(10);
            cmb.credit_at(t);
            cmb.advance_head((round + 1) * 200);
        }
        // Last round's content readable at its monotonic offset... head==tail
        // now, so re-ingest and verify.
        cmb.ingest(t, 1000, &[9u8; 100], |t2, b| port.acquire(t2, b))
            .expect("in-window CMB write rejected");
        assert_eq!(cmb.content(1000, 100), vec![9u8; 100]);
    }

    #[test]
    fn padded_content_wraps_the_ring_and_zero_fills() {
        let size = 256u64;
        let mut cmb = CmbModule::new(cfg(4096, size));
        let mut port = Port::new();
        cmb.ingest(SimTime::ZERO, 0, &[1u8; 200], |t, b| port.acquire(t, b))
            .expect("in-window CMB write rejected");
        cmb.credit_at(SimTime::from_micros(10));
        cmb.advance_head(200);
        // [200, 300) wraps the 256-byte ring after 56 bytes.
        let payload: Vec<u8> = (0..100u8).collect();
        cmb.ingest(SimTime::from_micros(10), 200, &payload, |t, b| port.acquire(t, b))
            .expect("in-window CMB write rejected");
        let page = cmb.content_padded(200, 100, 128, None);
        assert_eq!(&page[..100], &payload[..]);
        assert_eq!(&page[100..], &[0u8; 28][..]);
        assert_eq!(cmb.content_padded(210, 20, 20, None), cmb.content(210, 20));
        // A byte-equal page built elsewhere is shared, not copied; both
        // slices and the filler are compared.
        let shared = cmb.content_padded(200, 100, 128, Some(&page));
        assert_eq!(shared.as_ptr(), page.as_ptr());
        // Anything else is copied: other content, other filler, other length.
        let mut other = page.to_vec();
        other[99] ^= 1;
        let mut dirty_filler = page.to_vec();
        dirty_filler[127] = 7;
        for candidate in [other, dirty_filler, page[..120].to_vec(), [&page[..], &[0]].concat()] {
            let candidate = Bytes::from(candidate);
            let copy = cmb.content_padded(200, 100, 128, Some(&candidate));
            assert_ne!(copy.as_ptr(), candidate.as_ptr());
            assert_eq!(copy, page);
        }
    }

    /// A ring holding `[50, 100)`: 100 bytes written and credited, the
    /// first 50 destaged.
    fn ring_with_head_at_50() -> CmbModule {
        let mut cmb = CmbModule::new(cfg(4096, 8192));
        let mut port = Port::new();
        cmb.ingest(SimTime::ZERO, 0, &[1u8; 100], |t, b| port.acquire(t, b))
            .expect("in-window CMB write rejected");
        cmb.credit_at(SimTime::from_micros(1));
        cmb.advance_head(50);
        cmb
    }

    /// Beyond the tail (unwritten bytes) the read panics with the ring's
    /// state; in-window reads still work.
    #[test]
    fn out_of_window_content_read_is_a_structured_error() {
        let cmb = ring_with_head_at_50();
        let read = std::panic::AssertUnwindSafe(|| cmb.content(90, 20));
        let panic = std::panic::catch_unwind(read).expect_err("a read past the tail panics");
        let msg = panic.downcast_ref::<String>().expect("a formatted panic message");
        assert!(msg.contains("CMB ring"), "{msg}");
        assert!(msg.contains("head=50, credit=100, tail=100"), "{msg}");
        assert!(msg.contains("[90, +20) vs [50, 100)"), "{msg}");
        assert_eq!(cmb.content(50, 50), vec![1u8; 50]);
    }

    /// Below the head: freed bytes. The message names the ring's state.
    #[test]
    #[should_panic(expected = "invariant violated at CMB ring [t=0us, head=50, credit=100, \
                               tail=100, pending_drains=0, held_chunks=0; content read \
                               outside live ring: [0, +10) vs [50, 100)]")]
    fn a_content_read_below_the_head_names_the_ring_state() {
        ring_with_head_at_50().content(0, 10);
    }

    #[test]
    fn reset_clears_state() {
        let mut cmb = CmbModule::new(cfg(4096, 8192));
        let mut port = Port::new();
        cmb.ingest(SimTime::ZERO, 0, &[1u8; 100], |t, b| port.acquire(t, b))
            .expect("in-window CMB write rejected");
        cmb.reset_to(0);
        assert_eq!(cmb.tail(), 0);
        assert_eq!(cmb.head(), 0);
        assert_eq!(cmb.credit_at(SimTime::from_secs(1)), 0);
    }

    /// The intake as it was before runs, kept as the reference: one chunk
    /// at a time, checked, held or accepted, each drained by its own grant.
    impl CmbModule {
        /// One [`CmbModule::ingest_walk`] per chunk of a run, on the chunk's
        /// own arrival instant: what [`CmbModule::ingest_run`] stands for.
        fn walk_run(
            &mut self,
            first: SimTime,
            period: SimDuration,
            offset: u64,
            data: &[u8],
            unit: u64,
            mut acquire: impl FnMut(SimTime, u64) -> Grant,
        ) -> Result<(), (u64, CmbError)> {
            for (k, chunk) in data.chunks(unit as usize).enumerate() {
                let k = k as u64;
                self.ingest_walk(first + period * k, offset + k * unit, chunk, &mut acquire)
                    .map_err(|e| (k, e))?;
            }
            Ok(())
        }

        fn ingest_walk(
            &mut self,
            arrival: SimTime,
            offset: u64,
            data: &[u8],
            acquire: &mut impl FnMut(SimTime, u64) -> Grant,
        ) -> Result<(), CmbError> {
            let len = data.len() as u64;
            if offset < self.tail {
                return Err(CmbError::Overlap { offset, tail: self.tail });
            }
            let window = self.config.reorder_window_bytes;
            if offset > self.tail + window {
                return Err(CmbError::BeyondReorderWindow { offset, tail: self.tail, window });
            }
            let inflight = (self.tail - self.credit_at(arrival)) + len;
            let queue = self.config.intake_queue_bytes;
            if inflight > queue {
                return Err(CmbError::QueueOverrun { inflight, queue });
            }
            if offset + len - self.head > self.config.size {
                return Err(CmbError::RingFull);
            }
            self.stats.queue_high_water = self.stats.queue_high_water.max(inflight);
            if offset > self.tail {
                self.stats.held_chunks += 1;
                self.held.insert(offset, (len, data.to_vec()));
                return Ok(());
            }
            self.accept_one(arrival, data, acquire);
            while self.held.first_key_value().is_some_and(|(&at, _)| at == self.tail) {
                let (_, (unit, bytes)) = self.held.pop_first().expect("just peeked");
                for chunk in bytes.chunks(unit as usize) {
                    self.accept_one(arrival, chunk, acquire);
                }
            }
            Ok(())
        }

        fn accept_one(
            &mut self,
            arrival: SimTime,
            data: &[u8],
            acquire: &mut impl FnMut(SimTime, u64) -> Grant,
        ) {
            self.append_to_ring(data);
            self.stats.chunks += 1;
            let g = acquire(arrival, data.len() as u64);
            let ends = Ends { first: g.end, period: SimDuration::ZERO, count: 1 };
            self.push([ends, Ends::default()], data.len() as u64);
        }
    }

    /// One seeded situation a run can arrive in.
    #[derive(Debug, Clone, Copy)]
    struct RunCase {
        unit: u64,
        n: u64,
        queue: u64,
        size: u64,
        /// Bytes ingested (and then destaged) before the run, so the run
        /// starts somewhere inside the ring.
        pre: u64,
        /// A run of `(unit, chunks, period ns)` ingested after them, its
        /// drains possibly still pending when this one arrives.
        prior: Option<(u64, u64, u64)>,
        prior_first_ns: u64,
        /// A 24-byte chunk parked this far above where the run will end.
        held: Option<u64>,
        /// The run starts this far above the tail.
        gap: u64,
        /// The lane's reorder window.
        window: u64,
        /// Port bandwidth in bytes per microsecond (1000 = 1 GB/s).
        port_bytes_per_us: u64,
        /// The port is taken from t = 0 for this long before the run.
        port_busy_ns: u64,
        first_ns: u64,
        period_ns: u64,
    }

    impl RunCase {
        fn prior_len(&self) -> u64 {
            self.prior.map_or(0, |(unit, n, _)| unit * n)
        }

        fn offset(&self) -> u64 {
            self.pre + self.prior_len() + self.gap
        }
    }

    /// Build the lane and port of `case`, up to the instant the run
    /// arrives; its prior run taken as a run or walked.
    fn stage(case: &RunCase, as_run: bool) -> (CmbModule, Port) {
        let config = CmbConfig { reorder_window_bytes: case.window, ..cfg(case.queue, case.size) };
        let mut cmb = CmbModule::new(config);
        let mut port = Port {
            res: SerialResource::new(),
            bw: Bandwidth::gbytes_per_sec(case.port_bytes_per_us as f64 / 1000.0),
        };
        if let Some(above) = case.held {
            // Parked first (it counts against nothing yet).
            let at = case.offset() + case.unit * case.n + above;
            cmb.ingest(SimTime::ZERO, at, &[0xEE; 24], |t, b| port.acquire(t, b))
                .expect("staged held chunk rejected");
        }
        if case.pre > 0 {
            let pattern: Vec<u8> = (0..case.pre).map(|i| (i % 251) as u8 ^ 0xA5).collect();
            cmb.ingest(SimTime::ZERO, 0, &pattern, |t, b| port.acquire(t, b))
                .expect("staged prefix rejected");
            // Drained (700 bytes at the slowest port by 2.8 us) and destaged.
            cmb.credit_at(SimTime::from_nanos(2_800));
            cmb.advance_head(case.pre);
        }
        if case.port_busy_ns > 0 {
            port.res.acquire(SimTime::ZERO, SimDuration::from_nanos(case.port_busy_ns));
        }
        if let Some((unit, n, period)) = case.prior {
            let (first, period) =
                (SimTime::from_nanos(case.prior_first_ns), SimDuration::from_nanos(period));
            let data = vec![0x3C; (unit * n) as usize];
            let _ = if as_run {
                cmb.ingest_run(
                    Ends { first, period, count: n },
                    case.pre,
                    &data,
                    &mut port.res,
                    port.bw,
                )
            } else {
                cmb.walk_run(first, period, case.pre, &data, unit, |t, b| port.acquire(t, b))
            };
        }
        (cmb, port)
    }

    /// Everything a caller, the destage module, the telemetry or a later
    /// ingest can observe of a lane and its port: pending drains one by one,
    /// held bytes by offset, however either is stored.
    fn observe(cmb: &CmbModule, port: &Port) -> impl PartialEq + std::fmt::Debug {
        let mut credit = cmb.credit;
        let mut pending = Vec::new();
        for d in &cmb.pending {
            for k in 0..d.ends.count {
                credit += d.unit;
                pending.push((d.ends.first + d.ends.period * k, credit));
            }
        }
        let held: BTreeMap<u64, u8> = cmb
            .held
            .iter()
            .flat_map(|(&at, (_, bytes))| {
                bytes.iter().enumerate().map(move |(i, &b)| (at + i as u64, b))
            })
            .collect();
        (
            (cmb.ring.clone(), cmb.head, cmb.credit, cmb.tail),
            pending,
            held,
            (
                cmb.stats.bytes_in,
                cmb.stats.chunks,
                cmb.stats.held_chunks,
                cmb.stats.queue_high_water,
            ),
            (port.res.busy_until(), port.res.busy_time(), port.res.request_count()),
        )
    }

    /// Ingest `data` as a run into `run` and walk it through `walk`, and
    /// hold the two lanes against each other.
    #[allow(clippy::too_many_arguments)]
    fn run_against_walk(
        run: &mut (CmbModule, Port),
        walk: &mut (CmbModule, Port),
        first: SimTime,
        period: SimDuration,
        offset: u64,
        data: &[u8],
        unit: u64,
        what: &str,
    ) -> Result<(), (u64, CmbError)> {
        let (cmb, port) = run;
        let arrivals = Ends { first, period, count: data.len() as u64 / unit };
        let got = cmb.ingest_run(arrivals, offset, data, &mut port.res, port.bw);
        let (wcmb, wport) = walk;
        let want = wcmb.walk_run(first, period, offset, data, unit, |t, b| wport.acquire(t, b));
        // The same chunks taken, the same error on the first one refused.
        assert_eq!(got, want, "{what}");
        assert_eq!(observe(&run.0, &run.1), observe(&walk.0, &walk.1), "{what}");
        got
    }

    #[test]
    fn run_intake_leaves_what_the_chunk_walk_leaves() {
        // Seeded situations on both sides of every regime: units 8, 44 and
        // 64, 1..=300 chunks, drains faster and slower than the arrivals
        // (16 and 80 ns a 64-byte drain against 44 ns, random periods, all
        // at once), an idle and a busy port, older drains of another unit
        // still pending, a held chunk the run meets or does not, a run above
        // the tail and the run that later fills the gap below it, an intake
        // queue, a ring and a reorder window that overrun part-way. A run is
        // never refused: it leaves the lane and the port exactly as the
        // per-chunk walk does, error and partial state included.
        let mut rng = simkit::DetRng::new(0x19C3B);
        let (mut clean, mut errors, mut wrapped, mut behind, mut released) = (0, 0, 0, 0, 0);
        let mut overrun_part_way = 0;
        for index in 0..6_000u64 {
            let unit = *rng.pick(&[8u64, 64, 64, 44]);
            let n = match rng.uniform(0, 3) {
                0 => 1,
                1 => rng.uniform(2, 5),
                _ => rng.uniform(2, 300),
            };
            let len = unit * n;
            let pre = if rng.chance(0.7) { rng.uniform(1, 700) } else { 0 };
            let prior = rng
                .chance(0.3)
                .then(|| (*rng.pick(&[8u64, 24, 64]), rng.uniform(1, 40), rng.uniform(0, 60)));
            let prior_len = prior.map_or(0, |(u, k, _)| u * k);
            let gap = if rng.chance(0.12) { rng.uniform(1, 512) } else { 0 };
            let size = match rng.uniform(0, 5) {
                0 => rng.uniform(unit, len + unit),
                1 | 2 => prior_len + gap + len + rng.uniform(0, 256),
                _ => 64 << 10,
            }
            .max(pre + 64);
            let held =
                rng.chance(0.15).then(|| if rng.chance(0.5) { 0 } else { rng.uniform(1, 64) });
            // Mostly wide; sometimes shorter than the run or than its gap.
            let window = if rng.chance(0.1) { rng.uniform(0, 2 * len) } else { 64 << 10 };
            let first_ns = if rng.chance(0.2) { rng.uniform(0, 3_000) } else { 3_000 };
            let case = RunCase {
                unit,
                n,
                queue: match rng.uniform(0, 7) {
                    0 => rng.uniform(1, 3 * unit),
                    1 | 2 => rng.uniform(unit, len + 2 * unit),
                    _ => 32 << 10,
                }
                .max(pre)
                .max(24),
                size,
                pre,
                prior,
                prior_first_ns: first_ns.saturating_sub(rng.uniform(0, 2_500)),
                held: held.filter(|d| pre + prior_len + gap + len + d + 24 <= size.min(window)),
                gap,
                window,
                port_bytes_per_us: *rng.pick(&[4000u64, 4000, 800, 800, 250]),
                port_busy_ns: if rng.chance(0.2) { rng.uniform(1, 4_000) } else { 0 },
                first_ns,
                period_ns: match rng.uniform(0, 6) {
                    0 => rng.uniform(0, 80),
                    1 => 0,
                    _ => *rng.pick(&[44u64, 16]),
                },
            };
            let what = format!("case {index}: {case:?}");
            let first = SimTime::from_nanos(case.first_ns);
            let period = SimDuration::from_nanos(case.period_ns);
            let data: Vec<u8> = (0..len).map(|i| (i * 31 + index) as u8).collect();

            let (mut run, mut walk) = (stage(&case, true), stage(&case, false));
            assert_eq!(observe(&run.0, &run.1), observe(&walk.0, &walk.1), "{what}: staged");
            let offset = case.offset();
            let got =
                run_against_walk(&mut run, &mut walk, first, period, offset, &data, unit, &what);
            errors += u64::from(got.is_err());
            overrun_part_way +=
                u64::from(matches!(got, Err((k, CmbError::QueueOverrun { .. })) if k > 0));
            clean += u64::from(got.is_ok() && gap == 0);
            wrapped += u64::from(got.is_ok() && offset % size + len > size);
            behind +=
                u64::from(got.is_ok() && case.port_bytes_per_us * case.period_ns < 1000 * unit);
            // And the lanes stay interchangeable afterwards: same credit at
            // every later instant, same next drain.
            for later in [0, 1, 15, 16, 17, 44, 80, 5_000] {
                let at = first + period * (n - 1) + SimDuration::from_nanos(later);
                assert_eq!(run.0.credit_at(at), walk.0.credit_at(at), "{what} at +{later}");
                assert_eq!(run.0.next_pending(), walk.0.next_pending(), "{what}");
            }
            if gap > 0 {
                // The run that fills the gap releases what was held above it.
                let fill = vec![0x77; gap as usize];
                let unit = if gap % 8 == 0 { 8 } else { gap };
                let at = first + period * n + SimDuration::from_nanos(rng.uniform(0, 300));
                let (tail, held) = (walk.0.tail, walk.0.held.len());
                let _ = run_against_walk(&mut run, &mut walk, at, period, tail, &fill, unit, &what);
                released += u64::from(walk.0.held.len() < held);
            }
        }
        assert!(
            clean > 2_000
                && errors > 500
                && overrun_part_way > 100
                && wrapped > 100
                && behind > 500
                && released > 200,
            "{clean} clean, {errors} errors ({overrun_part_way} overruns part-way), \
             {wrapped} wrapped, {behind} behind, {released} released"
        );
    }

    #[test]
    fn first_above_matches_a_scan() {
        // Random floor-linear functions on both sides of every branch: rising,
        // falling, saw-toothed either way, straight.
        let mut rng = simkit::DetRng::new(0xF1_0012);
        let signed = |rng: &mut simkit::DetRng, m: u64| rng.uniform(0, 2 * m) as i128 - m as i128;
        let mut found = 0;
        for case in 0..20_000 {
            let (a, b) = (signed(&mut rng, 90), signed(&mut rng, 90));
            let (c, e) = (rng.uniform(0, 200) as i128, rng.uniform(1, 120) as i128);
            let (d, t) = (signed(&mut rng, 500), signed(&mut rng, 3_000));
            let lo = rng.uniform(0, 40) as i128;
            let hi = lo + rng.uniform(0, 400) as i128;
            let scan = (lo..hi).find(|&x| a * x + b * (c * x + d).div_euclid(e) > t);
            let got = first_above([a, b, c, d, e], t, lo, hi);
            assert_eq!(got, scan, "case {case}: {a}x + {b}⌊({c}x + {d})/{e}⌋ > {t} on {lo}..{hi}");
            found += u64::from(scan.is_some_and(|x| x > lo));
        }
        assert!(found > 2_000, "{found}");
    }

    #[test]
    fn a_dram_lane_queues_a_run_as_two_pieces_at_most() {
        // 64-byte chunks every 44 ns against 80 ns drains: all back to back.
        let mut cmb = CmbModule::new(cfg(32 << 10, 64 << 10));
        let (mut res, bw) = (SerialResource::new(), Bandwidth::gbytes_per_sec(0.8));
        let first = SimTime::from_nanos(1_000);
        let every = SimDuration::from_nanos(44);
        let arrivals = Ends { first, period: every, count: 256 };
        cmb.ingest_run(arrivals, 0, &[1; 16 << 10], &mut res, bw).expect("fits");
        let drained = |k: u64| first + SimDuration::from_nanos(80 * k);
        // As the walk left it: read at the last arrival, 255 · 44 = 11 220 ns
        // in, when 140 drains had ended; the other 116 are one run.
        assert_eq!((cmb.credit_settled(), cmb.pending.len()), (64 * 140, 1));
        assert_eq!(cmb.stats().queue_high_water, 64 * (256 - 140));
        assert_eq!(cmb.credit_reaches(64 * 141), Some(drained(141)));
        assert_eq!(cmb.credit_reaches(16 << 10), Some(drained(256)));
        // Settled part-way: the run keeps what has not drained.
        assert_eq!(cmb.credit_at(drained(150) + SimDuration::from_nanos(79)), 64 * 150);
        assert_eq!((cmb.next_pending(), cmb.pending.len()), (Some(drained(151)), 1));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "CMB lane: head")]
    fn an_empty_pending_run_breaks_the_lane_invariant() {
        let mut cmb = CmbModule::new(cfg(4096, 8192));
        let mut port = Port::new();
        cmb.ingest(SimTime::ZERO, 0, &[1u8; 100], |t, b| port.acquire(t, b)).expect("fits");
        cmb.credit_at(SimTime::from_micros(1));
        // A test-only corruption: a drain run of nothing, after the last.
        let ends = Ends { first: SimTime::from_micros(1), period: SimDuration::ZERO, count: 0 };
        cmb.pending.push_back(Drains { ends, unit: 8 });
        cmb.advance_head(10);
    }

    #[test]
    fn pending_drains_settle_from_the_front() {
        // Many chunks behind a slow port: their drains queue back to back,
        // one run; credit_at settles exactly the due prefix of it,
        // next_pending is the next drain.
        let mut cmb = CmbModule::new(cfg(64 << 10, 64 << 10));
        let mut port = Port::new();
        for k in 0..100u64 {
            cmb.ingest(SimTime::ZERO, k * 100, &[k as u8; 100], |t, b| port.acquire(t, b))
                .expect("in-window CMB write rejected");
        }
        // 100 bytes at 1 GB/s: drain k ends at 100·(k+1) ns.
        assert_eq!(cmb.next_pending(), Some(SimTime::from_nanos(100)));
        assert_eq!(cmb.credit_at(SimTime::from_nanos(4_250)), 4_200);
        assert_eq!(cmb.next_pending(), Some(SimTime::from_nanos(4_300)));
        assert_eq!(cmb.pending.len(), 1);
        assert_eq!(cmb.pending[0].ends.count, 58);
        assert_eq!(cmb.credit_at(SimTime::from_nanos(10_000)), 10_000);
        assert_eq!(cmb.next_pending(), None);
    }
}
