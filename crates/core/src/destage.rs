//! The Destage module — the bridge between the fast and conventional sides
//! (paper §4.3, Fig. 7).
//!
//! It monitors the CMB backing ring, bundles head data into flash pages
//! (padding with filler to honour a latency threshold), writes them onto a
//! ring of LBAs on the conventional side, and advances the CMB head as pages
//! persist. The LBA ring wraps; overwritten slots age out of the readable
//! log window.

use crate::cmb::CmbModule;
use crate::config::DestageConfig;
use simkit::{Bytes, IntMap, SimTime};
use ssd::ConventionalSsd;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex, PoisonError};

/// A destage page's identity: first log offset, data bytes, page length.
type PageKey = (u64, u64, u64);

/// One device's slot: the page it submitted last, if any.
type LastPage = Option<(PageKey, Bytes)>;

/// The last destage page each device of one cluster submitted, shared by
/// those devices. Under eager replication every copy of the log destages
/// the same spans with the same bytes, so a device whose next page is
/// byte-equal to one here takes that page's [`Bytes`] — a reference-count
/// bump — instead of copying its ring into a new allocation: the replicas'
/// media hold one copy of each page. The model cannot tell: `Bytes` is
/// immutable, each device still maps its own LBAs, and a page whose key
/// matches but whose bytes differ (a diverged replica, offsets reused
/// after a reboot) is copied. Strong references: a page stays alive while
/// it is some device's last.
///
/// A `Mutex` keeps a cluster `Send`. Each update is one push or one slot
/// assignment, so a panic while the lock is held leaves the store valid
/// and a poisoned lock is taken over as it stands.
#[derive(Debug, Clone, Default)]
pub(crate) struct PageStore(Arc<Mutex<Vec<LastPage>>>);

impl PageStore {
    /// Register one more device; returns its slot.
    fn join(&self) -> usize {
        let mut pages = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        pages.push(None);
        pages.len() - 1
    }

    /// The page for `key`: `build` is handed the page some device last
    /// submitted under that key, if any, and what it returns becomes
    /// `slot`'s last page.
    fn page(
        &self,
        slot: usize,
        key: PageKey,
        build: impl FnOnce(Option<&Bytes>) -> Bytes,
    ) -> Bytes {
        let mut pages = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        let page = build(pages.iter().flatten().find(|(k, _)| *k == key).map(|(_, page)| page));
        pages[slot] = Some((key, page.clone()));
        page
    }
}

/// One destaged (or in-flight) span of the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// First monotonic log offset covered.
    pub log_from: u64,
    /// One past the last log offset covered (filler excluded).
    pub log_to: u64,
    /// The conventional-side LBA holding the span.
    pub lba: u64,
}

/// First LBA of the destage ring on the conventional side: the ring starts
/// at the namespace's first block (Fig. 3).
const RING_BASE_LBA: u64 = 0;

/// The ring of LBAs the log is destaged onto, and the window of the log
/// still readable from it.
///
/// Pages are claimed in log order and page `p` lands on slot `p % len`, so
/// claiming a slot overwrites the page claimed `len` pages earlier. The
/// window lists the persisted spans whose slot has not been claimed again,
/// in ascending log offset. Bookkeeping is constant work per page whatever
/// the ring size: spans become readable in log order, and every span in the
/// window is one of the last `len` pages, so the page a claim overwrites is
/// the front of the window or not in it at all.
#[derive(Debug)]
struct LbaRing {
    base_lba: u64,
    len: u64,
    /// Pages ever claimed; the next one is page number `claimed`.
    claimed: u64,
    /// Persisted spans still on the media, oldest first.
    readable: VecDeque<Segment>,
}

impl LbaRing {
    fn new(base_lba: u64, len: u64) -> Self {
        assert!(len > 0, "destage ring cannot be empty");
        LbaRing { base_lba, len, claimed: 0, readable: VecDeque::new() }
    }

    /// Claim the next slot: returns the new page's number and LBA. What the
    /// slot held stops being readable at once — the media now holds (or
    /// will hold) newer bytes, whether or not the old page ever completed.
    fn claim(&mut self) -> (u64, u64) {
        let page = self.claimed;
        let lba = self.base_lba + page % self.len;
        if self.readable.front().is_some_and(|s| s.lba == lba) {
            self.readable.pop_front();
        }
        self.claimed += 1;
        (page, lba)
    }

    /// Page number `page` persisted; the caller reports pages in log order.
    /// Its span becomes readable unless the slot was claimed again while
    /// the write was in flight.
    fn persisted(&mut self, page: u64, seg: Segment) {
        if page + self.len >= self.claimed {
            debug_assert!(self.readable.back().is_none_or(|s| s.log_to <= seg.log_from));
            self.readable.push_back(seg);
        }
    }

    /// The readable span containing log offset `off`.
    fn segment_for(&self, off: u64) -> Option<Segment> {
        let i = self.readable.partition_point(|s| s.log_to <= off);
        self.readable.get(i).filter(|s| s.log_from <= off).copied()
    }

    /// Oldest readable log offset.
    fn readable_from(&self) -> Option<u64> {
        self.readable.front().map(|s| s.log_from)
    }
}

/// Destage statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct DestageStats {
    /// Full pages destaged.
    pub full_pages: u64,
    /// Partial pages destaged due to the latency threshold.
    pub partial_pages: u64,
    /// Filler bytes written to pad partial pages.
    pub filler_bytes: u64,
}

/// The Destage module state machine.
#[derive(Debug)]
pub struct DestageModule {
    config: DestageConfig,
    page_bytes: u64,
    /// Log offset scheduled for destaging (pages submitted).
    scheduled: u64,
    /// Log offset persisted on NAND (contiguous; head-advance point).
    persisted: u64,
    /// The LBA ring cursor and the readable log window.
    ring: LbaRing,
    /// In-flight destage writes by conventional-side token, stamped with
    /// their page number on the ring.
    inflight: IntMap<u64, (Segment, u64)>,
    /// Completed segments waiting for contiguous head advance, stamped
    /// with their page number on the ring.
    done: BTreeMap<u64, (Segment, u64)>,
    /// When the oldest currently-unscheduled byte was first seen waiting.
    waiting_since: Option<SimTime>,
    stats: DestageStats,
    /// The cluster's page store and this module's slot in it.
    pages: (PageStore, usize),
}

impl DestageModule {
    /// A fresh module for a device with `page_bytes` flash pages, sharing
    /// page storage with the other modules of `pages`.
    pub(crate) fn new(config: DestageConfig, page_bytes: u64, pages: &PageStore) -> Self {
        assert!(page_bytes > 0);
        DestageModule {
            pages: (pages.clone(), pages.join()),
            ring: LbaRing::new(RING_BASE_LBA, config.ring_lbas),
            config,
            page_bytes,
            scheduled: 0,
            persisted: 0,
            inflight: IntMap::default(),
            done: BTreeMap::new(),
            waiting_since: None,
            stats: DestageStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DestageConfig {
        &self.config
    }

    /// Statistics.
    pub fn stats(&self) -> DestageStats {
        self.stats
    }

    /// Log offset persisted on the conventional side (x_pread horizon).
    pub fn persisted(&self) -> u64 {
        self.persisted
    }

    /// Log offset scheduled for destaging.
    pub fn scheduled(&self) -> u64 {
        self.scheduled
    }

    /// The deadline by which a waiting partial page must destage, if any —
    /// the device event loop schedules a wake-up for it.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.waiting_since.map(|t| t + self.config.max_latency)
    }

    /// Deliver one conventional-side destage completion. Returns true when
    /// the token is one of this module's writes still in flight. The
    /// persisted frontier (x_pread horizon) advances contiguously.
    pub fn complete(&mut self, token: u64) -> bool {
        let Some((seg, page)) = self.inflight.remove(&token) else { return false };
        self.done.insert(seg.log_from, (seg, page));
        self.advance_persisted();
        true
    }

    /// Move the persisted frontier over every completed page that is now
    /// contiguous with it, making each readable in log order.
    fn advance_persisted(&mut self) {
        while let Some(entry) = self.done.first_entry() {
            if *entry.key() != self.persisted {
                break;
            }
            let (seg, page) = entry.remove();
            self.persisted = seg.log_to;
            self.ring.persisted(page, seg);
        }
    }

    /// Drive destaging at `now`: bundle available CMB data into pages and
    /// submit them to the conventional side. Returns true if any progress
    /// was made. Completions are delivered separately via
    /// [`DestageModule::complete`].
    pub fn pump(&mut self, now: SimTime, cmb: &mut CmbModule, conv: &mut ConventionalSsd) -> bool {
        let mut progressed = false;
        // Bundle new pages from the CMB ring.
        let credit = cmb.credit_at(now);
        loop {
            let avail = credit - self.scheduled;
            if avail >= self.page_bytes {
                self.submit_page(now, self.page_bytes, 0, cmb, conv);
                progressed = true;
                continue;
            }
            if avail > 0 {
                match self.waiting_since {
                    None => self.waiting_since = Some(now),
                    Some(since) if now >= since + self.config.max_latency => {
                        // Latency threshold: flush a partial page with filler.
                        let filler = self.page_bytes - avail;
                        self.submit_page(now, avail, filler, cmb, conv);
                        progressed = true;
                        continue;
                    }
                    Some(_) => {}
                }
            } else {
                self.waiting_since = None;
            }
            break;
        }
        progressed
    }

    fn submit_page(
        &mut self,
        now: SimTime,
        data_bytes: u64,
        filler: u64,
        cmb: &mut CmbModule,
        conv: &mut ConventionalSsd,
    ) {
        let (from, padded) = (self.scheduled, data_bytes + filler);
        let (store, slot) = &self.pages;
        let content = store.page(*slot, (from, data_bytes, padded), |twin| {
            cmb.content_padded(from, data_bytes as usize, padded as usize, twin)
        });
        let (page, lba) = self.ring.claim();
        let seg = Segment { log_from: self.scheduled, log_to: self.scheduled + data_bytes, lba };
        let token = conv.submit_destage_write(now, lba, content);
        self.inflight.insert(token, (seg, page));
        self.scheduled += data_bytes;
        // The page content was copied out of the CMB ring into the storage
        // controller at submission, and the supercapacitors guarantee every
        // queued destage write completes even on power loss (paper §4.1) —
        // so the ring space is reusable from this instant, not from program
        // completion. This is what lets a 128 KiB SRAM ring sustain the
        // full destage bandwidth.
        cmb.advance_head(self.scheduled.min(cmb.tail()));
        if filler > 0 {
            self.stats.partial_pages += 1;
            self.stats.filler_bytes += filler;
        } else {
            self.stats.full_pages += 1;
        }
        self.waiting_since = None;
    }

    /// The persisted segment containing monotonic log offset `off`, if it is
    /// still on the ring.
    pub fn segment_for(&self, off: u64) -> Option<Segment> {
        self.ring.segment_for(off)
    }

    /// Oldest readable log offset (ring may have overwritten earlier data).
    pub fn readable_from(&self) -> Option<u64> {
        self.ring.readable_from()
    }

    /// Crash protocol (paper §4.1) on residual power: submit everything
    /// contiguous in the CMB ring (`frontier` from
    /// [`CmbModule::crash_drain`]) as full/filler pages, run the
    /// conventional side's supercap rescue, and account every page in
    /// flight as persisted. Returns the log offset made durable.
    pub fn crash_destage(
        &mut self,
        now: SimTime,
        frontier: u64,
        cmb: &mut CmbModule,
        conv: &mut ConventionalSsd,
    ) -> u64 {
        self.crash_submit(now, frontier, cmb, conv);
        conv.power_fail_rescue_destage(now);
        self.crash_finalize()
    }

    /// Crash protocol, phase 1: submit `[scheduled, frontier)` as
    /// full/filler pages.
    fn crash_submit(
        &mut self,
        now: SimTime,
        frontier: u64,
        cmb: &mut CmbModule,
        conv: &mut ConventionalSsd,
    ) {
        while self.scheduled < frontier {
            let avail = frontier - self.scheduled;
            let chunk = avail.min(self.page_bytes);
            let filler = self.page_bytes - chunk;
            self.submit_page(now, chunk, filler, cmb, conv);
        }
    }

    /// Crash protocol, phase 2: after the conventional side's rescue ran
    /// the destage queue dry, account every in-flight page as persisted.
    /// Returns the log offset made durable.
    fn crash_finalize(&mut self) -> u64 {
        for (_tok, entry) in self.inflight.drain() {
            self.done.insert(entry.0.log_from, entry);
        }
        self.advance_persisted();
        self.persisted
    }
}

impl simkit::Instrument for DestageModule {
    fn instrument(&self, out: &mut simkit::Scope<'_>) {
        out.counter("full_pages", self.stats.full_pages);
        out.counter("partial_pages", self.stats.partial_pages);
        out.counter("filler_bytes", self.stats.filler_bytes);
        // A partial destage happens exactly when the latency deadline fires
        // before a page fills: partial_pages IS the deadline-miss count.
        out.counter("deadline_misses", self.stats.partial_pages);
        out.counter("scheduled_offset", self.scheduled);
        out.counter("persisted_offset", self.persisted);
        out.counter("pages_written", self.ring.claimed);
        out.gauge("inflight_segments", self.inflight.len() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmb::CmbModule;
    use crate::config::CmbConfig;
    use simkit::{Bandwidth, SerialResource, SimDuration};
    use ssd::{ConventionalSsd, SsdConfig};
    use std::collections::HashMap;

    struct Rig {
        cmb: CmbModule,
        destage: DestageModule,
        conv: ConventionalSsd,
        port: SerialResource,
        bw: Bandwidth,
    }

    impl Rig {
        fn new() -> Self {
            Self::with_ring(8, SsdConfig::small())
        }

        fn with_ring(ring_lbas: u64, ssd: SsdConfig) -> Self {
            let page = u64::from(ssd.geometry.page_bytes);
            let conv = ConventionalSsd::new(ssd);
            Rig {
                cmb: CmbModule::new(CmbConfig {
                    size: 64 << 10,
                    intake_queue_bytes: 32 << 10,
                    ..CmbConfig::sram()
                }),
                destage: DestageModule::new(
                    DestageConfig { ring_lbas, max_latency: SimDuration::from_micros(200) },
                    page,
                    &PageStore::default(),
                ),
                conv,
                port: SerialResource::new(),
                bw: Bandwidth::gbytes_per_sec(4.0),
            }
        }

        fn write(&mut self, now: SimTime, off: u64, data: &[u8]) {
            let (port, bw) = (&mut self.port, self.bw);
            self.cmb
                .ingest(now, off, data, |t, b| port.acquire(t, bw.transfer_time(b)))
                .expect("in-window CMB write rejected");
        }

        fn run_to(&mut self, t: SimTime) {
            use nvme::NvmeController;
            // Step through internal event times (credit settles, destage
            // deadlines, flash completions) so actions fire when their
            // triggers occur — the same stepping VillarsDevice::advance does.
            let mut stuck_at: Option<SimTime> = None;
            loop {
                let mut next = self.conv.next_device_event();
                for c in
                    [self.cmb.next_pending(), self.destage.next_deadline()].into_iter().flatten()
                {
                    next = Some(next.map_or(c, |n: SimTime| n.min(c)));
                }
                let step = match next {
                    Some(e) if e <= t => e,
                    _ => t,
                };
                self.conv.advance_to(step);
                let mut progressed = false;
                let mut done = Vec::new();
                self.conv.drain_destage_completions_into(step, &mut done);
                for (_at, token) in done {
                    progressed |= self.destage.complete(token);
                }
                progressed |= self.destage.pump(step, &mut self.cmb, &mut self.conv);
                if progressed {
                    stuck_at = None;
                    continue;
                }
                if step >= t || stuck_at == Some(step) {
                    break;
                }
                stuck_at = Some(step);
            }
            self.conv.advance_to(t);
        }
    }

    /// The bookkeeping [`LbaRing`] replaced, kept as the reference model:
    /// a submission sequence per slot, a scan of the whole window to evict
    /// a reused slot and another to look an offset up.
    #[derive(Default)]
    struct NaiveRing {
        len: u64,
        pages_written: u64,
        submit_seq: u64,
        slot_seq: HashMap<u64, u64>,
        readable: VecDeque<Segment>,
        /// Pages that persisted after their slot had been claimed again.
        overwritten_in_flight: u64,
    }

    impl NaiveRing {
        fn claim(&mut self) -> (u64, u64) {
            let lba = self.pages_written % self.len;
            self.submit_seq += 1;
            self.slot_seq.insert(lba, self.submit_seq);
            self.readable.retain(|s| s.lba != lba);
            self.pages_written += 1;
            (self.submit_seq, lba)
        }

        fn persisted(&mut self, seq: u64, seg: Segment) {
            if self.slot_seq.get(&seg.lba) == Some(&seq) {
                self.readable.push_back(seg);
            } else {
                self.overwritten_in_flight += 1;
            }
        }

        fn segment_for(&self, off: u64) -> Option<Segment> {
            self.readable.iter().find(|s| off >= s.log_from && off < s.log_to).copied()
        }
    }

    /// A [`Rig`] stepped in lock-step with the reference model. The model
    /// sees only what the module's public surface shows — `scheduled()`
    /// moving (pages claimed, full ones first and at most one partial per
    /// call) and `persisted()` moving (pages readable, in log order).
    struct OracleRig {
        rig: Rig,
        model: NaiveRing,
        /// Claimed pages the model has not seen persist yet, in log order.
        unpersisted: VecDeque<(u64, Segment)>,
        /// Every span ever claimed: the offsets worth probing.
        spans: Vec<Segment>,
        /// Conventional-side completions drained but not yet delivered.
        held: Vec<u64>,
        /// Completions delivered ahead of an earlier page's.
        out_of_order: u64,
        rng: simkit::DetRng,
        now: SimTime,
    }

    impl OracleRig {
        const PAGE: u64 = 4096;

        fn new(ring_lbas: u64, seed: u64) -> Self {
            // 64 Ki pages: even a one-slot ring rewritten thousands of times
            // stays far from filling the device (nothing reclaims a page).
            let ssd = SsdConfig {
                geometry: flash::FlashGeometry {
                    blocks_per_die: 1024,
                    ..flash::FlashGeometry::tiny()
                },
                ..SsdConfig::small()
            };
            OracleRig {
                rig: Rig::with_ring(ring_lbas, ssd),
                model: NaiveRing { len: ring_lbas, ..NaiveRing::default() },
                unpersisted: VecDeque::new(),
                spans: Vec::new(),
                held: Vec::new(),
                out_of_order: 0,
                rng: simkit::DetRng::new(seed),
                now: SimTime::ZERO,
            }
        }

        /// Mirror the pages one call claimed, read off `scheduled()`.
        fn saw_claims(&mut self, scheduled_before: u64) {
            let mut from = scheduled_before;
            let to = self.rig.destage.scheduled();
            while from < to {
                let len = (to - from).min(Self::PAGE);
                let (seq, lba) = self.model.claim();
                let seg = Segment { log_from: from, log_to: from + len, lba };
                self.unpersisted.push_back((seq, seg));
                self.spans.push(seg);
                from += len;
            }
            let s = self.rig.destage.stats();
            assert_eq!(
                s.full_pages + s.partial_pages,
                self.model.pages_written,
                "page boundaries read off scheduled() ({scheduled_before} -> {to}) \
                 disagree with the module's page count"
            );
        }

        /// Mirror the pages that became persistent, read off `persisted()`.
        fn saw_persisted(&mut self) {
            let upto = self.rig.destage.persisted();
            while self.unpersisted.front().is_some_and(|(_, seg)| seg.log_to <= upto) {
                let (seq, seg) = self.unpersisted.pop_front().expect("just peeked");
                self.model.persisted(seq, seg);
            }
        }

        fn pages(&self) -> u64 {
            let s = self.rig.destage.stats();
            s.full_pages + s.partial_pages
        }

        fn pump(&mut self) {
            let scheduled = self.rig.destage.scheduled();
            self.rig.destage.pump(self.now, &mut self.rig.cmb, &mut self.rig.conv);
            self.saw_claims(scheduled);
        }

        fn complete(&mut self, token: u64) {
            let persisted = self.rig.destage.persisted();
            assert!(self.rig.destage.complete(token), "token {token} unknown to the module");
            self.out_of_order += u64::from(self.rig.destage.persisted() == persisted);
            self.saw_persisted();
        }

        /// One random step: let time pass, deliver a random subset of the
        /// outstanding completions in random order (so pages complete out
        /// of order and, on small rings, long after their slot was
        /// reused), pump, then maybe write up to three pages' worth.
        fn step(&mut self) {
            use nvme::NvmeController;
            let gap = if self.rng.chance(0.05) { 400_000 } else { self.rng.uniform(2_000, 30_000) };
            self.now += SimDuration::from_nanos(gap);
            self.rig.conv.advance_to(self.now);
            let mut drained = Vec::new();
            self.rig.conv.drain_destage_completions_into(self.now, &mut drained);
            self.held.extend(drained.into_iter().map(|(_, token)| token));
            let deliver = match self.rng.uniform(0, 3) {
                0 => 0,
                1 => self.held.len(),
                _ => self.rng.uniform(0, self.held.len() as u64) as usize,
            };
            for _ in 0..deliver {
                let i = self.rng.uniform(0, self.held.len() as u64 - 1) as usize;
                let token = self.held.swap_remove(i);
                self.complete(token);
            }
            self.pump();

            let len = match self.rng.uniform(0, 9) {
                0..=2 => self.rng.uniform(1, Self::PAGE - 1),
                3..=6 => Self::PAGE,
                _ => self.rng.uniform(Self::PAGE + 1, 3 * Self::PAGE),
            };
            let tail = self.rig.cmb.tail();
            let queue = self.rig.cmb.config().intake_queue_bytes;
            let inflight = tail - self.rig.cmb.credit_at(self.now);
            if self.rig.cmb.has_room(tail, len) && inflight + len <= queue {
                let data: Vec<u8> = (tail..tail + len).map(|o| (o % 251) as u8).collect();
                self.rig.write(self.now, tail, &data);
            }
        }

        /// Power loss: whatever sits in the CMB ring is claimed in one
        /// burst, the rescue runs the destage queue dry, and every page in
        /// flight — delivered, held or never drained — persists at once.
        fn crash(&mut self) {
            let frontier = self.rig.cmb.crash_drain();
            let scheduled = self.rig.destage.scheduled();
            self.rig.destage.crash_submit(
                self.now,
                frontier,
                &mut self.rig.cmb,
                &mut self.rig.conv,
            );
            self.saw_claims(scheduled);
            self.check(false);
            self.rig.conv.power_fail_rescue_destage(self.now);
            assert_eq!(self.rig.destage.crash_finalize(), frontier);
            self.saw_persisted();
            assert!(self.unpersisted.is_empty());
        }

        /// The window itself (hence its length) and `readable_from`, then
        /// `segment_for`: at the edges of two spans near the live window,
        /// or — with `sweep` — at every byte offset from two pages below
        /// the window to past the scheduled frontier on rings of up to 8
        /// slots, and at both ends of every span ever claimed on larger ones
        /// (there every byte offset, against a scanning reference, is
        /// minutes of work).
        fn check(&mut self, sweep: bool) {
            let destage = &self.rig.destage;
            assert!(
                destage.ring.readable.iter().eq(self.model.readable.iter()),
                "window diverged at {}: {:?} vs reference {:?}",
                self.now,
                destage.ring.readable,
                self.model.readable
            );
            assert_eq!(destage.readable_from(), self.model.readable.front().map(|s| s.log_from));
            let same_at = |off: u64| {
                assert_eq!(destage.segment_for(off), self.model.segment_for(off), "at {off}");
            };
            if !sweep {
                for _ in 0..2.min(self.spans.len()) {
                    let reach = (2 * self.model.len).min(self.spans.len() as u64 - 1);
                    let back = self.rng.uniform(0, reach) as usize;
                    let span = self.spans[self.spans.len() - 1 - back];
                    same_at(span.log_from.saturating_sub(1));
                    same_at(span.log_from);
                    same_at((span.log_from + span.log_to) / 2);
                    same_at(span.log_to - 1);
                    same_at(span.log_to);
                }
            } else if self.model.len <= 8 {
                let end = destage.scheduled() + 2;
                let start = destage.readable_from().unwrap_or(end).saturating_sub(2 * Self::PAGE);
                (start..end).for_each(same_at);
                same_at(0);
            } else {
                for span in &self.spans {
                    same_at(span.log_from);
                    same_at(span.log_to - 1);
                }
                same_at(destage.scheduled());
            }
        }
    }

    #[test]
    fn readable_window_matches_the_scanning_reference_on_random_schedules() {
        // One slot (every claim evicts), a ring far smaller than the pages
        // in flight (slots reused before their first write completes), and
        // the default ring wrapped one and a half times.
        let cases: [(u64, u32, &[u64]); 3] =
            [(1, 600, &[3, 17, 4242]), (8, 1_500, &[3, 17, 4242]), (4096, 5_800, &[3])];
        for (ring_lbas, steps, seeds) in cases {
            for seed in seeds {
                let mut o = OracleRig::new(ring_lbas, seed ^ ring_lbas);
                for step in 0..steps {
                    o.step();
                    o.check(ring_lbas <= 8 && step % 64 == 63);
                }
                assert!(
                    o.pages() > ring_lbas + ring_lbas / 2,
                    "ring {ring_lbas} never wrapped: {} pages",
                    o.pages()
                );
                assert!(o.rig.destage.stats().partial_pages > 0, "no deadline fired");
                assert!(o.out_of_order > 0, "every completion arrived in log order");
                assert!(
                    ring_lbas > 8 || o.model.overwritten_in_flight > 0,
                    "ring {ring_lbas}: no slot was reused while its page was in flight"
                );
                o.check(true);
                o.crash();
                o.check(true);
            }
        }
    }

    #[test]
    fn ring_bookkeeping_does_not_scale_with_ring_size() {
        // Bookkeeping only: a 2^20-slot ring wrapped four times, 64 pages
        // in flight, a lookup every 1024 pages. Constant work per page
        // finishes in well under a second even unoptimised; a scan of the
        // window per page (the old eviction) is ~10^12 segment visits and
        // trips the guard below after the first few thousand pages.
        let started = std::time::Instant::now();
        let len = 1u64 << 20;
        let mut ring = LbaRing::new(7, len);
        let mut inflight = VecDeque::new();
        for p in 0..4 * len {
            let (page, lba) = ring.claim();
            assert_eq!((page, lba), (p, 7 + p % len));
            inflight.push_back((page, Segment { log_from: p * 4096, log_to: (p + 1) * 4096, lba }));
            if inflight.len() > 64 {
                let (page, seg) = inflight.pop_front().expect("non-empty");
                ring.persisted(page, seg);
            }
            if p % 1024 == 1023 {
                let oldest = p.saturating_sub(len - 1);
                assert_eq!(ring.readable_from(), Some(oldest * 4096));
                assert_eq!(
                    ring.segment_for(oldest * 4096 + 5).map(|s| s.lba),
                    Some(7 + oldest % len)
                );
                assert_eq!(
                    ring.segment_for((p - 100) * 4096).map(|s| s.log_from),
                    Some((p - 100) * 4096)
                );
                assert_eq!(ring.segment_for((p - 10) * 4096), None, "still in flight");
                assert!(ring.readable.len() as u64 <= len);
                assert!(
                    started.elapsed() < std::time::Duration::from_secs(20),
                    "ring bookkeeping is not constant work per page ({p} pages so far)"
                );
            }
        }
    }

    #[test]
    fn full_page_destages_and_head_advances() {
        let mut rig = Rig::new();
        rig.write(SimTime::ZERO, 0, &[0xAA; 4096]);
        rig.run_to(SimTime::from_millis(10));
        assert_eq!(rig.destage.persisted(), 4096);
        assert_eq!(rig.destage.stats().full_pages, 1);
        assert_eq!(rig.cmb.head(), 4096, "CMB head freed");
        // Content landed on the conventional side.
        let seg = rig.destage.segment_for(0).expect("no destaged segment covers offset 0");
        let media = rig.conv.media_content(seg.lba).expect("destaged LBA missing from flash media");
        assert_eq!(&media[..4096], &[0xAA; 4096][..]);
    }

    #[test]
    fn partial_page_waits_for_latency_threshold() {
        let mut rig = Rig::new();
        rig.write(SimTime::ZERO, 0, &[1u8; 100]);
        // Pump before the deadline: nothing destaged.
        rig.run_to(SimTime::from_micros(100));
        assert_eq!(rig.destage.persisted(), 0);
        assert!(rig.destage.next_deadline().is_some());
        // After the deadline: partial page with filler.
        rig.run_to(SimTime::from_millis(5));
        assert_eq!(rig.destage.persisted(), 100);
        let s = rig.destage.stats();
        assert_eq!(s.partial_pages, 1);
        assert_eq!(s.filler_bytes, 4096 - 100);
    }

    #[test]
    fn segments_map_log_offsets_to_lbas() {
        let mut rig = Rig::new();
        for i in 0..3u64 {
            rig.write(SimTime::from_micros(i * 50), i * 4096, &[i as u8 + 1; 4096]);
        }
        rig.run_to(SimTime::from_millis(20));
        for i in 0..3u64 {
            let seg = rig.destage.segment_for(i * 4096 + 7).expect("segment exists");
            assert_eq!(seg.log_from, i * 4096);
            let media =
                rig.conv.media_content(seg.lba).expect("destaged LBA missing from flash media");
            assert_eq!(media[0], i as u8 + 1);
        }
        assert_eq!(rig.destage.readable_from(), Some(0));
    }

    #[test]
    fn lba_ring_wraps_and_old_segments_age_out() {
        let mut rig = Rig::new();
        // Ring is 8 LBAs; write 12 pages so it wraps.
        let mut t = SimTime::ZERO;
        for i in 0..12u64 {
            rig.write(t, i * 4096, &[(i % 250) as u8; 4096]);
            t += SimDuration::from_micros(400);
            rig.run_to(t);
        }
        rig.run_to(t + SimDuration::from_millis(20));
        assert_eq!(rig.destage.persisted(), 12 * 4096);
        // The first 4 pages were overwritten by wrap.
        assert!(rig.destage.segment_for(0).is_none(), "oldest page aged out");
        assert!(rig.destage.segment_for(11 * 4096).is_some());
        assert!(
            rig.destage.readable_from().expect("destage ring has nothing readable") >= 4 * 4096
        );
    }

    #[test]
    fn slot_reuse_before_completion_never_leaves_stale_readable_entries() {
        // Submit 12 pages in one burst through the crash path — every
        // submission lands before any completion, so LBAs 0..3 are
        // resubmitted while their first write is still in flight. The
        // first-generation pages must not surface in the readable window
        // afterwards: their slots hold newer media.
        let mut rig = Rig::new();
        // Stagger ingests so each page's transfer credit has drained
        // (intake queue is 32 KiB), without ever pumping the destage loop.
        for i in 0..12u64 {
            rig.write(SimTime::from_micros(i * 2), i * 4096, &[(i + 1) as u8; 4096]);
        }
        let frontier = rig.cmb.crash_drain();
        assert_eq!(frontier, 12 * 4096);
        let durable = rig.destage.crash_destage(
            SimTime::from_micros(30),
            frontier,
            &mut rig.cmb,
            &mut rig.conv,
        );
        assert_eq!(durable, 12 * 4096, "durability covers every submitted page");
        // Ring is 8 LBAs: only the last 8 pages are readable, and the
        // overwritten generation must be gone — not mapped to slots that
        // now hold newer bytes.
        assert_eq!(rig.destage.readable_from(), Some(4 * 4096));
        for i in 0..4u64 {
            assert!(
                rig.destage.segment_for(i * 4096).is_none(),
                "page {i} was overwritten in flight and must not be readable"
            );
        }
        for i in 4..12u64 {
            let seg = rig.destage.segment_for(i * 4096).expect("surviving page readable");
            let media =
                rig.conv.media_content(seg.lba).expect("destaged LBA missing from flash media");
            assert_eq!(media[0], (i + 1) as u8, "readable segment maps to current media");
        }
    }

    #[test]
    fn crash_destage_persists_ring_residue() {
        let mut rig = Rig::new();
        // 100 bytes in the ring, no destage yet (below page, below deadline).
        rig.write(SimTime::ZERO, 0, &[0x77; 100]);
        let frontier = rig.cmb.crash_drain();
        assert_eq!(frontier, 100);
        let durable = rig.destage.crash_destage(
            SimTime::from_micros(10),
            frontier,
            &mut rig.cmb,
            &mut rig.conv,
        );
        assert_eq!(durable, 100);
        let seg = rig.destage.segment_for(0).expect("no destaged segment covers offset 0");
        let media = rig.conv.media_content(seg.lba).expect("destaged LBA missing from flash media");
        assert_eq!(&media[..100], &[0x77; 100][..]);
    }

    #[test]
    fn deadline_is_exposed_for_event_scheduling() {
        let mut rig = Rig::new();
        assert!(rig.destage.next_deadline().is_none());
        rig.write(SimTime::ZERO, 0, &[1u8; 10]);
        rig.run_to(SimTime::from_micros(1));
        let dl = rig.destage.next_deadline().expect("partial data waiting");
        // The deadline is the drain-landing instant (a few ns for 10 bytes)
        // plus max_latency (200us).
        assert!(
            (200.0..201.0).contains(&dl.as_micros_f64()),
            "waiting_since + max_latency, got {dl}"
        );
    }
}
