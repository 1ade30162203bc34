//! The device Data Buffer.
//!
//! "It is very common for an SSD to cache data in this temporary area"
//! (paper §2.2). The buffer is device DRAM behind a shared port; in the
//! Villars DRAM configuration the CMB backing memory is carved from this
//! same pool (paper §6), so the port resource is exposed for sharing — that
//! sharing is what derates the DRAM-backed fast side in Fig. 9/10.

use simkit::bytes::Bytes;
use simkit::{Bandwidth, Grant, IntMap, SerialResource, SimDuration, SimTime};
use std::collections::BTreeMap;

/// Logical page number (buffer key).
pub type Lpn = u64;

/// Cut-through between two serial stages that move `n` equal units one after
/// the other: the upstream stage hands over its first unit at `first` and one
/// more every `upstream`; the downstream stage takes `downstream` per unit
/// and is held once, for all of them. Returns the instant to request that
/// hold at so that no unit is taken before it was handed over: `first` when
/// downstream is the slower stage (it never catches up), else as late as lets
/// its last unit follow the upstream's last — so behind a stage free at `B`
/// the hold ends at `max(B + n·downstream, last hand-over + downstream)`,
/// where the unit-by-unit FIFO walk ends.
pub(crate) fn cut_through(
    first: SimTime,
    upstream: SimDuration,
    downstream: SimDuration,
    n: u64,
) -> SimTime {
    first + upstream.saturating_sub(downstream) * (n - 1)
}

/// A cached page.
#[derive(Debug, Clone)]
struct Slot {
    data: Bytes,
    dirty: bool,
    /// When the page was last written or hit, on the buffer's touch counter.
    touched: u64,
}

/// Buffer statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct BufferStats {
    /// Read hits served from DRAM.
    pub read_hits: u64,
    /// Read misses that went to flash.
    pub read_misses: u64,
    /// Pages written into the buffer.
    pub writes: u64,
    /// Clean pages evicted to make room.
    pub evictions: u64,
}

/// The DRAM data buffer with a write-back cache policy.
#[derive(Debug)]
pub struct DataBuffer {
    capacity_pages: usize,
    page_bytes: u32,
    slots: IntMap<Lpn, Slot>,
    /// The clean pages by last touch, least recent first: eviction order.
    /// Dirty pages are pinned until flushed and are not in here; a page
    /// cleaned later takes the place its last touch gave it, which may be
    /// ahead of pages cleaned before it.
    clean: BTreeMap<u64, Lpn>,
    touches: u64,
    port: SerialResource,
    port_bw: Bandwidth,
    stats: BufferStats,
}

impl DataBuffer {
    /// A buffer of `capacity_pages` pages of `page_bytes` each, behind a
    /// DRAM port of `port_bw`.
    pub fn new(capacity_pages: usize, page_bytes: u32, port_bw: Bandwidth) -> Self {
        assert!(capacity_pages > 0);
        DataBuffer {
            capacity_pages,
            page_bytes,
            slots: IntMap::default(),
            clean: BTreeMap::new(),
            touches: 0,
            port: SerialResource::new(),
            port_bw,
            stats: BufferStats::default(),
        }
    }

    /// Page size.
    pub fn page_bytes(&self) -> u32 {
        self.page_bytes
    }

    /// Occupied pages.
    pub fn occupancy(&self) -> usize {
        self.slots.len()
    }

    /// Number of dirty (unflushed) pages.
    pub fn dirty_count(&self) -> usize {
        self.slots.len() - self.clean.len()
    }

    /// Statistics.
    pub fn stats(&self) -> BufferStats {
        self.stats
    }

    /// How long `bytes` hold the DRAM port.
    pub fn port_time(&self, bytes: u64) -> SimDuration {
        self.port_bw.transfer_time(bytes)
    }

    /// Acquire the DRAM port for an arbitrary transfer of `bytes` (used by
    /// the Villars DRAM-backed CMB, which shares this port).
    pub fn port_access(&mut self, now: SimTime, bytes: u64) -> Grant {
        self.port.acquire(now, self.port_time(bytes))
    }

    /// The DRAM port itself, for a user that holds it at its own rate: the
    /// CMB path runs narrower (derated) while still occupying the shared
    /// controller (paper §6: 64-bit CMB path on the shared DDR3 port).
    pub fn port_mut(&mut self) -> &mut SerialResource {
        &mut self.port
    }

    /// Write a page into the buffer (dirty) as it arrives: in pieces of
    /// `unit` bytes, the first at `first` and one every `period` (a DMA's
    /// TLPs; a page that is all there at `first` is one page-sized piece).
    /// The port is held once for the page, behind the arrivals
    /// ([`cut_through`]), for as long and as one request as if it were
    /// written in one go. Returns that hold; the page is in the buffer at
    /// `grant.end`. Evicts clean LRU pages over capacity; dirty pages never
    /// evict, so the buffer may exceed capacity under flush backlog (the
    /// flash scheduler is then the back-pressure).
    pub fn write(
        &mut self,
        first: SimTime,
        period: SimDuration,
        unit: u64,
        lpn: Lpn,
        data: Bytes,
    ) -> Grant {
        let g = self.port_stream_in(first, period, data.len() as u64, unit);
        self.touches += 1;
        let slot = Slot { data, dirty: true, touched: self.touches };
        if let Some(old) = self.slots.insert(lpn, slot) {
            if !old.dirty {
                self.clean.remove(&old.touched);
            }
        }
        self.stats.writes += 1;
        self.evict_if_needed();
        g
    }

    /// Hold the port for the `bytes` stored of a page that arrives in pieces
    /// of `unit` bytes, the first at `first` and one every `period`.
    fn port_stream_in(
        &mut self,
        first: SimTime,
        period: SimDuration,
        bytes: u64,
        unit: u64,
    ) -> Grant {
        let n = (self.page_bytes as u64).div_ceil(unit);
        let total = self.port_time(bytes);
        self.port.acquire(cut_through(first, period, total / n, n), total)
    }

    /// Look up a page. A hit pays a port access and refreshes LRU.
    pub fn read(&mut self, now: SimTime, lpn: Lpn) -> Option<(Bytes, Grant)> {
        let Some(slot) = self.slots.get_mut(&lpn) else {
            self.stats.read_misses += 1;
            return None;
        };
        self.touches += 1;
        if !slot.dirty {
            self.clean.remove(&slot.touched);
            self.clean.insert(self.touches, lpn);
        }
        slot.touched = self.touches;
        let data = slot.data.clone();
        self.stats.read_hits += 1;
        let g = self.port_access(now, data.len() as u64);
        Some((data, g))
    }

    /// Fetch page content (no timing), e.g. for a flush's program data.
    pub fn peek(&self, lpn: Lpn) -> Option<Bytes> {
        self.slots.get(&lpn).map(|s| s.data.clone())
    }

    /// Mark a page clean once its flash program completed.
    pub fn mark_clean(&mut self, lpn: Lpn) {
        if let Some(s) = self.slots.get_mut(&lpn) {
            if std::mem::take(&mut s.dirty) {
                self.clean.insert(s.touched, lpn);
            }
        }
        self.evict_if_needed();
    }

    /// Drop every entry (power loss: device DRAM is volatile).
    pub fn crash(&mut self) {
        self.slots.clear();
        self.clean.clear();
    }

    fn evict_if_needed(&mut self) {
        while self.slots.len() > self.capacity_pages {
            // All dirty: allow overflow, the flusher will drain.
            let Some((_, lpn)) = self.clean.pop_first() else { break };
            self.slots.remove(&lpn);
            self.stats.evictions += 1;
        }
    }
}

impl simkit::Instrument for DataBuffer {
    fn instrument(&self, out: &mut simkit::Scope<'_>) {
        out.counter("read_hits", self.stats.read_hits);
        out.counter("read_misses", self.stats.read_misses);
        out.counter("writes", self.stats.writes);
        out.counter("evictions", self.stats.evictions);
        // 0 % before the first lookup.
        let lookups = (self.stats.read_hits + self.stats.read_misses).max(1);
        out.gauge("hit_rate_pct", 100.0 * self.stats.read_hits as f64 / lookups as f64);
        out.gauge("occupancy_pages", self.slots.len() as f64);
        out.gauge("dirty_pages", self.dirty_count() as f64);
        out.counter("port_busy_ns", self.port.busy_time().as_nanos());
        out.counter("port_requests", self.port.request_count());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn buffer(cap: usize) -> DataBuffer {
        DataBuffer::new(cap, 4096, Bandwidth::gbytes_per_sec(2.0))
    }

    fn page(b: u8) -> Bytes {
        Bytes::from(vec![b; 4096])
    }

    /// Write a page that is all there at t = 0.
    fn put(buf: &mut DataBuffer, lpn: Lpn, data: Bytes) -> Grant {
        buf.write(SimTime::ZERO, SimDuration::ZERO, 4096, lpn, data)
    }

    #[test]
    fn write_then_read_hits() {
        let mut buf = buffer(4);
        put(&mut buf, 1, page(0xAA));
        let (data, _g) = buf.read(SimTime::ZERO, 1).expect("hit");
        assert_eq!(data[0], 0xAA);
        assert_eq!(buf.stats().read_hits, 1);
        assert!(buf.read(SimTime::ZERO, 2).is_none());
        assert_eq!(buf.stats().read_misses, 1);
    }

    #[test]
    fn port_serializes_accesses() {
        let mut buf = buffer(4);
        let g1 = put(&mut buf, 1, page(1));
        let g2 = put(&mut buf, 2, page(2));
        assert!(g2.start >= g1.end, "DRAM port is serial");
        // 4096B at 2 GB/s = 2048ns each.
        assert_eq!(g1.end.as_nanos(), 2048);
        assert_eq!(g2.end.as_nanos(), 4096);
    }

    #[test]
    fn a_page_is_in_one_unit_after_its_last_piece_lands() {
        let mut buf = buffer(4);
        // 16 pieces of 256 B, one every 140 ns from t = 1000 on; the port
        // takes 128 ns a piece and keeps up: in at 1000 + 15·140 + 128.
        let (first, period) = (SimTime::from_nanos(1_000), SimDuration::from_nanos(140));
        let g = buf.write(first, period, 256, 1, page(1));
        assert_eq!(g.end.as_nanos(), 1_000 + 15 * 140 + 128);
        assert_eq!(buf.port.busy_time().as_nanos(), 2_048, "held as long as for a page at once");
        assert_eq!(buf.port.request_count(), 1);
        // Behind a busy port the page is in a whole port time after it frees.
        let g2 = buf.write(first, period, 256, 2, page(2));
        assert_eq!(g2.end, g.end + SimDuration::from_nanos(2_048));
        // Arrivals faster than the port (70 ns apart): it starts with the
        // first piece and is the last to finish.
        let first = SimTime::from_nanos(10_000);
        let g3 = buf.write(first, SimDuration::from_nanos(70), 256, 3, page(3));
        assert_eq!(g3.end.as_nanos(), 10_000 + 2_048);
    }

    /// What [`DataBuffer::port_stream_in`] stands for: the port taken piece
    /// by piece, each on its own arrival, FIFO behind whatever holds it.
    /// Returns `(last piece in, busy time)`.
    fn walk_stream_in(
        mut free: SimTime,
        first: SimTime,
        period: SimDuration,
        service: SimDuration,
        n: u64,
    ) -> (SimTime, SimDuration) {
        let mut busy = SimDuration::ZERO;
        for k in 0..n {
            free = free.max(first + period * k) + service;
            busy += service;
        }
        (free, busy)
    }

    #[test]
    fn port_hold_matches_the_piece_by_piece_walk() {
        // Random (port free at, first arrival, period, service, pieces) on
        // both sides of service = period: the one hold ends where the walk's
        // last piece does and leaves the port as busy, for as long; the page
        // stays one request.
        let mut rng = simkit::DetRng::new(0xC07_7412);
        let (mut keeps_up, mut falls_behind) = (0, 0);
        for case in 0..4_000 {
            let n = rng.uniform(1, 96);
            let service = rng.uniform(1, 200);
            let period = SimDuration::from_nanos(match rng.uniform(0, 3) {
                0 => service,
                1 => rng.uniform(0, service),
                _ => rng.uniform(service, 400),
            });
            // 1 B/ns: `service` bytes a piece.
            let mut buf = DataBuffer::new(4, (n * service) as u32, Bandwidth::bytes_per_ns(1.0));
            if rng.chance(0.7) {
                buf.port.acquire(SimTime::ZERO, SimDuration::from_nanos(rng.uniform(1, 30_000)));
            }
            let (free, busy, requests) =
                (buf.port.busy_until(), buf.port.busy_time(), buf.port.request_count());
            let first = SimTime::from_nanos(rng.uniform(0, 20_000));

            let g = buf.port_stream_in(first, period, n * service, service);

            let service = SimDuration::from_nanos(service);
            let (end, walked) = walk_stream_in(free, first, period, service, n);
            assert_eq!(g.end, end, "case {case}: free {free}, first {first}, {n} x {service}");
            assert_eq!(buf.port.busy_until(), end, "case {case}");
            assert_eq!(buf.port.busy_time(), busy + walked, "case {case}");
            assert_eq!(buf.port.request_count(), requests + 1, "case {case}");
            if service <= period {
                keeps_up += 1;
            } else {
                falls_behind += 1;
            }
        }
        assert!(keeps_up > 500 && falls_behind > 500, "{keeps_up} / {falls_behind}");
    }

    #[test]
    fn dirty_pages_pin_until_clean() {
        let mut buf = buffer(2);
        put(&mut buf, 1, page(1));
        put(&mut buf, 2, page(2));
        put(&mut buf, 3, page(3));
        // Over capacity but all dirty: nothing evicted.
        assert_eq!(buf.occupancy(), 3);
        buf.mark_clean(1);
        // Now the clean page can go.
        assert_eq!(buf.occupancy(), 2);
        assert!(buf.peek(1).is_none());
        assert!(buf.peek(2).is_some());
    }

    #[test]
    fn cleaned_pages_evict_lru_first() {
        let mut buf = buffer(4);
        for lpn in 1..=4 {
            put(&mut buf, lpn, page(lpn as u8));
        }
        assert_eq!(buf.dirty_count(), 4);
        // Flushed out of write order: a page's place is its last touch's,
        // not its flush's.
        buf.mark_clean(3);
        buf.mark_clean(2);
        buf.mark_clean(1);
        assert_eq!(buf.dirty_count(), 1);
        put(&mut buf, 5, page(5));
        assert!(buf.peek(1).is_none(), "page 1 is the oldest clean page");
        // Touch 2 so 3 becomes the least recently used.
        buf.read(SimTime::ZERO, 2);
        put(&mut buf, 6, page(6));
        assert!(buf.peek(3).is_none() && buf.peek(2).is_some(), "then page 3");
        put(&mut buf, 7, page(7));
        assert!(buf.peek(2).is_none(), "then page 2");
        // 4 to 7 are dirty: pinned, over capacity or not.
        put(&mut buf, 8, page(8));
        assert_eq!(buf.occupancy(), 5);
        assert_eq!(buf.stats().evictions, 3);
    }

    /// The scanning buffer the ordered set replaced: one queue of every
    /// resident page by last touch, searched for the page on each touch and
    /// for the oldest clean page on each eviction.
    #[derive(Default)]
    struct ScanningLru {
        dirty: HashMap<Lpn, bool>,
        lru: Vec<Lpn>,
        evictions: u64,
    }

    impl ScanningLru {
        fn touch(&mut self, lpn: Lpn) {
            self.lru.retain(|l| *l != lpn);
            self.lru.push(lpn);
        }

        fn evict(&mut self, capacity: usize) {
            while self.dirty.len() > capacity {
                let Some(victim) = self.lru.iter().copied().find(|l| !self.dirty[l]) else { break };
                self.lru.retain(|l| *l != victim);
                self.dirty.remove(&victim);
                self.evictions += 1;
            }
        }
    }

    #[test]
    fn eviction_order_matches_the_scanning_reference() {
        // Random writes, hits, misses, flush completions in any order and
        // crashes on small buffers: after every step the same pages are
        // resident, the same are dirty, and as many were evicted.
        let mut rng = simkit::DetRng::new(0x1B0F);
        for case in 0..200 {
            let capacity = rng.uniform(1, 8) as usize;
            let lpns = rng.uniform(2, 24);
            let mut buf = buffer(capacity);
            let mut want = ScanningLru::default();
            for step in 0..400 {
                let lpn = rng.uniform(0, lpns - 1);
                match rng.uniform(0, 9) {
                    0..=3 => {
                        put(&mut buf, lpn, page(lpn as u8));
                        want.touch(lpn);
                        want.dirty.insert(lpn, true);
                    }
                    4..=5 => {
                        let hit = buf.read(SimTime::ZERO, lpn).is_some();
                        assert_eq!(hit, want.dirty.contains_key(&lpn), "case {case} step {step}");
                        if hit {
                            want.touch(lpn);
                        }
                    }
                    6..=8 => {
                        buf.mark_clean(lpn);
                        if let Some(d) = want.dirty.get_mut(&lpn) {
                            *d = false;
                        }
                    }
                    _ if rng.chance(0.1) => {
                        buf.crash();
                        want.dirty.clear();
                        want.lru.clear();
                    }
                    _ => {}
                }
                want.evict(capacity);
                for l in 0..lpns {
                    let resident = buf.peek(l).is_some();
                    assert_eq!(resident, want.dirty.contains_key(&l), "case {case} step {step}");
                }
                let dirty = want.dirty.values().filter(|d| **d).count();
                assert_eq!(buf.dirty_count(), dirty, "case {case} step {step}");
                assert_eq!(buf.stats().evictions, want.evictions, "case {case} step {step}");
            }
        }
    }

    #[test]
    fn crash_clears_everything() {
        let mut buf = buffer(4);
        put(&mut buf, 1, page(1));
        buf.crash();
        assert_eq!(buf.occupancy(), 0);
        assert!(buf.read(SimTime::ZERO, 1).is_none());
    }

    #[test]
    fn overwrite_replaces_content() {
        let mut buf = buffer(4);
        put(&mut buf, 1, page(1));
        put(&mut buf, 1, page(9));
        assert_eq!(buf.peek(1).unwrap()[0], 9);
        assert_eq!(buf.occupancy(), 1);
    }

    #[test]
    fn shared_port_contention_is_observable() {
        let mut buf = buffer(64);
        // Sustained "data buffering activity" then a CMB-style access: the
        // CMB access queues behind it (the Fig. 9 DRAM derating mechanism).
        for i in 0..8 {
            put(&mut buf, i, page(i as u8));
        }
        let g = buf.port_access(SimTime::ZERO, 4096);
        assert!(g.start.as_nanos() >= 8 * 2048);
    }
}
