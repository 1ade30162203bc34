//! Flash Translation Layer.
//!
//! "The Firmware runs the Flash Translation Layer (FTL), which is
//! responsible for finding empty Flash page(s) in which to place the data"
//! (paper §2.2). This is a page-mapping FTL: logical page number → physical
//! page address, with per-die, per-stream active blocks drawn from a
//! free-block pool.
//!
//! Fresh device only: the FTL never reclaims. An overwrite leaves the old
//! page stale for good, and a run that writes more pages than the raw
//! capacity stops with `device full` once [`Ftl::allocate`] returns `None`.

use flash::{BlockAddr, DieAddr, FlashArray, FlashGeometry, Ppa};
use std::collections::{HashMap, VecDeque};

/// Logical page number (namespace LBA when LBA size == flash page size).
pub type Lpn = u64;

/// Which write stream an allocation serves. Each stream gets its own active
/// block per die so that streams never interleave pages within one block —
/// NAND requires in-order programming per block, and the channel scheduler
/// only guarantees order within a traffic class. (This is also a small
/// multi-stream separation win, cf. multi-streamed SSDs in paper §8.1.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocStream {
    /// Host writes through the data buffer.
    Host,
    /// Fast-side destage writes.
    Destage,
}

impl AllocStream {
    const COUNT: usize = 2;
}

/// FTL statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct FtlStats {
    /// Page allocations, host and destage alike.
    pub host_writes: u64,
    /// Mapping-table lookups (lpn -> ppa translations).
    pub map_reads: u64,
    /// Mapping-table binds and rebinds.
    pub map_updates: u64,
}

/// The page-mapping FTL.
#[derive(Debug)]
pub struct Ftl {
    geometry: FlashGeometry,
    /// lpn -> current physical page.
    map: HashMap<Lpn, Ppa>,
    /// Per-die free (never allocated from) blocks.
    free_blocks: Vec<VecDeque<u32>>,
    /// Per-die, per-stream block currently receiving writes.
    active: Vec<[Option<BlockAddr>; AllocStream::COUNT]>,
    /// Pages allocated so far in each block, indexed like the array.
    filled: Vec<u32>,
    /// Round-robin die cursor for allocation striping.
    next_die: usize,
    stats: FtlStats,
    /// Lookup count; interior-mutable because [`Ftl::lookup`] takes `&self`.
    map_reads: std::cell::Cell<u64>,
}

impl Ftl {
    /// Build an FTL over `geometry`, skipping blocks `array` reports bad.
    /// `_unused` is ignored; it keeps the arity `benchmark/src/probes.rs` calls with.
    pub fn new(geometry: FlashGeometry, array: &FlashArray, _unused: usize) -> Self {
        let dies = geometry.total_dies() as usize;
        let mut free_blocks = vec![VecDeque::new(); dies];
        for ch in 0..geometry.channels {
            for die in 0..geometry.dies_per_channel {
                let d = DieAddr { channel: ch, die };
                let di = (ch * geometry.dies_per_channel + die) as usize;
                for b in 0..geometry.blocks_per_die {
                    let addr = BlockAddr { die: d, block: b };
                    if !array.is_bad(addr) {
                        free_blocks[di].push_back(b);
                    }
                }
            }
        }
        Ftl {
            geometry,
            map: HashMap::new(),
            free_blocks,
            active: vec![[None; AllocStream::COUNT]; dies],
            filled: vec![0; geometry.total_blocks() as usize],
            next_die: 0,
            stats: FtlStats::default(),
            map_reads: std::cell::Cell::new(0),
        }
    }

    fn die_index(&self, die: DieAddr) -> usize {
        (die.channel * self.geometry.dies_per_channel + die.die) as usize
    }

    fn block_index(&self, b: BlockAddr) -> usize {
        self.die_index(b.die) * self.geometry.blocks_per_die as usize + b.block as usize
    }

    fn die_of_index(&self, di: usize) -> DieAddr {
        DieAddr {
            channel: (di as u32) / self.geometry.dies_per_channel,
            die: (di as u32) % self.geometry.dies_per_channel,
        }
    }

    /// Current mapping of `lpn`, if any.
    pub fn lookup(&self, lpn: Lpn) -> Option<Ppa> {
        self.map_reads.set(self.map_reads.get() + 1);
        self.map.get(&lpn).copied()
    }

    /// Total free blocks across all dies.
    pub fn free_block_count(&self) -> usize {
        self.free_blocks.iter().map(|q| q.len()).sum()
    }

    /// FTL statistics.
    pub fn stats(&self) -> FtlStats {
        FtlStats { map_reads: self.map_reads.get(), ..self.stats }
    }

    /// Number of live logical pages.
    pub fn mapped_pages(&self) -> usize {
        self.map.len()
    }

    /// Allocate a physical page for (a new version of) `lpn` on `stream`,
    /// striping across dies round-robin, and bind `lpn` to it; the previous
    /// page, if any, is stale for good. Returns `None` when no die has a
    /// free page: the device is full.
    pub fn allocate(&mut self, lpn: Lpn, stream: AllocStream) -> Option<Ppa> {
        let dies = self.active.len();
        for probe in 0..dies {
            let di = (self.next_die + probe) % dies;
            if let Some(ppa) = self.allocate_on_die(di, stream) {
                self.next_die = (di + 1) % dies;
                self.stats.host_writes += 1;
                self.stats.map_updates += 1;
                self.map.insert(lpn, ppa);
                return Some(ppa);
            }
        }
        None
    }

    fn allocate_on_die(&mut self, di: usize, stream: AllocStream) -> Option<Ppa> {
        let si = stream as usize;
        // Refill the active block if missing or full.
        let need_new = match self.active[di][si] {
            None => true,
            Some(b) => self.filled[self.block_index(b)] >= self.geometry.pages_per_block,
        };
        if need_new {
            let block = self.free_blocks[di].pop_front()?;
            self.active[di][si] = Some(BlockAddr { die: self.die_of_index(di), block });
        }
        let b = self.active[di][si].expect("active block just ensured");
        let bi = self.block_index(b);
        let page = self.filled[bi];
        self.filled[bi] += 1;
        Some(Ppa { block: b, page })
    }

    /// Take `block` out of circulation after a failed program: it leaves its
    /// die's active slots and the free pool for good, and its unallocated
    /// pages are lost to capacity. The caller rewrites only the lpn whose
    /// program failed; the block's other lpns stay mapped to it, and
    /// [`FlashArray::read`] rejects every read of a bad block.
    pub fn retire_block(&mut self, block: BlockAddr) {
        let di = self.die_index(block.die);
        for slot in self.active[di].iter_mut() {
            if *slot == Some(block) {
                *slot = None;
            }
        }
        self.free_blocks[di].retain(|b| *b != block.block);
    }
}

impl simkit::Instrument for Ftl {
    fn instrument(&self, out: &mut simkit::Scope<'_>) {
        let stats = self.stats();
        out.counter("host_writes", stats.host_writes);
        // `gc_writes`, `gc_erases` and `write_amplification` are constants
        // (there is no GC); the paths stay for the goldens and the
        // benchmark's checks and layer metrics that read them.
        out.counter("gc_writes", 0);
        out.counter("gc_erases", 0);
        out.counter("map_reads", stats.map_reads);
        out.counter("map_updates", stats.map_updates);
        out.gauge("write_amplification", 1.0);
        out.gauge("mapped_pages", self.map.len() as f64);
        out.gauge("free_blocks", self.free_block_count() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash::{FlashTiming, ReliabilityConfig};

    fn setup() -> (FlashArray, Ftl) {
        let g = FlashGeometry::tiny();
        let array = FlashArray::new(g, FlashTiming::fast(), ReliabilityConfig::perfect(), 1);
        let ftl = Ftl::new(g, &array, 2);
        (array, ftl)
    }

    #[test]
    fn allocation_stripes_across_dies() {
        let (_a, mut ftl) = setup();
        let p0 = ftl.allocate(0, AllocStream::Host).unwrap();
        let p1 = ftl.allocate(1, AllocStream::Host).unwrap();
        let p2 = ftl.allocate(2, AllocStream::Host).unwrap();
        let p3 = ftl.allocate(3, AllocStream::Host).unwrap();
        let dies: std::collections::HashSet<_> = [p0, p1, p2, p3].iter().map(|p| p.die()).collect();
        assert_eq!(dies.len(), 4, "four dies in tiny geometry, all used");
        assert_eq!(ftl.lookup(0), Some(p0));
    }

    #[test]
    fn pages_allocate_in_order_within_block() {
        let (_a, mut ftl) = setup();
        // Allocate enough to revisit the same die: tiny has 4 dies.
        let first = ftl.allocate(0, AllocStream::Host).unwrap();
        for lpn in 1..4 {
            ftl.allocate(lpn, AllocStream::Host).unwrap();
        }
        let second = ftl.allocate(4, AllocStream::Host).unwrap();
        assert_eq!(second.block, first.block);
        assert_eq!(second.page, first.page + 1);
    }

    #[test]
    fn overwrite_invalidates_old_version() {
        let (_a, mut ftl) = setup();
        let old = ftl.allocate(7, AllocStream::Host).unwrap();
        let new = ftl.allocate(7, AllocStream::Host).unwrap();
        assert_ne!(old, new);
        assert_eq!(ftl.lookup(7), Some(new));
        assert_eq!(ftl.mapped_pages(), 1);
    }

    #[test]
    fn retire_block_removes_from_circulation() {
        let (_a, mut ftl) = setup();
        let p = ftl.allocate(0, AllocStream::Host).unwrap();
        let free_before = ftl.free_block_count();
        ftl.retire_block(p.block);
        // The active block was retired; next allocation opens a new block.
        let q = ftl.allocate(1, AllocStream::Host).unwrap();
        assert_ne!(q.block, p.block);
        assert!(ftl.free_block_count() <= free_before);
    }

    #[test]
    fn write_amplification_starts_at_one() {
        // And stays there through overwrites: with no GC, the GC exports
        // are constants.
        let (_a, mut ftl) = setup();
        for lpn in [0, 1, 0, 0] {
            ftl.allocate(lpn, AllocStream::Host).unwrap();
        }
        let mut reg = simkit::MetricsRegistry::new();
        reg.collect("ftl", &ftl);
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("ftl.write_amplification"), 1.0);
        assert_eq!(snap.counter("ftl.host_writes"), 4);
        assert_eq!(snap.counter("ftl.gc_writes"), 0);
        assert_eq!(snap.counter("ftl.gc_erases"), 0);
        assert!(snap.get("ftl.gc_erases").is_some(), "the path is exported");
    }

    #[test]
    fn ftl_skips_initially_bad_blocks() {
        let g = FlashGeometry::tiny();
        let rel = ReliabilityConfig { initial_bad_block_rate: 0.3, ..ReliabilityConfig::perfect() };
        let array = FlashArray::new(g, FlashTiming::fast(), rel, 11);
        let ftl = Ftl::new(g, &array, 2);
        assert!(ftl.free_block_count() < g.total_blocks() as usize);
        assert!(ftl.free_block_count() > 0);
    }
}
