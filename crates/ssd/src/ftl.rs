//! Flash Translation Layer.
//!
//! "The Firmware runs the Flash Translation Layer (FTL), which is
//! responsible for finding empty Flash page(s) in which to place the data"
//! (paper §2.2). This is a page-mapping FTL: logical page number → physical
//! page address, with per-die active blocks, a free-block pool, validity
//! accounting, and greedy garbage collection.

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
    /// GC relocations.
    Gc,
    /// Fast-side destage writes.
    Destage,
}

impl AllocStream {
    const COUNT: usize = 3;

    fn index(self) -> usize {
        match self {
            AllocStream::Host => 0,
            AllocStream::Gc => 1,
            AllocStream::Destage => 2,
        }
    }
}

/// Validity/occupancy state of one physical block.
#[derive(Debug, Clone, Copy, Default)]
struct BlockInfo {
    /// Pages allocated (programmed or scheduled) so far.
    allocated: u32,
    /// Pages still holding live data.
    valid: u32,
    /// Permanently out of circulation (grown bad / failed erase).
    retired: bool,
}

/// What garbage collection decided to do.
#[derive(Debug, Clone)]
pub struct GcPlan {
    /// The victim block to erase once its live pages move.
    pub victim: BlockAddr,
    /// Live pages to relocate: `(lpn, old_ppa, new_ppa)`.
    pub moves: Vec<(Lpn, Ppa, Ppa)>,
}

/// FTL statistics (write amplification observability).
#[derive(Debug, Clone, Copy, Default)]
pub struct FtlStats {
    /// Host-initiated page allocations.
    pub host_writes: u64,
    /// GC-initiated page relocations.
    pub gc_writes: u64,
    /// Blocks erased by GC.
    pub gc_erases: u64,
    /// Mapping-table lookups (lpn -> ppa translations).
    pub map_reads: u64,
    /// Mapping-table mutations (binds, rebinds, trims).
    pub map_updates: u64,
}

impl FtlStats {
    /// Write amplification factor: (host + gc writes) / host writes.
    pub fn write_amplification(&self) -> f64 {
        if self.host_writes == 0 {
            1.0
        } else {
            (self.host_writes + self.gc_writes) as f64 / self.host_writes as f64
        }
    }
}

/// The page-mapping FTL.
#[derive(Debug)]
pub struct Ftl {
    geometry: FlashGeometry,
    /// lpn -> current physical page.
    map: HashMap<Lpn, Ppa>,
    /// physical page -> owning lpn (for GC validity scans).
    reverse: HashMap<Ppa, Lpn>,
    /// Per-die free (erased, not yet active) blocks.
    free_blocks: Vec<VecDeque<u32>>,
    /// Per-die, per-stream block currently receiving writes.
    active: Vec<[Option<BlockAddr>; AllocStream::COUNT]>,
    /// Per-block accounting, indexed like the array.
    blocks: Vec<BlockInfo>,
    /// Round-robin die cursor for allocation striping.
    next_die: usize,
    /// Free blocks (total) below which GC should run.
    gc_threshold: usize,
    stats: FtlStats,
    /// Lookup count; interior-mutable because [`Ftl::lookup`] takes `&self`.
    map_reads: std::cell::Cell<u64>,
}

impl Ftl {
    /// Build an FTL over `geometry`, skipping blocks `array` reports bad.
    pub fn new(geometry: FlashGeometry, array: &FlashArray, gc_threshold: usize) -> Self {
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
            reverse: HashMap::new(),
            free_blocks,
            active: vec![[None; AllocStream::COUNT]; dies],
            blocks: vec![BlockInfo::default(); geometry.total_blocks() as usize],
            next_die: 0,
            gc_threshold,
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

    /// Whether GC should run now.
    pub fn needs_gc(&self) -> bool {
        self.free_block_count() < self.gc_threshold
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
    /// striping across dies round-robin. Invalidates the previous mapping.
    /// Returns `None` when no die has a free page (device full — callers
    /// must GC).
    pub fn allocate(&mut self, lpn: Lpn, stream: AllocStream) -> Option<Ppa> {
        let ppa = self.allocate_raw(stream)?;
        match stream {
            AllocStream::Gc => self.stats.gc_writes += 1,
            _ => self.stats.host_writes += 1,
        }
        self.install(lpn, ppa);
        Some(ppa)
    }

    /// Allocate without binding to an lpn (GC relocation destination).
    fn allocate_raw(&mut self, stream: AllocStream) -> Option<Ppa> {
        let dies = self.active.len();
        for probe in 0..dies {
            let di = (self.next_die + probe) % dies;
            if let Some(ppa) = self.allocate_on_die(di, stream) {
                self.next_die = (di + 1) % dies;
                return Some(ppa);
            }
        }
        None
    }

    fn allocate_on_die(&mut self, di: usize, stream: AllocStream) -> Option<Ppa> {
        let si = stream.index();
        // Refill the active block if missing or full.
        let need_new = match self.active[di][si] {
            None => true,
            Some(b) => self.blocks[self.block_index(b)].allocated >= self.geometry.pages_per_block,
        };
        if need_new {
            let block = self.free_blocks[di].pop_front()?;
            self.active[di][si] = Some(BlockAddr { die: self.die_of_index(di), block });
        }
        let b = self.active[di][si].expect("active block just ensured");
        let bi = self.block_index(b);
        let page = self.blocks[bi].allocated;
        self.blocks[bi].allocated += 1;
        Some(Ppa { block: b, page })
    }

    /// Bind `lpn` to `ppa`, releasing any previous physical page.
    fn install(&mut self, lpn: Lpn, ppa: Ppa) {
        self.stats.map_updates += 1;
        if let Some(old) = self.map.insert(lpn, ppa) {
            let oi = self.block_index(old.block);
            debug_assert!(self.blocks[oi].valid > 0);
            self.blocks[oi].valid = self.blocks[oi].valid.saturating_sub(1);
            self.reverse.remove(&old);
        }
        let bi = self.block_index(ppa.block);
        self.blocks[bi].valid += 1;
        self.reverse.insert(ppa, lpn);
    }

    /// Explicitly invalidate `lpn` (trim).
    pub fn invalidate(&mut self, lpn: Lpn) {
        self.stats.map_updates += 1;
        if let Some(old) = self.map.remove(&lpn) {
            let oi = self.block_index(old.block);
            self.blocks[oi].valid = self.blocks[oi].valid.saturating_sub(1);
            self.reverse.remove(&old);
        }
    }

    /// Mark a block bad after a failed program: drop it from circulation and
    /// return a replacement allocation for the lpn that failed.
    pub fn retire_block(&mut self, block: BlockAddr) {
        let di = self.die_index(block.die);
        for slot in self.active[di].iter_mut() {
            if *slot == Some(block) {
                *slot = None;
            }
        }
        let bi = self.block_index(block);
        self.blocks[bi].retired = true;
        self.free_blocks[di].retain(|b| *b != block.block);
        // Live pages in the retired block must be rewritten by the caller;
        // validity bookkeeping stays until each lpn is reallocated.
    }

    /// Plan one round of greedy GC: pick the full block with the fewest
    /// valid pages, allocate destinations for its live data. Returns `None`
    /// when no victim exists (nothing reclaimable).
    pub fn plan_gc(&mut self) -> Option<GcPlan> {
        self.plan_gc_excluding(|_| false)
    }

    /// [`Ftl::plan_gc`] with a victim filter: blocks for which `exclude`
    /// returns true are skipped (the device excludes blocks with in-flight
    /// programs — firmware never collects a block still being written).
    pub fn plan_gc_excluding(&mut self, exclude: impl Fn(BlockAddr) -> bool) -> Option<GcPlan> {
        self.plan_gc_weighted(exclude, |_| 0)
    }

    /// Greedy GC with a wear-aware cost: the victim minimizes
    /// `valid_pages + wear_penalty(block)`. Passing the block's P/E count
    /// (scaled) as the penalty steers collection away from worn blocks —
    /// simple cost-based wear leveling layered on greedy reclamation.
    pub fn plan_gc_weighted(
        &mut self,
        exclude: impl Fn(BlockAddr) -> bool,
        wear_penalty: impl Fn(BlockAddr) -> u32,
    ) -> Option<GcPlan> {
        // Victim: a block that is fully allocated, not active, with minimum
        // valid count.
        let mut victim: Option<(BlockAddr, u32)> = None;
        for di in 0..self.active.len() {
            let die = self.die_of_index(di);
            for b in 0..self.geometry.blocks_per_die {
                let addr = BlockAddr { die, block: b };
                let bi = self.block_index(addr);
                let info = self.blocks[bi];
                let in_free = self.free_blocks[di].contains(&b);
                let is_active = self.active[di].contains(&Some(addr));
                if in_free
                    || is_active
                    || info.retired
                    || info.allocated < self.geometry.pages_per_block
                    || exclude(addr)
                {
                    continue;
                }
                let score = info.valid + wear_penalty(addr);
                if victim.is_none_or(|(_, v)| score < v) {
                    victim = Some((addr, score));
                }
            }
        }
        let (victim, _) = victim?;
        // Collect live pages of the victim, in page order: the order fixes
        // each page's destination, so it must not depend on the hasher.
        let vi = self.block_index(victim);
        let live: Vec<(Lpn, Ppa)> = (0..self.geometry.pages_per_block)
            .map(|page| Ppa { block: victim, page })
            .filter_map(|ppa| self.reverse.get(&ppa).map(|lpn| (*lpn, ppa)))
            .collect();
        let mut moves = Vec::with_capacity(live.len());
        for (lpn, old) in live {
            let new = self.allocate_raw(AllocStream::Gc)?;
            self.stats.gc_writes += 1;
            self.install(lpn, new);
            moves.push((lpn, old, new));
        }
        debug_assert_eq!(self.blocks[vi].valid, 0, "victim must be empty after moves");
        Some(GcPlan { victim, moves })
    }

    /// Record that `block` was erased: it returns to the free pool.
    pub fn block_erased(&mut self, block: BlockAddr) {
        let bi = self.block_index(block);
        self.blocks[bi] = BlockInfo::default();
        let di = self.die_index(block.die);
        self.free_blocks[di].push_back(block.block);
        self.stats.gc_erases += 1;
    }
}

impl simkit::Instrument for Ftl {
    fn instrument(&self, out: &mut simkit::Scope<'_>) {
        let stats = self.stats();
        out.counter("host_writes", stats.host_writes);
        out.counter("gc_writes", stats.gc_writes);
        out.counter("gc_erases", stats.gc_erases);
        out.counter("map_reads", stats.map_reads);
        out.counter("map_updates", stats.map_updates);
        out.gauge("write_amplification", stats.write_amplification());
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
    fn invalidate_unmaps() {
        let (_a, mut ftl) = setup();
        ftl.allocate(3, AllocStream::Host).unwrap();
        ftl.invalidate(3);
        assert_eq!(ftl.lookup(3), None);
        assert_eq!(ftl.mapped_pages(), 0);
        // Double invalidate is a no-op.
        ftl.invalidate(3);
    }

    #[test]
    fn device_fills_then_gc_reclaims() {
        let g = FlashGeometry::tiny();
        let (_a, mut ftl) = setup();
        let total = g.total_pages();
        // Overwrite a small working set repeatedly until allocation fails.
        let working_set = 8u64;
        let mut writes = 0u64;
        loop {
            let lpn = writes % working_set;
            if ftl.allocate(lpn, AllocStream::Host).is_none() {
                break;
            }
            writes += 1;
            assert!(writes <= total, "must exhaust within total page count");
        }
        assert_eq!(ftl.free_block_count(), 0);
        // GC finds victims with zero valid pages (fully overwritten blocks).
        let plan = ftl.plan_gc().expect("reclaimable victim exists");
        assert!(plan.moves.len() <= working_set as usize);
        ftl.block_erased(plan.victim);
        assert_eq!(ftl.free_block_count(), 1);
        // And allocation works again.
        assert!(ftl.allocate(0, AllocStream::Host).is_some());
    }

    #[test]
    fn gc_relocates_live_pages() {
        let (_a, mut ftl) = setup();
        let g = FlashGeometry::tiny();
        // Fill one block's worth on die 0 only by forcing round-robin to
        // wrap: allocate pages for distinct lpns until one block fills.
        let per_block = g.pages_per_block as u64;
        let dies = g.total_dies() as u64;
        for lpn in 0..per_block * dies {
            ftl.allocate(lpn, AllocStream::Host).unwrap();
        }
        // Overwrite most lpns, leaving a few live in early blocks.
        for lpn in 0..per_block * dies - 4 {
            ftl.allocate(lpn, AllocStream::Host).unwrap();
        }
        let live_before = ftl.mapped_pages();
        let plan = ftl.plan_gc().expect("victim with few live pages");
        // Every move rebinds the same lpn to a fresh page.
        for (lpn, old, new) in &plan.moves {
            assert_ne!(old, new);
            assert_eq!(ftl.lookup(*lpn), Some(*new));
        }
        assert_eq!(ftl.mapped_pages(), live_before);
        assert!(ftl.stats().gc_writes as usize >= plan.moves.len());
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
        let (_a, mut ftl) = setup();
        assert_eq!(ftl.stats().write_amplification(), 1.0);
        ftl.allocate(0, AllocStream::Host).unwrap();
        assert_eq!(ftl.stats().write_amplification(), 1.0);
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
