//! Seeded FTL properties of a fresh device, replayable by seed (no external
//! framework): every good page is handed out exactly once, in page order
//! within its block, striped round-robin over the dies that still have
//! room, and then allocation fails; a retired block costs exactly the pages
//! it had not handed out.

use flash::{BlockAddr, DieAddr, FlashArray, FlashGeometry, FlashTiming, Ppa, ReliabilityConfig};
use simkit::DetRng;
use ssd::{AllocStream, Ftl};
use std::collections::{HashMap, HashSet};

/// An FTL over the tiny geometry with `bad_rate` of its blocks bad from
/// manufacture, plus its good-block count per die.
fn fresh(bad_rate: f64, seed: u64) -> (FlashGeometry, Ftl, Vec<u64>) {
    let g = FlashGeometry::tiny();
    let rel = ReliabilityConfig { initial_bad_block_rate: bad_rate };
    let array = FlashArray::new(g, FlashTiming::fast(), rel, seed);
    let good = (0..g.total_dies())
        .map(|di| {
            let (channel, die) = (di / g.dies_per_channel, di % g.dies_per_channel);
            (0..g.blocks_per_die)
                .filter(|&block| !array.is_bad(BlockAddr { die: DieAddr { channel, die }, block }))
                .count() as u64
        })
        .collect();
    let ftl = Ftl::new(g, &array, 0);
    (g, ftl, good)
}

fn die_index(g: &FlashGeometry, ppa: Ppa) -> usize {
    (ppa.channel() * g.dies_per_channel + ppa.die().die) as usize
}

/// The die a round-robin allocator serves next: the first from `cursor`
/// on, cyclically, with pages left.
fn next_die(left: &[u64], cursor: usize) -> Option<usize> {
    (0..left.len()).map(|k| (cursor + k) % left.len()).find(|&di| left[di] > 0)
}

#[test]
fn mapping_stays_unique_and_consistent() {
    for seed in 0..48u64 {
        let bad_rate = [0.0, 0.1, 0.3][seed as usize % 3];
        let stream = if seed % 2 == 0 { AllocStream::Host } else { AllocStream::Destage };
        let (g, mut ftl, good) = fresh(bad_rate, 0xF71_0000 + seed);
        let mut rng = DetRng::new(seed);
        let per_block = g.pages_per_block as u64;
        let mut left: Vec<u64> = good.iter().map(|b| b * per_block).collect();
        let capacity: u64 = left.iter().sum();
        let (mut cursor, mut handed) = (0, 0u64);
        let mut seen = HashSet::new();
        let mut next_page: HashMap<BlockAddr, u32> = HashMap::new();
        let mut model = HashMap::new();
        loop {
            let lpn = rng.uniform(0, 63);
            let Some(ppa) = ftl.allocate(lpn, stream) else { break };
            handed += 1;
            assert!(handed <= capacity, "seed {seed}: more pages than the good blocks hold");
            assert!(ppa.in_bounds(&g), "seed {seed}");
            assert!(seen.insert(ppa), "seed {seed}: {ppa:?} handed out twice");
            let page = next_page.entry(ppa.block).or_insert(0);
            assert_eq!(ppa.page, *page, "seed {seed}: out of page order in {:?}", ppa.block);
            *page += 1;
            let di = die_index(&g, ppa);
            assert_eq!(Some(di), next_die(&left, cursor), "seed {seed}: not round-robin");
            left[di] -= 1;
            cursor = (di + 1) % left.len();
            model.insert(lpn, ppa);
        }
        assert_eq!(handed, capacity, "seed {seed}: good blocks x pages per block");
        assert_eq!(ftl.allocate(0, stream), None, "seed {seed}: full stays full");
        assert_eq!(ftl.free_block_count(), 0, "seed {seed}");
        assert_eq!(ftl.stats().host_writes, capacity, "seed {seed}");
        // Each lpn maps to the page its last write was handed.
        assert_eq!(ftl.mapped_pages(), model.len(), "seed {seed}");
        for (lpn, ppa) in model {
            assert_eq!(ftl.lookup(lpn), Some(ppa), "seed {seed}: lpn {lpn}");
        }
    }
}

#[test]
fn retiring_an_active_block_costs_its_unallocated_pages() {
    for seed in 0..24u64 {
        let (g, mut ftl, good) = fresh([0.0, 0.2][seed as usize % 2], 0x2E71_0000 + seed);
        let capacity = good.iter().sum::<u64>() * g.pages_per_block as u64;
        let mut rng = DetRng::new(seed);
        // Part-way into the device, retire the block the last page came from.
        let before = rng.uniform(1, capacity / 2);
        let mut last = None;
        for lpn in 0..before {
            last = ftl.allocate(lpn, AllocStream::Host);
        }
        let victim = last.expect("room for the first half");
        ftl.retire_block(victim.block);
        let unallocated = (g.pages_per_block - victim.page - 1) as u64;
        let mut after = 0;
        while let Some(ppa) = ftl.allocate(after, AllocStream::Host) {
            assert_ne!(ppa.block, victim.block, "seed {seed}: allocated from a retired block");
            after += 1;
        }
        assert_eq!(before + after, capacity - unallocated, "seed {seed}");
    }
}
