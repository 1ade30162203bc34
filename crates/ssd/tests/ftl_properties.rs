//! Randomized FTL invariant tests: mapping uniqueness, capacity accounting,
//! and GC state preservation under workloads drawn from [`DetRng`] across
//! many fixed seeds (replayable by seed, no external framework).

use flash::{FlashArray, FlashGeometry, FlashTiming, ReliabilityConfig};
use simkit::DetRng;
use ssd::{AllocStream, Ftl};
use std::collections::{HashMap, HashSet};

#[derive(Debug, Clone)]
enum Op {
    /// Write (allocate a new version of) lpn % working-set.
    Write(u64),
    /// Trim lpn % working-set.
    Trim(u64),
    /// Run one GC round (plan + erase bookkeeping).
    Gc,
}

fn random_ops(rng: &mut DetRng) -> Vec<Op> {
    let len = rng.uniform(1, 400) as usize;
    (0..len)
        .map(|_| match rng.uniform(0, 8) {
            0..=5 => Op::Write(rng.uniform(0, 64)),
            6 => Op::Trim(rng.uniform(0, 64)),
            _ => Op::Gc,
        })
        .collect()
}

fn fresh() -> (FlashGeometry, Ftl) {
    let g = FlashGeometry::tiny();
    let array = FlashArray::new(g, FlashTiming::fast(), ReliabilityConfig::perfect(), 99);
    let ftl = Ftl::new(g, &array, 2);
    (g, ftl)
}

#[test]
fn mapping_stays_unique_and_consistent() {
    for seed in 0..64u64 {
        let mut rng = DetRng::new(0xF71_0000 + seed);
        let ops = random_ops(&mut rng);
        let (g, mut ftl) = fresh();
        let mut model: HashMap<u64, ()> = HashMap::new();
        for op in ops {
            match op {
                Op::Write(lpn) => {
                    // Allocation may legitimately fail when space is
                    // exhausted and nothing is reclaimable without erases;
                    // run GC rounds until it succeeds or truly stuck.
                    let mut tries = 0;
                    loop {
                        if ftl.allocate(lpn, AllocStream::Host).is_some() {
                            model.insert(lpn, ());
                            break;
                        }
                        match ftl.plan_gc() {
                            Some(plan) => ftl.block_erased(plan.victim),
                            None => break, // genuinely full of live data
                        }
                        tries += 1;
                        assert!(tries < 128, "seed {seed}: GC loop runaway");
                    }
                }
                Op::Trim(lpn) => {
                    ftl.invalidate(lpn);
                    model.remove(&lpn);
                }
                Op::Gc => {
                    if let Some(plan) = ftl.plan_gc() {
                        // Moves must rebind exactly the live lpns of the victim.
                        for (lpn, old, new) in &plan.moves {
                            assert_ne!(old, new, "seed {seed}");
                            assert_eq!(ftl.lookup(*lpn), Some(*new), "seed {seed}");
                        }
                        ftl.block_erased(plan.victim);
                    }
                }
            }
            // Invariant 1: the mapped set equals the model's live set.
            assert_eq!(ftl.mapped_pages(), model.len(), "seed {seed}");
            for lpn in model.keys() {
                assert!(ftl.lookup(*lpn).is_some(), "seed {seed}: live lpn {lpn} unmapped");
            }
            // Invariant 2: physical addresses are unique across live lpns.
            let mut seen = HashSet::new();
            for lpn in model.keys() {
                let ppa = ftl.lookup(*lpn).expect("checked above");
                assert!(ppa.in_bounds(&g), "seed {seed}");
                assert!(seen.insert(ppa), "seed {seed}: ppa {ppa:?} mapped twice");
            }
            // Invariant 3: free-block accounting bounded by geometry.
            assert!(ftl.free_block_count() <= g.total_blocks() as usize, "seed {seed}");
        }
    }
}

#[test]
fn write_amplification_grows_only_with_gc() {
    for seed in 0..16u64 {
        let mut rng = DetRng::new(0x3A_0000 + seed);
        let overwrites = rng.uniform(1, 300) as usize;
        let (_g, mut ftl) = fresh();
        for i in 0..overwrites {
            let lpn = (i % 8) as u64;
            let mut tries = 0;
            while ftl.allocate(lpn, AllocStream::Host).is_none() {
                let plan = ftl.plan_gc().expect("overwritten blocks reclaimable");
                ftl.block_erased(plan.victim);
                tries += 1;
                assert!(tries < 64);
            }
        }
        let stats = ftl.stats();
        // Overwriting a tiny working set produces (almost) empty victims:
        // WA must stay close to 1.
        assert!(
            stats.write_amplification() < 1.5,
            "seed {seed}: WA {}",
            stats.write_amplification()
        );
    }
}

#[test]
fn wear_penalty_steers_victim_selection() {
    use flash::{FlashTiming, ReliabilityConfig};
    let g = FlashGeometry::tiny();
    let array = FlashArray::new(g, FlashTiming::fast(), ReliabilityConfig::perfect(), 7);
    let mut ftl = Ftl::new(g, &array, 2);
    // Fill two full blocks' worth of distinct lpns, then overwrite all of
    // them so several blocks are fully invalid (equal valid counts).
    let per_block = g.pages_per_block as u64;
    let dies = g.total_dies() as u64;
    for lpn in 0..per_block * dies {
        ftl.allocate(lpn, AllocStream::Host).unwrap();
    }
    for lpn in 0..per_block * dies {
        ftl.allocate(lpn, AllocStream::Host).unwrap();
    }
    // Without wear, greedy picks some victim V. With a huge penalty on V,
    // the planner must pick a different one.
    let baseline = ftl.plan_gc_weighted(|_| false, |_| 0).expect("victims exist");
    let avoided = baseline.victim;
    let alternative = ftl
        .plan_gc_weighted(|_| false, |b| if b == avoided { 1_000 } else { 0 })
        .expect("other victims exist");
    assert_ne!(alternative.victim, avoided, "penalty must steer selection");
}

#[test]
fn gc_plan_repeats_for_the_same_script() {
    // Two FTLs given the same script must relocate the victim's live pages
    // in the same order: the order decides each page's destination and so
    // the die timing of every relocation program.
    fn plan() -> ssd::GcPlan {
        let (_g, mut ftl) = fresh();
        for lpn in 0..200 {
            ftl.allocate(lpn, AllocStream::Host).unwrap();
        }
        for lpn in (0..200).step_by(3) {
            ftl.allocate(lpn, AllocStream::Host).unwrap();
        }
        ftl.plan_gc().expect("a fully allocated block exists")
    }
    let first = plan();
    assert!(first.moves.len() > 1, "the victim must hold several live pages");
    assert!(
        first.moves.windows(2).all(|w| w[0].1.page < w[1].1.page),
        "live pages move in the victim's page order: {:?}",
        first.moves
    );
    for _ in 0..8 {
        let again = plan();
        assert_eq!(again.victim, first.victim);
        assert_eq!(again.moves, first.moves);
    }
}
