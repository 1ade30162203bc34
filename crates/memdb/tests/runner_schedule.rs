//! Pins both log-writer schedules of `memdb::runner`'s worker loop.
//!
//! `log_pipeline_depth == 1` is the serialized writer of paper §6.1 (every
//! full group is sealed and queued behind the writer); deeper, up to
//! `depth` groups ride the device and a full batch with no free slot stays
//! open. The figure goldens only pin depth 1 and only the benchmark's
//! `ycsb_nvme` digest pins depth > 1, so this suite pins both here, on
//! three backends, as exact fingerprints: a change to the worker pick, the
//! RNG draw order, the flush cadence, the back-pressure rules or the
//! report resolution order moves at least one of them.
//!
//! The constants were recorded at the commit *before* the two loops were
//! folded into one (PR 17); they are not to be regenerated by a refactor.
//! The two `nvme()` pins were re-recorded by PR 24, a model change on the
//! conventional data path (a write's data is in the device's buffer one
//! TLP after its DMA lands, not a page's port time later, so every log
//! write is acked sooner and more groups fit the run); the `pm()` and
//! `xssd()` pins did not move.
//!
//! `nvme()` runs on eight times the tiny geometry's blocks (same channels,
//! dies and pages, so the same physical pages), since the conventional
//! SSD has no garbage collector and the pipelined run writes more than 512
//! pages. Its depth-4 pin was re-recorded then, measured on this roomier
//! geometry at the commit before the collector was deleted: the old pin
//! had the collector's relocations slowing the pipelined writer. The
//! depth-1 pin did not move.

use memdb::{
    keys, run_workload, Database, LogBackend, NvmeLog, PmConfig, PmLog, RunnerConfig, TxnOutcome,
    WalConfig, WalManager, XssdLog,
};
use simkit::{DetRng, SimDuration};
use ssd::{ConventionalSsd, SsdConfig};
use xssd_core::{Cluster, VillarsConfig};

/// The runner unit tests' counter-bumping workload (~200-byte records).
fn bump_workload(db: &mut Database, rng: &mut DetRng, _w: usize) -> TxnOutcome {
    let t = 0;
    let mut ctx = db.begin();
    let key = keys::composite(&[rng.uniform(0, 999) as u32]);
    let mut row = db.get(&mut ctx, t, &key).map(|r| r.to_vec()).unwrap_or_else(|| vec![0u8; 160]);
    row[0] = row[0].wrapping_add(1);
    if db.peek(t, &key).is_some() {
        db.update(&mut ctx, t, key, row);
    } else {
        db.insert(&mut ctx, t, key, row);
    }
    db.commit(ctx)
}

/// FNV-1a over the bit patterns of the latency samples, in order.
fn fnv1a_bits(samples: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for s in samples {
        for b in s.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// What one run is pinned by.
#[derive(Debug, PartialEq, Eq)]
struct Schedule {
    committed: u64,
    aborted: u64,
    flushes: u64,
    log_bytes: u64,
    max_log_inflight: u64,
    elapsed_ns: u64,
    latency_fnv: u64,
}

/// 8 workers over `backend` with a 2 KiB group threshold — small enough
/// that the writer is the bottleneck and every back-pressure rule fires.
fn schedule<B: LogBackend>(backend: B, depth: usize, millis: u64) -> Schedule {
    let mut db = Database::new();
    db.create_table("counters");
    let mut wal =
        WalManager::new(backend, WalConfig { group_threshold: 2 << 10, ..WalConfig::default() });
    let cfg = RunnerConfig {
        workers: 8,
        duration: SimDuration::from_millis(millis),
        log_pipeline_depth: depth,
        ..RunnerConfig::default()
    };
    let r = run_workload(&mut db, &mut wal, cfg, bump_workload);
    assert_eq!(r.committed as usize, r.latency_us.len(), "every commit resolves to a sample");
    Schedule {
        committed: r.committed,
        aborted: r.aborted,
        flushes: r.flushes,
        log_bytes: r.log_bytes,
        max_log_inflight: r.max_log_inflight,
        elapsed_ns: r.elapsed.as_nanos(),
        latency_fnv: fnv1a_bits(r.latency_us.samples()),
    }
}

/// A long fence makes durability lag the hand-off, so groups overlap.
fn pm() -> PmLog {
    PmLog::new(PmConfig { fence: SimDuration::from_micros(200), ..PmConfig::default() })
}

fn nvme() -> NvmeLog {
    let mut cfg = SsdConfig::small();
    cfg.geometry.blocks_per_die = 64;
    NvmeLog::new(ConventionalSsd::new(cfg), 0, 64)
}

fn xssd() -> XssdLog {
    let mut cluster = Cluster::new();
    let dev = cluster.add_device(VillarsConfig::small());
    XssdLog::new(cluster, dev, "villars-sram")
}

fn pinned(
    committed: u64,
    flushes: u64,
    log_bytes: u64,
    max_log_inflight: u64,
    elapsed_ns: u64,
    latency_fnv: u64,
) -> Schedule {
    Schedule {
        committed,
        aborted: 0,
        flushes,
        log_bytes,
        max_log_inflight,
        elapsed_ns,
        latency_fnv,
    }
}

#[test]
fn serialized_writer_schedule_is_pinned() {
    assert_eq!(
        schedule(pm(), 1, 20),
        pinned(967, 97, 201_136, 1, 20_358_682, 10_933_915_487_603_083_728)
    );
    assert_eq!(
        schedule(nvme(), 1, 20),
        pinned(3277, 328, 681_616, 1, 20_342_964, 8_701_959_010_956_949)
    );
    assert_eq!(
        schedule(xssd(), 1, 20),
        pinned(5929, 593, 1_233_232, 1, 20_026_163, 9_075_471_596_201_053_521)
    );
}

#[test]
fn pipelined_writer_schedule_is_pinned() {
    assert_eq!(
        schedule(pm(), 4, 20),
        pinned(5774, 349, 1_200_992, 5, 20_228_898, 14_513_796_045_472_438_059)
    );
    assert_eq!(
        schedule(nvme(), 4, 20),
        pinned(5929, 593, 1_233_232, 4, 20_090_489, 9_515_011_996_708_484_346)
    );
    assert_eq!(
        schedule(xssd(), 4, 20),
        pinned(5929, 593, 1_233_232, 2, 20_026_491, 10_394_000_629_155_942_174)
    );
}

#[test]
fn tail_group_is_submitted_even_when_every_slot_is_taken() {
    // The run ends with both slots occupied and an open batch: the tail
    // goes to the writer regardless, so the high-water mark reads
    // `depth + 1` (it feeds the benchmark's `memdb.log.max_inflight`).
    let s = schedule(pm(), 2, 5);
    assert_eq!(s.max_log_inflight, 3);
    assert_eq!(s, pinned(767, 45, 159_536, 3, 5_157_023, 5_232_931_261_630_972_538));
}
