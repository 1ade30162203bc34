//! Allocation-regression guard over the database hot path.
//!
//! A counting global allocator (hand-rolled; no crates.io access) wraps the
//! system allocator and counts every `alloc`/`realloc`/`alloc_zeroed`. The
//! tests drive warmed-up TPC-C and YCSB workloads and assert the *average*
//! allocation count per committed transaction stays under an explicit
//! budget. The budgets are deliberately snug: the hot path pays one
//! refcounted image per written row plus the commit's record vector, and
//! amortized BTreeMap node splits — a regression back to per-read clones,
//! `Vec<u8>` keys, or per-field `String` decoding blows the budget
//! immediately.
//!
//! The averages are taken over enough transactions that test-harness noise
//! (a few allocations from the runner itself) cannot tip the assertion.
//!
//! The allocator also tracks the bytes live on the heap and their peak, and
//! one test holds the peak growth of a whole driver run per measured commit
//! under a budget: what the run keeps per commit is its latency sample and
//! the sample's tags, once. Another holds the destage pages of an eager
//! triple to one copy of the ring, not one per replica.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed, as requested (not as the system
/// allocator rounds them).
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The largest `LIVE` since it was last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        new
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Serializes the tests, setup included, so none counts another's
/// allocations or live bytes.
static MEASURE: Mutex<()> = Mutex::new(());

fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[test]
fn tpcc_transactions_stay_within_allocation_budget() {
    let guard = MEASURE.lock().unwrap();
    let (mut db, mut workload, mut rng) = tpcc::setup(tpcc::TpccConfig::small(), 11);
    // Warm up: fill the context pool and grow every scratch buffer to its
    // steady-state capacity.
    for _ in 0..500 {
        let _ = workload.execute(&mut db, &mut rng, 0);
    }
    let before = alloc_count();
    let mut committed = 0u64;
    for _ in 0..2000 {
        if workload.execute(&mut db, &mut rng, 0).is_ok() {
            committed += 1;
        }
    }
    let allocs = alloc_count() - before;
    drop(guard);
    let avg = allocs as f64 / committed.max(1) as f64;
    // Mixed-profile average. NewOrder writes ~15 rows (one image each),
    // Delivery ~30; plus the per-commit record vector, occasional BTreeMap
    // node splits, and the rare last-name String on the customer-selection
    // path. Measured ~15 avg; the budget leaves headroom for allocator and
    // split jitter, and a clone-per-read regression (100+ per txn) still
    // trips it at once.
    const BUDGET: f64 = 40.0;
    assert!(
        avg <= BUDGET,
        "TPC-C hot path regressed: {avg:.1} allocations per committed txn \
         (budget {BUDGET}, {allocs} over {committed} txns)"
    );
}

#[test]
fn ycsb_transactions_stay_within_allocation_budget() {
    let guard = MEASURE.lock().unwrap();
    let cfg =
        xssd_bench::ycsb::YcsbConfig { mix: xssd_bench::ycsb::YcsbMix::A, ..Default::default() };
    let (mut db, mut workload, mut rng) = xssd_bench::ycsb::setup(cfg, 13);
    use xssd_bench::driver::Workload;
    let kinds = workload.default_mix().to_vec();
    let pick = |rng: &mut simkit::DetRng| {
        let total: u32 = kinds.iter().sum();
        let mut p = rng.uniform(1, total as u64) as u32;
        for (i, w) in kinds.iter().enumerate() {
            if p <= *w {
                return i;
            }
            p -= w;
        }
        0
    };
    for _ in 0..500 {
        let kind = pick(&mut rng);
        let _ = workload.execute(&mut db, &mut rng, kind, 0);
    }
    let before = alloc_count();
    let mut committed = 0u64;
    for _ in 0..2000 {
        let kind = pick(&mut rng);
        if workload.execute(&mut db, &mut rng, kind, 0).is_ok() {
            committed += 1;
        }
    }
    let allocs = alloc_count() - before;
    drop(guard);
    let avg = allocs as f64 / committed.max(1) as f64;
    // Workload A (50/50 read/update): a read commits with only the record
    // vector (one allocation); an update adds the frozen value image.
    // Measured ~1.5 avg; budget 8 leaves room while still catching any
    // per-operation key or value clone creeping back in.
    const BUDGET: f64 = 8.0;
    assert!(
        avg <= BUDGET,
        "YCSB hot path regressed: {avg:.1} allocations per committed txn \
         (budget {BUDGET}, {allocs} over {committed} txns)"
    );
}

#[test]
fn a_measured_commit_keeps_one_latency_sample_on_the_heap() {
    let _guard = MEASURE.lock().unwrap();
    use memdb::{PmConfig, PmLog, WalConfig, WalManager};
    use simkit::SimDuration;
    use xssd_bench::driver::{self, DriverConfig};
    use xssd_bench::ycsb::{self, YcsbConfig, YcsbMix};
    // YCSB-A: its five kinds make every sample carry a kind tag, and the
    // 50 ms series a bucket tag. Reads and updates replace rows in place,
    // so the database itself does not grow.
    let (mut db, mut workload, _) =
        ycsb::setup(YcsbConfig { mix: YcsbMix::A, ..YcsbConfig::default() }, 17);
    let mut wal = WalManager::new(PmLog::new(PmConfig::default()), WalConfig::default());
    let cfg = DriverConfig {
        workers: 4,
        ramp_up: SimDuration::from_millis(20),
        measure: SimDuration::from_millis(1_500),
        seed: 17,
        series_bucket: Some(SimDuration::from_millis(50)),
        ..DriverConfig::default()
    };
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let report = driver::run(&mut db, &mut wal, &mut workload, &cfg);
    let growth = PEAK.load(Ordering::Relaxed) - before;
    let committed = report.run.committed;
    assert!(committed >= 200_000, "only {committed} measured commits");
    assert!(report.per_kind.len() >= 4 && report.series.len() >= 25);
    let per_commit = growth as f64 / committed as f64;
    eprintln!(
        "peak live heap growth: {growth} B over {committed} commits ({per_commit:.2} B each)"
    );
    // Measured 15.52 B (222 164 commits): an 8 B sample, a 1 B kind tag and
    // a 4 B bucket tag, each in a vector of up to twice its length. With
    // the sample stored again per kind and per bucket it was 27.92 B.
    const BUDGET: f64 = 20.0;
    assert!(
        per_commit <= BUDGET,
        "a measured commit holds {per_commit:.2} live heap bytes at the peak (budget {BUDGET})"
    );
}

#[test]
fn eager_replicas_hold_one_copy_of_the_destage_ring() {
    let _guard = MEASURE.lock().unwrap();
    use simkit::{SimDuration, SimTime};
    use xssd_core::{Cluster, VillarsConfig, XLogFile};
    // A primary and two eager secondaries destage the same log onto a
    // 256-page ring each, wrapped twice: the replicas' media hold the same
    // page content, which the cluster keeps once.
    let mut config = VillarsConfig::small();
    config.destage.ring_lbas = 256;
    // Room for two wraps on a device that never reclaims a page.
    config.conventional.geometry.blocks_per_die = 32;
    let ring_bytes = config.destage.ring_lbas * u64::from(config.conventional.geometry.page_bytes);
    let mut cl = Cluster::new();
    for _ in 0..3 {
        cl.add_device(config.clone());
    }
    let mut now = cl.configure_replication(SimTime::ZERO, 0, &[1, 2]);
    let mut file = XLogFile::open(0);
    let payload: Vec<u8> = (0..6 << 10).map(|i: u32| (i * 7 + i / 251) as u8).collect();
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let mut i = 0usize;
    while file.written() < 2 * ring_bytes {
        // 1–6 KiB, each write's bytes different from the last's.
        let data = &payload[i % 1024..][..1024 * (1 + i % 5)];
        let t1 = file.x_pwrite(&mut cl, now, data).expect("x_pwrite");
        // A think time that keeps the log slower than the flash programs
        // it (four dies, 50 us a page): no backlog of queued pages.
        now = file.x_fsync(&mut cl, t1).expect("x_fsync") + SimDuration::from_micros(10);
        i += 1;
    }
    cl.advance(now + SimDuration::from_millis(5));
    let growth = PEAK.load(Ordering::Relaxed) - before;
    let per_ring = growth as f64 / ring_bytes as f64;
    eprintln!("peak live heap growth: {growth} B, {per_ring:.3} destage rings of page content");
    // Measured 1.122 rings (the rest is the devices' maps and the pages in
    // flight); 3.155 with a copy of every page per device.
    const BUDGET: f64 = 1.25;
    assert!(
        per_ring <= BUDGET,
        "three replicas hold {per_ring:.3} rings of destage pages at the peak (budget {BUDGET})"
    );
}
