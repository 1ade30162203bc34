//! Host-work counts, gated exactly against the committed
//! `BENCH_counts.json` at the repository root.
//!
//! Wall clock cannot settle a 10 % question on a shared host; a count made
//! by the program repeats exactly. Each slice runs a fixed, seeded workload
//! through the workspace's entry points and records integers a host
//! performance change moves: allocations, bytes allocated and the peak live
//! heap, counted on the test's own thread by the `counting` allocator that
//! `alloc_budget` also installs.
//!
//! The slice here is TPC-C at the benchmark's scale with no log backend:
//! the driver's 400 simulated ms, whose growth is the database's (each new
//! row and its index entry) and the runner's samples. Any difference fails
//! and prints the file as this build counts it; a change that moves a count
//! on purpose commits that file, so its diff is the change's record.
//!
//! Release only: a debug build runs the index and arena invariant checks,
//! whose allocations are not the program's. `scripts/check.sh` runs it.
mod counting;

use memdb::{Database, NoLog, TableId, WalConfig, WalManager};
use simkit::SimDuration;
use xssd_bench::driver::{self, DriverConfig};

#[global_allocator]
static ALLOCATOR: counting::CountingAlloc = counting::CountingAlloc;

const COUNTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_counts.json");

/// `"name": value` lines of one slice, in a fixed order.
fn tpcc_nolog() -> Vec<(&'static str, u64)> {
    let (mut db, mut workload, _) = tpcc::setup(tpcc::TpccConfig::bench(), 19);
    let rows = |db: &Database| -> u64 {
        let tables = (0..db.table_names().len()).filter_map(|t| db.table(t as TableId));
        tables.map(|t| t.len() as u64).sum()
    };
    let mut wal = WalManager::new(NoLog::new(), WalConfig::default());
    let cfg = DriverConfig {
        workers: 4,
        measure: SimDuration::from_millis(400),
        seed: 19,
        ..DriverConfig::default()
    };
    let rows_before = rows(&db);
    counting::reset_thread_peak();
    let before = counting::thread_counts();
    let report = driver::run(&mut db, &mut wal, &mut workload, &cfg);
    let after = counting::thread_counts();
    vec![
        ("commits", report.run.committed),
        ("rows_stored", rows(&db) - rows_before),
        ("allocations", after.allocs - before.allocs),
        ("bytes_allocated", after.bytes - before.bytes),
        ("peak_live_heap_bytes", (after.peak - before.live) as u64),
    ]
}

/// The counts file: one object per slice, one integer per line.
fn render(slices: &[(&str, Vec<(&str, u64)>)]) -> String {
    let mut out = String::from("{\n");
    for (i, (slice, counts)) in slices.iter().enumerate() {
        out += &format!("  \"{slice}\": {{\n");
        for (j, (name, value)) in counts.iter().enumerate() {
            let comma = if j + 1 < counts.len() { "," } else { "" };
            out += &format!("    \"{name}\": {value}{comma}\n");
        }
        out += if i + 1 < slices.len() { "  },\n" } else { "  }\n" };
    }
    out + "}\n"
}

#[test]
#[cfg_attr(debug_assertions, ignore = "counts are taken in release builds (scripts/check.sh)")]
fn host_counts_match_the_committed_file() {
    let counted = render(&[("tpcc_nolog", tpcc_nolog())]);
    let committed = std::fs::read_to_string(COUNTS).unwrap_or_default();
    if counted != committed {
        eprintln!("BENCH_counts.json as this build counts it:\n{counted}");
        panic!("host counts differ from the committed BENCH_counts.json (new file above)");
    }
}
