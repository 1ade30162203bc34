//! ablation_recovery — recovery cost vs. checkpoint interval vs. run
//! length.
//!
//! The lifecycle claim (docs/ROBUSTNESS.md, "Log lifecycle"): crash
//! recovery replays *latest snapshot + the device's log suffix after it*
//! — its cost is a function of the checkpoint interval, never of total
//! history. This harness proves it by grid: YCSB-A runs of increasing
//! length (run-length axis) under three checkpoint cadences (interval
//! axis), each ending in a power failure and a timed restore + suffix
//! replay from the destage ring that must reproduce the live database
//! fingerprint exactly.
//!
//! Each cell drives the declarative driver in fixed chunks on the
//! blocking log path; after every `interval` chunks (except the last
//! boundary, so a replay suffix always exists) it writes a ping-pong
//! checkpoint through the conventional block interface. The claims its
//! golden is held to are the `recovery_*` predicates in
//! `crates/bench/tests/paper_shapes.rs`.

use memdb::{durable_log_stream, recover, Checkpointer, WalConfig, WalManager, XssdLog};
use simkit::{MetricsRegistry, SimDuration, Snapshot};
use xssd_bench::driver::{self, DriverConfig};
use xssd_bench::table::{Cell, Col, Table};
use xssd_bench::ycsb::{self, YcsbConfig};
use xssd_bench::{cli, section, sweep, Measurement, Report};
use xssd_core::{Cluster, VillarsConfig};

/// Driver chunk length, in milliseconds; checkpoints land on chunk
/// boundaries.
const CHUNK_MS: u64 = 10;
/// Run lengths, in chunks.
const LENGTHS: [usize; 3] = [4, 8, 16];
/// Checkpoint cadences, in chunks between checkpoints (0 = never).
const INTERVALS: [(usize, &str); 3] = [(1, "every-1"), (2, "every-2"), (0, "none")];
/// Workload seed (fixed; the grid axes alone distinguish cells).
const SEED: u64 = 0x4EC0;

/// What one grid cell produced.
struct Outcome {
    committed: u64,
    log_bytes: u64,
    checkpoints: u64,
    restore_us: f64,
    replay_bytes: u64,
    replay_records: u64,
    snapshot: Snapshot,
}

fn run_cell(interval: usize, chunks: usize) -> Outcome {
    let (mut db, mut workload, _rng) = ycsb::setup(YcsbConfig::default(), SEED);
    let mut cluster = Cluster::new();
    let dev = cluster.add_device(VillarsConfig::villars_sram());
    let mut wal = WalManager::new(
        XssdLog::new(cluster, dev, "villars-sram"),
        WalConfig { group_threshold: 4 << 10, ..WalConfig::default() },
    );
    // Ping-pong snapshot slots on the conventional side, clear of the
    // destage ring (LBAs 0..4096 on this config).
    let mut ck = Checkpointer::new(dev, 8192, 256);

    let mut committed = 0u64;
    let mut checkpoints = 0u64;
    let mut snap_offset = 0u64;
    for chunk in 0..chunks {
        // Each driver call restarts its workload clock at zero while the
        // backend timeline stays monotonic, so chunk `i` gets a window of
        // `(i + 1) * CHUNK_MS`: the first flush lands at the backend's
        // current clock (~`i * CHUNK_MS`), leaving one chunk of effective
        // measure time.
        let cfg = DriverConfig {
            workers: 2,
            measure: SimDuration::from_millis(CHUNK_MS * (chunk as u64 + 1)),
            seed: SEED,
            log_pipeline_depth: 1,
            ..DriverConfig::default()
        };
        let report = driver::run(&mut db, &mut wal, &mut workload, &cfg);
        committed += report.run.committed;
        // Checkpoint on the cadence, but never at the final boundary —
        // recovery must always have a replay suffix to do.
        if interval > 0 && (chunk + 1) % interval == 0 && chunk + 1 < chunks {
            let now = wal.log_writer_free();
            let horizon = wal.durable_upto().0;
            let (_t, meta) = ck.checkpoint(wal.backend_mut().cluster_mut(), now, &db, horizon);
            snap_offset = meta.log_offset;
            checkpoints += 1;
        }
    }
    assert_eq!(wal.pending_bytes(), 0, "the blocking path drains every chunk");
    let durable = wal.durable_upto().0;

    // Power-fail the device, reboot, and recover: newest snapshot (when
    // one exists) + the destaged log after it, against the live fingerprint.
    let crash_at = wal.log_writer_free() + SimDuration::from_millis(2);
    {
        let cl = wal.backend_mut().cluster_mut();
        cl.advance(crash_at);
        cl.power_fail(dev, crash_at);
        cl.reboot_device(dev);
    }
    let restored = ck.restore(wal.backend_mut().cluster_mut(), crash_at);
    let (restore_done, mut recovered, from) = match restored {
        Some((t, meta, db)) => {
            assert_eq!(meta.log_offset, snap_offset, "newest checkpoint wins");
            (t, db, meta.log_offset)
        }
        None => {
            // Cells that never completed a checkpoint (the `none` cadence,
            // or a cadence whose only boundary was the skipped final one)
            // bootstrap the deterministic preload and replay total history.
            assert_eq!(checkpoints, 0, "checkpointed cells must restore a snapshot");
            (crash_at, ycsb::setup(YcsbConfig::default(), SEED).0, 0)
        }
    };
    // The cell's device telemetry ends at the restore: the suffix read
    // below is recovery's own flash traffic.
    let mut reg = MetricsRegistry::new();
    reg.collect("", &wal);
    let suffix = durable_log_stream(wal.backend_mut().cluster_mut(), restore_done, dev, from);
    let replay = recover(&mut recovered, &suffix);
    assert_eq!(replay.bytes_consumed as u64, durable - from, "the device holds the whole suffix");
    assert_eq!(replay.torn_bytes, 0, "a drained log has no torn tail");
    assert_eq!(
        recovered.fingerprint(),
        db.fingerprint(),
        "snapshot + suffix replay reproduces the live database exactly"
    );
    reg.collect("", &replay);

    Outcome {
        committed,
        log_bytes: durable,
        checkpoints,
        restore_us: (restore_done - crash_at).as_nanos() as f64 / 1e3,
        replay_bytes: replay.bytes_consumed as u64,
        replay_records: replay.records_scanned as u64,
        snapshot: reg.snapshot(),
    }
}

fn main() {
    cli::no_args(
        "ablation_recovery",
        "recovery cost vs checkpoint interval vs run length: snapshot + the destaged log suffix",
    );
    let mut report = Report::new(
        "ablation_recovery",
        "recovery",
        "replayed bytes and restore time vs checkpoint interval vs run length",
        "ycsb-a, 8192 rows, 4 KiB group commit, 2 workers, 10 ms chunks, ping-pong snapshots",
    );
    let grid: Vec<(usize, usize, &str, usize)> = INTERVALS
        .iter()
        .flat_map(|&(iv, label)| LENGTHS.iter().map(move |&len| (iv, len, label)))
        .enumerate()
        .map(|(i, (iv, len, label))| (i, iv, label, len))
        .collect();
    let outcomes = sweep::map(&grid, |&(_i, iv, _label, len)| run_cell(iv, len));

    section("crash recovery after L chunks, checkpointing every C chunks");
    let table = Table::new(&[
        Col::left("interval", 10),
        Col::right("chunks", 8),
        Col::right("txns", 10),
        Col::right("log_KiB", 9),
        Col::right("ckpts", 7),
        Col::right("replay_KiB", 12),
        Col::right("records", 9),
        Col::right("restore_us", 12),
    ]);
    println!("{}", table.header());
    for (&(_i, _iv, label, len), o) in grid.iter().zip(outcomes.iter()) {
        report.row(
            &table.row(&[
                Cell::str(label),
                Cell::Int(len as u64),
                Cell::Int(o.committed),
                Cell::Float(o.log_bytes as f64 / 1024.0, 1),
                Cell::Int(o.checkpoints),
                Cell::Float(o.replay_bytes as f64 / 1024.0, 1),
                Cell::Int(o.replay_records),
                Cell::Float(o.restore_us, 1),
            ]),
            Measurement::point(
                "ablation_recovery",
                format!("replay-{label}"),
                len as f64,
                "chunks",
                o.replay_bytes as f64,
                "bytes",
            )
            .with_extra(o.restore_us),
        );
    }
    for (&(_i, _iv, label, len), o) in grid.iter().zip(outcomes) {
        report.telemetry(format!("{label}.len{len}"), o.snapshot);
    }
    report.finish().expect("write results json");
}
