//! Reusable end-to-end simulation kernels.
//!
//! The inner loops of two figure harnesses — one Fig. 9 TPC-C/Villars-SRAM
//! cell (through the same `driver::run_cell` as the harness) and the
//! Fig. 11 `x_pwrite`+`x_fsync` cycle (the harness calls this one) —
//! factored out so that the determinism regression test can run the same
//! cell twice with the same seed and assert bit-identical telemetry and
//! completion times, and the telemetry layout test can read a cell's
//! paths.

use crate::driver::{self, DriverConfig};
use memdb::{WalConfig, XssdLog};
use simkit::{MetricsRegistry, SampleSeries, SimDuration, SimTime, Snapshot};
use tpcc::{setup, TpccConfig};
use xssd_core::{Cluster, VillarsConfig, XLogFile};

/// One Fig. 9 `villars-sram` cell: TPC-C (bench scale) with `workers`
/// workers logging through a Villars-SRAM device for `duration` of simulated
/// time, using the same seeds and 16 KiB group-commit threshold as the
/// figure harness. Returns the full cross-stack telemetry snapshot.
pub fn tpcc_villars_sram_cell(workers: usize, duration: SimDuration) -> Snapshot {
    let (mut db, mut workload, _rng) = setup(TpccConfig::bench(), 0x716 + workers as u64);
    let cfg = DriverConfig {
        workers,
        measure: duration,
        seed: 0xF160_9000 + workers as u64,
        ..DriverConfig::default()
    };
    let backend = XssdLog::new(driver::villars_cluster(true), 0, "villars-sram");
    driver::run_cell(&mut db, &mut workload, backend, WalConfig::default(), &cfg)
}

/// One Fig. 11 cell: `count` `x_pwrite`+`x_fsync` cycles of `write_size`
/// bytes against a Villars-SRAM device with a `queue_size`-byte intake
/// queue. Returns the telemetry snapshot plus the per-cycle completion
/// timestamps (one per fsync) so callers can assert exact timeline
/// reproducibility, not just aggregate equality.
pub fn queue_size_cycles(
    queue_size: u64,
    write_size: usize,
    count: usize,
) -> (Snapshot, Vec<SimTime>) {
    let mut config = VillarsConfig::villars_sram();
    config.cmb.intake_queue_bytes = queue_size;
    let mut cl = Cluster::new();
    let dev = cl.add_device(config);
    let mut f = XLogFile::open(dev);
    let data = vec![0x5Au8; write_size];
    let mut lat = SampleSeries::new();
    let mut completions = Vec::with_capacity(count);
    let mut now = SimTime::ZERO;
    for _ in 0..count {
        let t0 = now;
        now = f.x_pwrite(&mut cl, now, &data).expect("write");
        now = f.x_fsync(&mut cl, now).expect("fsync");
        completions.push(now);
        lat.record(now.saturating_since(t0).as_micros_f64());
    }
    let mut reg = MetricsRegistry::new();
    reg.collect("", &cl);
    reg.counter("bench.elapsed_ns", now.saturating_since(SimTime::ZERO).as_nanos());
    reg.counter("bench.payload_bytes", (count * write_size) as u64);
    reg.scope("bench").latency("commit_us", lat.summary());
    (reg.snapshot(), completions)
}
