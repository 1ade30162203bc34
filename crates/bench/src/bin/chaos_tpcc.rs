//! chaos_tpcc — replicated TPC-C under a cross-stack fault plan.
//!
//! The robustness capstone: a three-way Villars replica set runs the TPC-C
//! mix through `XLogFile` while a seed-reproducible [`FaultPlan`] injects
//! faults at every layer at once — flash transient/permanent program
//! failures (FTL bad-block retirement), NTB TLP drops (replay timer) and a
//! scheduled link-down window, plus a mid-run secondary crash the host
//! answers with primary-driven failover and a later re-sync rejoin. The run
//! ends in a whole-cluster power failure; recovery replays each surviving
//! copy's durable log into a fresh database and must reproduce the live
//! database fingerprint exactly: no committed transaction lost, no aborted
//! transaction resurrected.
//!
//! A separate section exercises the NVMe command-level fault model (error
//! completions, lost completions → timeout/abort/backoff-retry) against the
//! conventional SSD, since the Villars fast path bypasses the NVMe queue.
//!
//! Usage: `chaos_tpcc [seed...]` (default seed `0xC0C5` is the committed
//! golden). The same seed always produces the same faults at the same
//! virtual instants and a byte-identical `results/chaos_tpcc.json`.
//! Multiple seeds run as independent cells on the [`sweep`] pool
//! (`XSSD_BENCH_THREADS`), reported in argument order; each seed's report
//! overwrites `results/chaos_tpcc.json` in turn, so the last seed's file
//! survives — exactly what running the seeds sequentially produced.

use memdb::{durable_log_stream, encode_txn, fail_over, recover, rejoin_secondary};
use nvme::{drive_to_completion, CommandKind, IoCommand, IoPort, NvmeDriver};
use simkit::faults::{
    FaultKind, FlashFaultConfig, LinkDownWindow, NvmeFaultConfig, ScheduledFault,
    TransportFaultConfig,
};
use simkit::{FaultPlan, MetricsRegistry, SimDuration, SimTime, Snapshot};
use tpcc::{setup, TpccConfig, TpccWorkload};
use xssd_bench::{cli, section, sweep, Measurement, Report};
use xssd_core::{Cluster, VillarsConfig, XLogFile};

/// Transactions per fsync group (the host's group-commit cadence).
const GROUP: usize = 4;
/// Transactions attempted per phase: healthy / degraded / rejoined.
const PHASES: [usize; 3] = [120, 120, 60];
/// Workload seed — fixed, so the fault seed alone distinguishes runs.
const WORKLOAD_SEED: u64 = 0xAB5;
/// The committed-golden fault seed, the one run without arguments.
const GOLDEN_SEED: u64 = 0xC0C5;

/// The replica device: the unit-test Villars config with a conventional
/// side large enough that the whole run's log stays resident on the
/// destage ring (recovery reads the durable stream from offset 0) and a
/// CMB ring roomy enough that destaging is not the bottleneck.
fn chaos_device() -> VillarsConfig {
    let mut cfg = VillarsConfig::small();
    cfg.conventional.geometry.blocks_per_die = 64; // 16 MiB raw flash
    cfg.conventional.buffer_pages = 64;
    cfg.cmb.size = 256 << 10;
    cfg.cmb.intake_queue_bytes = 16 << 10;
    cfg.destage.ring_lbas = 2048; // 8 MiB destage ring
    cfg
}

/// The fault mix every layer runs under. Rates are aggressive enough that
/// each class fires many times per run yet every fault is recoverable by
/// construction: transients retry in-device, permanents retire the block
/// and rewrite, TLP drops replay, the crash fails over.
fn chaos_plan(seed: u64, t0: SimTime) -> FaultPlan {
    FaultPlan {
        seed,
        flash: FlashFaultConfig {
            transient_read: 0.10,
            transient_program: 0.10,
            permanent_program: 0.05,
            max_retries: 3,
        },
        transport: TransportFaultConfig {
            tlp_drop: 0.05,
            replay_timeout: SimDuration::from_micros(5),
        },
        nvme: NvmeFaultConfig { error_completion: 0.15, dropped_completion: 0.12 },
        schedule: vec![ScheduledFault {
            at: t0 + SimDuration::from_micros(50),
            kind: FaultKind::LinkDown {
                device: 0,
                window: LinkDownWindow {
                    from: t0 + SimDuration::from_micros(50),
                    until: t0 + SimDuration::from_micros(90),
                },
            },
        }],
    }
}

/// Counters the commit loop accumulates.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    /// Transactions that committed with log records (and were fsynced).
    logged: u64,
    /// Read-only commits (no records, nothing to log).
    read_only: u64,
    /// Aborts (the NewOrder 1% rollback and validation failures).
    aborted: u64,
    /// Log bytes handed to the device.
    bytes: u64,
}

/// Run one phase of `txns` attempted transactions: execute against the
/// live database, frame each writer's records with [`encode_txn`], stream
/// them through `x_pwrite`, and `x_fsync` every [`GROUP`] writers (and at
/// phase end). Returns the instant the final group was durable everywhere.
#[allow(clippy::too_many_arguments)]
fn run_phase(
    cluster: &mut Cluster,
    file: &mut XLogFile,
    db: &mut memdb::Database,
    workload: &mut TpccWorkload,
    wrng: &mut simkit::DetRng,
    tally: &mut Tally,
    mut now: SimTime,
    txns: usize,
) -> SimTime {
    let mut group = 0usize;
    for _ in 0..txns {
        match workload.execute(db, wrng, now.as_nanos()) {
            Ok(recs) if recs.is_empty() => tally.read_only += 1,
            Ok(recs) => {
                let bytes = encode_txn(&recs);
                tally.bytes += bytes.len() as u64;
                now = file.x_pwrite(cluster, now, &bytes).expect("x_pwrite");
                tally.logged += 1;
                group += 1;
                if group == GROUP {
                    now = file.x_fsync(cluster, now).expect("x_fsync");
                    group = 0;
                }
            }
            Err(_) => tally.aborted += 1,
        }
    }
    if group > 0 {
        now = file.x_fsync(cluster, now).expect("x_fsync");
    }
    now
}

/// Exercise the NVMe command-level fault model against the conventional
/// SSD: submit a write burst through the fault-armed driver and report how
/// many commands needed the retry machinery. Every command still succeeds
/// — errors are retried with backoff, lost completions time out and abort.
fn nvme_fault_section(plan: &FaultPlan) -> (u64, u64, u64, u64) {
    let mut drv = NvmeDriver::new(ssd::ConventionalSsd::new(ssd::SsdConfig::small()));
    drv.arm_faults(plan.nvme, plan.rng_for(simkit::faults::site::NVME_CMD));
    let mut scratch = Vec::new();
    let mut now = SimTime::ZERO;
    for i in 0..96u64 {
        let tag = drv.submit(now, CommandKind::Io(IoCommand::Write { lba: i % 64, blocks: 1 }));
        now = drive_to_completion(&mut drv, now, tag, &mut scratch).at;
    }
    let tag = drv.submit(now, CommandKind::Io(IoCommand::Flush));
    drive_to_completion(&mut drv, now, tag, &mut scratch);
    let s = drv.port_stats();
    (s.retries(), s.timeouts(), s.error_completions(), s.dropped_completions())
}

/// Everything one seed's run produces — the silent simulation half of the
/// harness. `main` turns this into the printed sections, rows, and the
/// results file, in seed order.
struct ChaosOutcome {
    seed: u64,
    tally: Tally,
    fo_stall: SimDuration,
    fo_status_polls: u64,
    s1: usize,
    s2: usize,
    recovered: [u64; 2],
    flash_transient_retries: u64,
    flash_bad_blocks: u64,
    ntb_replays: u64,
    ntb_deferrals: u64,
    nvme_retries: u64,
    nvme_timeouts: u64,
    nvme_errors: u64,
    nvme_dropped: u64,
    pre_crash: Snapshot,
}

/// Run the full chaos scenario for one fault seed. This is a [`sweep`]
/// cell: it builds its own cluster/database/workload worlds, prints
/// nothing, and asserts its recovery invariants in place.
fn run_seed(seed: u64) -> ChaosOutcome {
    // --- Cluster + workload setup -------------------------------------
    let (mut db, mut workload, mut wrng) = setup(TpccConfig::small(), WORKLOAD_SEED);
    let mut cluster = Cluster::new();
    let p = cluster.add_device(chaos_device());
    let s1 = cluster.add_device(chaos_device());
    let s2 = cluster.add_device(chaos_device());
    let t0 = cluster.configure_replication(SimTime::ZERO, p, &[s1, s2]);

    let plan = chaos_plan(seed, t0);
    cluster.arm_faults(&plan);
    for f in &plan.schedule {
        match f.kind {
            FaultKind::LinkDown { device, window } => cluster.schedule_link_down(device, window),
            // The secondary crash is driven at the phase boundary below —
            // failover is a host protocol, not a device event.
            FaultKind::DeviceCrash { .. } => {}
        }
    }

    let mut file = XLogFile::open(p);
    let mut tally = Tally::default();

    // --- Phase 1: healthy replication through the link-down window ----
    let mut now = run_phase(
        &mut cluster,
        &mut file,
        &mut db,
        &mut workload,
        &mut wrng,
        &mut tally,
        t0,
        PHASES[0],
    );
    // Flow counters reset when failover rebuilds the mirror flows, so
    // bank them at each reconfiguration boundary.
    let ntb_phase1 = cluster.device(p).transport().flow_fault_stats();
    assert!(ntb_phase1.deferrals >= 1, "the link-down window parked at least one mirror burst");

    // --- Crash a secondary; the primary notices and fails over --------
    cluster.power_fail(s2, now);
    let fo = fail_over(&mut cluster, now, p, &[s1]);
    assert!(
        fo.stall() < SimDuration::from_millis(5),
        "failover stall bounded, got {:?}",
        fo.stall()
    );
    now = fo.reconfigured_at;
    now = run_phase(
        &mut cluster,
        &mut file,
        &mut db,
        &mut workload,
        &mut wrng,
        &mut tally,
        now,
        PHASES[1],
    );
    let ntb_phase2 = cluster.device(p).transport().flow_fault_stats();

    // --- Rejoin the crashed secondary via log re-sync ------------------
    now = rejoin_secondary(&mut cluster, now, p, s2, &[s1, s2]);
    assert_eq!(
        cluster.device(s2).log_tail(),
        cluster.device(p).log_tail(),
        "re-sync caught the rejoined copy up to the primary's tail"
    );
    now = run_phase(
        &mut cluster,
        &mut file,
        &mut db,
        &mut workload,
        &mut wrng,
        &mut tally,
        now,
        PHASES[2],
    );
    let ntb_phase3 = cluster.device(p).transport().flow_fault_stats();
    let replays = ntb_phase1.replays + ntb_phase2.replays + ntb_phase3.replays;
    assert!(replays >= 1, "the TLP drop hook fired at least once");

    // --- Whole-cluster power loss + recovery ---------------------------
    let settle = now + SimDuration::from_millis(2);
    cluster.advance(settle);
    let pre_crash_snapshot = {
        let mut reg = MetricsRegistry::new();
        reg.collect("", &cluster);
        reg.snapshot()
    };
    let flash_total = {
        let mut acc = flash::FlashStats::default();
        for d in [p, s1, s2] {
            let s = cluster.device(d).flash_stats();
            acc.transient_read_retries += s.transient_read_retries;
            acc.transient_program_retries += s.transient_program_retries;
            acc.program_failures += s.program_failures;
        }
        acc
    };
    assert!(
        flash_total.transient_read_retries + flash_total.transient_program_retries >= 1,
        "flash transient faults retried in-device"
    );
    assert!(
        flash_total.program_failures >= 1,
        "at least one block went bad and was retired by the FTL"
    );

    cluster.power_fail(p, settle);
    cluster.power_fail(s1, settle);
    cluster.power_fail(s2, settle);
    cluster.reboot_device(s1);
    cluster.reboot_device(s2);

    let live_fingerprint = db.fingerprint();
    let mut recovered = [0u64; 2];
    for (slot, dev) in [s1, s2].into_iter().enumerate() {
        let stream = durable_log_stream(&mut cluster, settle, dev, 0);
        let (mut fresh, _, _) = setup(TpccConfig::small(), WORKLOAD_SEED);
        let rep = recover(&mut fresh, &stream);
        assert_eq!(
            rep.txns_committed as u64, tally.logged,
            "every fsynced transaction recovers from device {dev}"
        );
        assert_eq!(
            fresh.fingerprint(),
            live_fingerprint,
            "device {dev} replays to the live database state exactly"
        );
        recovered[slot] = rep.txns_committed as u64;
    }

    // --- NVMe command-level faults (conventional path) ------------------
    let (nvme_retries, nvme_timeouts, nvme_errors, nvme_dropped) = nvme_fault_section(&plan);
    assert!(nvme_retries >= 1, "the NVMe retry machinery engaged");
    assert!(nvme_timeouts >= 1, "at least one lost completion timed out");

    ChaosOutcome {
        seed,
        tally,
        fo_stall: fo.stall(),
        fo_status_polls: fo.status_polls,
        s1,
        s2,
        recovered,
        flash_transient_retries: flash_total.transient_read_retries
            + flash_total.transient_program_retries,
        flash_bad_blocks: flash_total.program_failures,
        ntb_replays: replays,
        ntb_deferrals: ntb_phase1.deferrals + ntb_phase2.deferrals + ntb_phase3.deferrals,
        nvme_retries,
        nvme_timeouts,
        nvme_errors,
        nvme_dropped,
        pre_crash: pre_crash_snapshot,
    }
}

/// Print one seed's sections, rows, and results file — the presentation
/// half, run in seed order on the main thread.
fn emit(o: ChaosOutcome) {
    let seed = o.seed;
    let knobs = format!(
        "seed={seed} devices=3 policy=eager phases={}/{}/{} group={GROUP}",
        PHASES[0], PHASES[1], PHASES[2]
    );
    let mut report = Report::new(
        "chaos_tpcc",
        "chaos",
        "replicated TPC-C under a cross-stack fault plan",
        &knobs,
    );
    section("phase 1: full replica set, TLP drops + link-down window");
    section("phase 2: secondary crash, failover, degraded replication");
    section("phase 3: rejoin via re-sync, full set again");
    section("recovery: total power loss, replay from each surviving copy");
    section("nvme: error completions, lost completions, timeout + retry");

    let tally = o.tally;
    let sd = seed as f64;
    report.row(
        &format!(
            "committed {} (read-only {}, aborted {}), {} log bytes, all recovered",
            tally.logged, tally.read_only, tally.aborted, tally.bytes
        ),
        Measurement::point("chaos", "txns.logged", sd, "seed", tally.logged as f64, "txns")
            .with_extra(tally.bytes as f64),
    );
    report.row(
        &format!("read-only {} / aborted {}", tally.read_only, tally.aborted),
        Measurement::point("chaos", "txns.read_only", sd, "seed", tally.read_only as f64, "txns")
            .with_extra(tally.aborted as f64),
    );
    report.row(
        &format!(
            "failover stall {} us ({} status polls)",
            o.fo_stall.as_nanos() as f64 / 1e3,
            o.fo_status_polls
        ),
        Measurement::point(
            "chaos",
            "failover.stall",
            sd,
            "seed",
            o.fo_stall.as_nanos() as f64 / 1e3,
            "us",
        )
        .with_extra(o.fo_status_polls as f64),
    );
    report.row(
        &format!(
            "recovered {} txns from dev{} and {} from dev{}",
            o.recovered[0], o.s1, o.recovered[1], o.s2
        ),
        Measurement::point("chaos", "recovery.txns", sd, "seed", o.recovered[0] as f64, "txns")
            .with_extra(o.recovered[1] as f64),
    );
    report.row(
        &format!(
            "flash: {} transient retries, {} bad blocks retired",
            o.flash_transient_retries, o.flash_bad_blocks
        ),
        Measurement::point(
            "chaos",
            "fault.flash_retries",
            sd,
            "seed",
            o.flash_transient_retries as f64,
            "retries",
        )
        .with_extra(o.flash_bad_blocks as f64),
    );
    report.row(
        &format!("ntb: {} TLP replays, {} link-down deferrals", o.ntb_replays, o.ntb_deferrals),
        Measurement::point("chaos", "fault.ntb_replays", sd, "seed", o.ntb_replays as f64, "tlps")
            .with_extra(o.ntb_deferrals as f64),
    );
    report.row(
        &format!(
            "nvme: {} retries ({} error completions, {} dropped -> {} timeouts)",
            o.nvme_retries, o.nvme_errors, o.nvme_dropped, o.nvme_timeouts
        ),
        Measurement::point(
            "chaos",
            "fault.nvme_retries",
            sd,
            "seed",
            o.nvme_retries as f64,
            "cmds",
        )
        .with_extra(o.nvme_timeouts as f64),
    );
    report.telemetry("pre_crash", o.pre_crash);
    report.finish().expect("write results");

    println!();
    println!(
        "ok: seed {seed} — {} committed txns survived flash/transport/nvme faults, \
         a secondary crash, and a full-cluster power loss",
        tally.logged
    );
}

fn main() {
    let seeds = cli::seed_list(
        "chaos_tpcc",
        "replicated TPC-C under a cross-stack fault plan",
        "fault seed(s); each runs the full scenario (default 0xC0C5 = 49349, the golden)",
        GOLDEN_SEED,
    );
    // Each seed is an isolated cell; the sweep runs them on all cores and
    // hands the outcomes back in argument order for reporting.
    let outcomes = sweep::map(&seeds, |&seed| run_seed(seed));
    for o in outcomes {
        emit(o);
    }
}
