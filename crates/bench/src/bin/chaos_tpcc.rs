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
//! Non-golden seeds additionally run the segmented-lifecycle crash arcs
//! ([`lifecycle_arcs`]): a power cut mid-segment-rotation and one
//! mid-checkpoint, proving zero committed-transaction loss across seal and
//! snapshot boundaries and ping-pong fallback to the surviving slot.
//!
//! Usage: `chaos_tpcc [seed...]` (default seed `0xC0C5` is the committed
//! golden). The same seed always produces the same faults at the same
//! virtual instants and a byte-identical `results/chaos_tpcc.json`.
//! Multiple seeds run as independent cells on the [`sweep`] pool
//! (`XSSD_BENCH_THREADS`), reported in argument order; each seed's report
//! overwrites `results/chaos_tpcc.json` in turn, so the last seed's file
//! survives — exactly what running the seeds sequentially produced.

use memdb::{
    durable_log_stream, encode_txn, fail_over, recover, rejoin_secondary, replay_segments,
    Checkpointer, Lsn, SegmentConfig, WalConfig, WalManager, XssdLog,
};
use nvme::{drive_to_completion, CommandKind, IoCommand, IoPort, NvmeDriver};
use simkit::faults::{
    site, FaultKind, FlashFaultConfig, LinkDownWindow, NvmeFaultConfig, ScheduledFault,
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
/// The committed-golden fault seed. The segmented-lifecycle crash arcs
/// run (and report) only for other seeds, keeping the golden
/// `results/chaos_tpcc.json` byte-identical to the pre-lifecycle runs.
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
        nvme: NvmeFaultConfig {
            error_completion: 0.15,
            dropped_completion: 0.12,
            ..NvmeFaultConfig::default()
        },
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

/// What the segmented-lifecycle crash arcs measured for one seed.
struct LifecycleOutcome {
    /// Segment seals between the anchoring checkpoint and the rotation
    /// crash (>= 1: the replayed range crosses a seal boundary).
    rotation_seals: u64,
    /// Bytes replayed after the rotation crash (snapshot -> durable).
    rotation_replay_bytes: u64,
    /// Transactions the rotation replay redid.
    rotation_txns: u64,
    /// Committed-but-unflushed transactions the crash dropped (they must
    /// NOT resurrect — the recovery target is the last durable group).
    rotation_unflushed: u64,
    /// Torn-checkpoint prefix size (bytes of generation 2 that reached
    /// the slot before the power cut).
    torn_keep: u64,
    /// Generation restore fell back to (must be 1, the surviving slot).
    fallback_generation: u64,
    /// Bytes replayed on top of the surviving snapshot.
    ckpt_replay_bytes: u64,
}

/// One single-device lifecycle world: TPC-C through `WalManager<XssdLog>`
/// with 4 KiB segments, explicit group flushes, and a fingerprint ledger
/// at every durable boundary (the oracle for what a crash may recover).
struct LifecycleWorld {
    db: memdb::Database,
    workload: TpccWorkload,
    wrng: simkit::DetRng,
    wal: WalManager<XssdLog>,
    dev: usize,
    ck: Checkpointer,
    /// `(durable frontier, db fingerprint)` after each group flush.
    ledger: Vec<(Lsn, u64)>,
    group: usize,
}

impl LifecycleWorld {
    fn new(seed: u64) -> Self {
        let (db, workload, wrng) = setup(TpccConfig::small(), WORKLOAD_SEED ^ seed);
        let mut cluster = Cluster::new();
        let dev = cluster.add_device(chaos_device());
        let mut wal =
            WalManager::new(XssdLog::new(cluster, dev, "lifecycle"), WalConfig::default());
        wal.enable_segments(SegmentConfig { segment_bytes: 4 << 10 });
        // Ping-pong snapshot slots above the 2048-LBA destage ring (the
        // conventional side is 4096 LBAs of 4 KiB).
        let ck = Checkpointer::new(dev, 2048, 1024);
        LifecycleWorld { db, workload, wrng, wal, dev, ck, ledger: Vec::new(), group: 0 }
    }

    fn flush_group(&mut self) {
        if self.group > 0 {
            let now = self.wal.log_writer_free();
            self.wal.flush(now);
            self.ledger.push((self.wal.durable_upto(), self.db.fingerprint()));
            self.group = 0;
        }
    }

    /// Drive the workload until `logged` more write transactions are in
    /// the log, flushing every [`GROUP`]; a partial trailing group stays
    /// open (callers decide whether it becomes durable).
    fn run_logged(&mut self, logged: usize) {
        let mut done = 0;
        while done < logged {
            let now = self.wal.log_writer_free();
            if let Ok(recs) = self.workload.execute(&mut self.db, &mut self.wrng, now.as_nanos()) {
                if recs.is_empty() {
                    continue;
                }
                self.wal.append_records(now, &recs);
                done += 1;
                self.group += 1;
                if self.group == GROUP {
                    self.flush_group();
                }
            }
        }
    }

    /// Checkpoint at the durable frontier and advance the truncation
    /// horizon. Returns the snapshot's log offset.
    fn checkpoint(&mut self) -> u64 {
        let now = self.wal.log_writer_free();
        let horizon = self.wal.durable_upto().0;
        let (_t, meta) =
            self.ck.checkpoint(self.wal.backend_mut().cluster_mut(), now, &self.db, horizon);
        self.wal.truncate_below(Lsn(meta.log_offset));
        meta.log_offset
    }

    /// Sudden power loss + reboot of the lone device.
    fn crash(&mut self) {
        let t = self.wal.log_writer_free() + SimDuration::from_millis(1);
        let dev = self.dev;
        let cl = self.wal.backend_mut().cluster_mut();
        cl.advance(t);
        cl.power_fail(dev, t);
        cl.reboot_device(dev);
    }
}

/// The segmented-lifecycle crash arcs: two independent single-device
/// worlds, each ending in a power cut at a lifecycle-critical instant.
///
/// **Mid-rotation**: the log crosses at least one segment seal after the
/// anchoring checkpoint, then crashes with a committed-but-unflushed
/// transaction in the open group. Recovery (snapshot + bounded segment
/// replay, clamped to the durable frontier) must land exactly on the last
/// group-flush fingerprint: every fsynced transaction survives the seal
/// boundary, the unflushed tail never resurrects.
///
/// **Mid-checkpoint**: generation 2 tears partway into its slot
/// ([`Checkpointer::checkpoint_partial`]) before the power cut. Restore
/// must fall back to generation 1's intact ping-pong slot, and replay
/// from there must reproduce the live database with zero committed loss.
fn lifecycle_arcs(seed: u64) -> LifecycleOutcome {
    let plan = FaultPlan { seed, ..FaultPlan::disabled() };
    let mut rng = plan.rng_for(site::SEGMENT_TAIL);

    // --- Arc 1: crash mid segment rotation -----------------------------
    let mut w = LifecycleWorld::new(seed);
    w.run_logged(24);
    w.flush_group();
    let snap_offset = w.checkpoint();
    let seals_at_ckpt = w.wal.segments().expect("segments on").seals();
    // Cross at least one seal boundary with durable transactions.
    let mut rounds = 0;
    while w.wal.segments().expect("segments on").seals() == seals_at_ckpt {
        w.run_logged(GROUP);
        w.flush_group();
        rounds += 1;
        assert!(rounds < 64, "4 KiB segments must seal within a few TPC-C groups");
    }
    let durable_fp = w.ledger.last().expect("flushed groups").1;
    // Leave committed-but-unflushed transactions in the open group: the
    // crash drops them, and recovery must not bring them back.
    w.run_logged(2);
    let unflushed = w.group as u64;
    assert!(unflushed > 0, "the tail group holds undurable transactions");
    w.crash();
    let now = w.wal.log_writer_free();
    let (_t, meta, mut restored) =
        w.ck.restore(w.wal.backend_mut().cluster_mut(), now)
            .expect("the completed checkpoint survives the power cut");
    assert_eq!(meta.log_offset, snap_offset);
    let durable = w.wal.durable_upto().0;
    let views = w.wal.segments().expect("segments on").views();
    let rotation = replay_segments(&mut restored, meta.log_offset, &views, durable);
    assert_eq!(
        restored.fingerprint(),
        durable_fp,
        "seed {seed}: rotation crash recovers exactly the durable prefix"
    );
    let rotation_seals = w.wal.segments().expect("segments on").seals() - seals_at_ckpt;

    // --- Arc 2: crash mid checkpoint ------------------------------------
    let mut w = LifecycleWorld::new(seed ^ 0xC4A5);
    w.run_logged(24);
    w.flush_group();
    let gen1_offset = w.checkpoint();
    w.run_logged(12);
    w.flush_group();
    let live_fp = w.db.fingerprint();
    // Generation 2 tears: only a prefix of its image reaches the slot.
    let keep = rng.uniform(64, 2048);
    let now = w.wal.log_writer_free();
    let horizon = w.wal.durable_upto().0;
    let (_t, torn_meta) = w.ck.checkpoint_partial(
        w.wal.backend_mut().cluster_mut(),
        now,
        &w.db,
        horizon,
        keep as usize,
    );
    assert!(keep < torn_meta.bytes, "the torn prefix is a strict subset of the image");
    w.crash();
    let now = w.wal.log_writer_free();
    let (_t, meta, mut restored) =
        w.ck.restore(w.wal.backend_mut().cluster_mut(), now)
            .expect("generation 1 survives the torn generation 2");
    assert_eq!(meta.generation, 1, "seed {seed}: restore falls back to the surviving slot");
    assert_eq!(meta.log_offset, gen1_offset);
    let durable = w.wal.durable_upto().0;
    let views = w.wal.segments().expect("segments on").views();
    let ckpt = replay_segments(&mut restored, meta.log_offset, &views, durable);
    assert_eq!(
        restored.fingerprint(),
        live_fp,
        "seed {seed}: mid-checkpoint crash loses no committed transaction"
    );

    LifecycleOutcome {
        rotation_seals,
        rotation_replay_bytes: rotation.replay_bytes,
        rotation_txns: rotation.txns_committed as u64,
        rotation_unflushed: unflushed,
        torn_keep: keep,
        fallback_generation: meta.generation,
        ckpt_replay_bytes: ckpt.replay_bytes,
    }
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
    /// Segmented-lifecycle crash arcs (non-golden seeds only).
    lifecycle: Option<LifecycleOutcome>,
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
            acc.injected_program_failures += s.injected_program_failures;
            acc.program_failures += s.program_failures;
        }
        acc
    };
    assert!(
        flash_total.transient_read_retries + flash_total.transient_program_retries >= 1,
        "flash transient faults retried in-device"
    );
    assert!(
        flash_total.injected_program_failures >= 1,
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
        let stream = durable_log_stream(&mut cluster, settle, dev);
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

    // --- Segmented-lifecycle crash arcs (non-golden seeds) --------------
    let lifecycle = (seed != GOLDEN_SEED).then(|| lifecycle_arcs(seed));

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
        flash_bad_blocks: flash_total.injected_program_failures,
        ntb_replays: replays,
        ntb_deferrals: ntb_phase1.deferrals + ntb_phase2.deferrals + ntb_phase3.deferrals,
        nvme_retries,
        nvme_timeouts,
        nvme_errors,
        nvme_dropped,
        pre_crash: pre_crash_snapshot,
        lifecycle,
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
    if let Some(l) = &o.lifecycle {
        section("lifecycle: crash mid-rotation and mid-checkpoint, bounded replay");
        report.row(
            &format!(
                "rotation crash: {} seals crossed, {} txns replayed ({} B), \
                 {} unflushed txns dropped",
                l.rotation_seals, l.rotation_txns, l.rotation_replay_bytes, l.rotation_unflushed
            ),
            Measurement::point(
                "chaos",
                "lifecycle.rotation_replay",
                sd,
                "seed",
                l.rotation_replay_bytes as f64,
                "bytes",
            )
            .with_extra(l.rotation_seals as f64),
        );
        report.row(
            &format!(
                "torn checkpoint ({} B prefix): fell back to generation {}, \
                 {} B replayed, zero committed loss",
                l.torn_keep, l.fallback_generation, l.ckpt_replay_bytes
            ),
            Measurement::point(
                "chaos",
                "lifecycle.torn_ckpt_replay",
                sd,
                "seed",
                l.ckpt_replay_bytes as f64,
                "bytes",
            )
            .with_extra(l.torn_keep as f64),
        );
    }
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
