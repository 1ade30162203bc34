//! Pins the conventional SSD's op schedule: which command completes when,
//! in what order, and what the device reports afterwards.
//!
//! A seeded, pipelined script drives `NvmeDriver<ConventionalSsd>` with a
//! write/read/flush mix (write cache on and off), interleaves fast-side
//! destage writes and internal reads, arms permanent program failures so
//! the retire → remap → resubmit path runs while flushes are pending, and
//! ends with a `power_fail_rescue_destage` cut. Every completion `(cid,
//! at, status)`, every destage / internal-read token instant, the
//! device's `next_event_at()` after each step and the final telemetry
//! JSON are folded, in order, into one fingerprint. A flush that stops
//! waiting for a retried program (or waits for a later one), a retry
//! that loses its place, or completions posted at one instant leaving in
//! another order each move it.
//!
//! The constants are not to be regenerated by a refactor. They were first
//! recorded at the commit *before* the device's per-op side tables became
//! one table and its completion vectors became calendars (PR 18), and
//! re-recorded by PR 24, a model change: the host link has a wire per
//! direction (a read's DMA-out no longer queues behind writes' DMA-in, and
//! the telemetry JSON gained `pcie.host_link.{downstream,upstream}.*`) and a
//! page is buffered one TLP after its DMA lands, its program submitted
//! then, instead of a page's port time after the whole command's DMA. Every
//! write acks and programs ~1 µs sooner, so the seeded fault draws meet
//! different ops: the cached script keeps its counts and end instants, the
//! write-through one ends with 182 completions (31 failed) and 5 read
//! tokens where it had 184 (33) and 9.

use flash::FlashGeometry;
use nvme::{CommandKind, Completion, IoCommand, IoPort, NvmeController, NvmeDriver};
use simkit::bytes::Bytes;
use simkit::faults::FlashFaultConfig;
use simkit::{DetRng, MetricsRegistry, SimDuration, SimTime};
use ssd::{ConventionalSsd, SsdConfig};

/// FNV-1a over little-endian words, in the order they are recorded.
struct Fingerprint(u64);

impl Fingerprint {
    fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn instant(&mut self, t: Option<SimTime>) {
        self.word(t.map_or(u64::MAX, |t| t.as_nanos()));
    }

    fn text(&mut self, s: &str) {
        for b in s.bytes() {
            self.word(b as u64);
        }
    }
}

/// What one run is pinned by.
#[derive(Debug, PartialEq, Eq)]
struct Schedule {
    fingerprint: u64,
    completions: u64,
    failed_completions: u64,
    destage_tokens: u64,
    read_tokens: u64,
    program_failures: u64,
    rescue_done_ns: u64,
    idle_at_ns: u64,
}

struct Rig {
    drv: NvmeDriver<ConventionalSsd>,
    fp: Fingerprint,
    completions: Vec<Completion>,
    tokens: Vec<(SimTime, u64)>,
    n_completions: u64,
    n_failed: u64,
    n_destage: u64,
    n_reads: u64,
}

impl Rig {
    /// Run the device to `now`, drain all three completion queues and
    /// record what left them, then the device's next event.
    fn observe(&mut self, now: SimTime) {
        self.drv.poll(now);
        self.completions.clear();
        self.drv.completions_into(now, &mut self.completions);
        for c in &self.completions {
            self.fp.word(0xC0);
            self.fp.word(c.entry.cid as u64);
            self.fp.word(c.at.as_nanos());
            self.fp.word(c.entry.status as u64);
            self.n_completions += 1;
            self.n_failed += u64::from(!c.entry.status.is_ok());
        }
        self.tokens.clear();
        self.drv.controller_mut().drain_destage_completions_into(now, &mut self.tokens);
        for &(at, token) in &self.tokens {
            self.fp.word(0xD0);
            self.fp.word(token);
            self.fp.word(at.as_nanos());
            self.n_destage += 1;
        }
        self.tokens.clear();
        self.drv.controller_mut().drain_internal_reads_into(now, &mut self.tokens);
        for &(at, token) in &self.tokens {
            self.fp.word(0xE0);
            self.fp.word(token);
            self.fp.word(at.as_nanos());
            self.n_reads += 1;
        }
        self.fp.instant(self.drv.controller().next_event_at());
    }
}

fn page(fill: u8) -> Bytes {
    Bytes::from(vec![fill; 4096])
}

fn schedule(write_cache: bool, seed: u64) -> Schedule {
    const STEPS: u64 = 260;
    /// After the power cut only reads, flushes and fast-side traffic run:
    /// the cut tears queued host programs out of their blocks, and NAND's
    /// in-order rule forbids programming past the holes.
    const CUT_AT: u64 = 215;
    /// Fast-side pages live above the host's working set.
    const DESTAGE_BASE: u64 = 200;

    // Four times the tiny geometry's blocks: every permanent failure
    // retires one, and the script must not fill the device.
    let geometry = FlashGeometry { blocks_per_die: 32, ..FlashGeometry::tiny() };
    let cfg = SsdConfig { write_cache, geometry, ..SsdConfig::small() };
    let mut ssd = ConventionalSsd::new(cfg);
    ssd.arm_flash_faults(
        FlashFaultConfig {
            transient_read: 0.05,
            transient_program: 0.05,
            permanent_program: 0.06,
            max_retries: 2,
        },
        DetRng::new(seed ^ 0xFA17),
    );
    let mut rig = Rig {
        drv: NvmeDriver::new(ssd),
        fp: Fingerprint::new(),
        completions: Vec::new(),
        tokens: Vec::new(),
        n_completions: 0,
        n_failed: 0,
        n_destage: 0,
        n_reads: 0,
    };
    let mut rng = DetRng::new(seed);
    let mut now = SimTime::ZERO;
    let mut destaged = 0u64;
    let mut rescue_done = SimTime::ZERO;
    let capacity = rig.drv.namespace().capacity_lbas;

    for step in 0..STEPS {
        now += SimDuration::from_nanos(rng.uniform(500, 30_000));
        if step == CUT_AT {
            rescue_done = rig.drv.controller_mut().power_fail_rescue_destage(now);
            rig.fp.word(0xF0);
            rig.fp.word(rescue_done.as_nanos());
            now = now.max(rescue_done);
        }
        let cut = step >= CUT_AT;
        let lba = rng.uniform(0, 47);
        let blocks = rng.uniform(1, 2) as u32;
        match rng.uniform(0, 11) {
            0..=3 if !cut => {
                if rng.chance(0.5) {
                    rig.drv.controller_mut().stage_write_data(lba, page(step as u8));
                }
                rig.drv.submit(now, CommandKind::Io(IoCommand::Write { lba, blocks }));
            }
            4 if !cut => {
                // Out of range: completes from the fetch stage.
                rig.drv.submit(now, CommandKind::Io(IoCommand::Write { lba: capacity, blocks }));
            }
            0..=6 => {
                rig.drv.submit(now, CommandKind::Io(IoCommand::Read { lba, blocks }));
            }
            7 => {
                rig.drv.submit(now, CommandKind::Io(IoCommand::Flush));
            }
            8 => {
                // Two flushes fetched back to back wait on the same
                // programs and post at the same instant: the queue's
                // tie-break decides which the host sees first.
                rig.drv.submit(now, CommandKind::Io(IoCommand::Flush));
                rig.drv.submit(now, CommandKind::Io(IoCommand::Flush));
            }
            9..=10 => {
                // A burst lands on several dies at once, so tokens tie too.
                for _ in 0..rng.uniform(1, 4) {
                    let lpn = DESTAGE_BASE + destaged % 64;
                    let token = rig.drv.controller_mut().submit_destage_write(
                        now,
                        lpn,
                        page(destaged as u8 ^ 0x5A),
                    );
                    rig.fp.word(0xD1);
                    rig.fp.word(token);
                    destaged += 1;
                }
            }
            _ => {
                let lpn = DESTAGE_BASE + rng.uniform(0, 63);
                let token = rig.drv.controller_mut().submit_internal_read(now, lpn);
                rig.fp.word(0xE1);
                rig.fp.word(token.unwrap_or(u64::MAX));
            }
        }
        rig.observe(now);
    }

    // Run dry, one device event at a time.
    while let Some(t) = rig.drv.next_port_event_at() {
        now = now.max(t);
        rig.observe(now);
    }

    let ssd = rig.drv.controller();
    for lpn in (0..48).chain(DESTAGE_BASE..DESTAGE_BASE + 64) {
        rig.fp.word(ssd.media_content(lpn).map_or(u64::MAX, |b| b[0] as u64));
    }
    let mut reg = MetricsRegistry::new();
    reg.collect("", &rig.drv);
    rig.fp.text(&reg.snapshot().to_json(&[]).to_string());

    Schedule {
        fingerprint: rig.fp.0,
        completions: rig.n_completions,
        failed_completions: rig.n_failed,
        destage_tokens: rig.n_destage,
        read_tokens: rig.n_reads,
        program_failures: ssd.flash_stats().program_failures,
        rescue_done_ns: rescue_done.as_nanos(),
        idle_at_ns: now.as_nanos(),
    }
}

#[test]
fn cached_write_schedule_is_pinned() {
    assert_eq!(
        schedule(true, 0x0B5C_ED01),
        Schedule {
            fingerprint: 1_746_318_911_517_320_613,
            completions: 220,
            failed_completions: 24,
            destage_tokens: 105,
            read_tokens: 10,
            program_failures: 18,
            rescue_done_ns: 3_535_159,
            idle_at_ns: 4_266_873,
        }
    );
}

#[test]
fn write_through_schedule_is_pinned() {
    assert_eq!(
        schedule(false, 0x0B5C_ED02),
        Schedule {
            fingerprint: 10_223_764_196_784_669_800,
            completions: 182,
            failed_completions: 31,
            destage_tokens: 123,
            read_tokens: 5,
            program_failures: 15,
            rescue_done_ns: 3_262_609,
            idle_at_ns: 4_064_065,
        }
    );
}
