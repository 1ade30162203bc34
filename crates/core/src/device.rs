//! The Villars device — the X-SSD reference design (paper §4, Fig. 4).
//!
//! A Villars is a fully conformant NVMe device: the conventional side is a
//! [`ConventionalSsd`] reached through the standard block interface, and the
//! fast side (CMB + Destage + Transport) is reached through MMIO against the
//! CMB window plus vendor-specific admin commands for setup.

use crate::cmb::{CmbError, CmbModule};
use crate::config::VillarsConfig;
use crate::destage::DestageModule;
use crate::transport::{DeviceIndex, Outbound, Role, TlpRun, TransportModule, TransportStatus};
use nvme::{
    AdminCommand, BackingClass, CmdTag, Command, CommandKind, Completion, CompletionEntry, IoPort,
    Namespace, NvmeController, PortAccounting, Status, VendorCommand,
};
use pcie::{MmioMode, StoreIssueModel};
use simkit::{Bandwidth, EventQueue, SerialResource, SimDuration, SimTime};
use ssd::ConventionalSsd;

/// Vendor-specific opcodes (paper §4.2: role changes are NVMe
/// vendor-specific commands; §7.1 adds promotion/demotion).
pub mod vendor {
    /// Return the device to stand-alone mode.
    pub const SET_STAND_ALONE: u8 = 0xC0;
    /// Become a primary; CDW10 = secondary count, CDW11..15 = indices.
    pub const SET_PRIMARY: u8 = 0xC1;
    /// Become a secondary; CDW10 = primary index.
    pub const SET_SECONDARY: u8 = 0xC2;
    /// Set shadow update period; CDW10 = period in nanoseconds.
    pub const SET_SHADOW_PERIOD: u8 = 0xC3;
    /// Set the channel-scheduler mode; CDW10 = 0 neutral / 1 destage / 2
    /// conventional priority.
    pub const SET_SCHED_MODE: u8 = 0xC4;
    /// Read the transport status register; result = 0 ok / 1 degraded / 2
    /// inactive.
    pub const GET_TRANSPORT_STATUS: u8 = 0xC5;
    /// Set the intake-queue (flow-control window) size; CDW10 = bytes,
    /// CDW11 reserved (must be 0).
    pub const SET_INTAKE_QUEUE: u8 = 0xC6;
}

/// Result of a fast-side MMIO write burst.
#[derive(Debug)]
pub struct FastWrite {
    /// When the host link accepted the last TLP (wire free): the CPU can
    /// issue the next store from this instant — stores pipeline on the
    /// wire, they do not wait for device-side arrival.
    pub issued_at: SimTime,
    /// When the last TLP of the burst fully arrived at the device.
    pub arrived_at: SimTime,
    /// Cross-device deliveries (mirror traffic) for the cluster to route.
    pub outbound: Vec<Outbound>,
}

/// What the crash-destage protocol salvaged (paper §4.1). One-element
/// arrays: the device holds one log, and `benchmark/` indexes `[0]`.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashReport {
    /// The monotonic log offset made durable on the conventional side.
    pub durable_upto: [u64; 1],
    /// Bytes abandoned beyond a reordering gap.
    pub lost_beyond_gap: [u64; 1],
}

/// The Villars device: one log — one CMB ring with its credit counter, one
/// destage ring — beside the conventional side (paper §4.1).
pub struct VillarsDevice {
    config: VillarsConfig,
    conventional: ConventionalSsd,
    cmb: CmbModule,
    destage: DestageModule,
    transport: TransportModule,
    /// Dedicated SRAM backing port (None when DRAM-backed: the shared data
    /// buffer port is used instead).
    sram_port: Option<SerialResource>,
    backing_bw: Bandwidth,
    /// Completions for vendor commands handled by the fast side.
    vendor_out: EventQueue<CompletionEntry>,
    /// Total bytes accepted via the fast interface.
    fast_bytes_in: u64,
    /// TLPs issued by fast-side writes (one per WC-flush payload).
    fast_tlps: u64,
    /// Control-interface credit-counter reads (MMIO round trips).
    credit_reads: u64,
    /// Times a blocked `x_fsync` on this device was woken to look at the
    /// counter ([`crate::cluster::Cluster::sleep_until_credit`]: no MMIO).
    pub(crate) fsync_wakes: u64,
    /// Reusable destage-completion drain buffer for the advance loop (one
    /// allocation for the device's lifetime instead of one per event step).
    destage_drain: Vec<(SimTime, u64)>,
    /// Per-port CID allocation + queue-depth accounting for commands
    /// submitted through the [`IoPort`] contract.
    port: PortAccounting,
}

impl std::fmt::Debug for VillarsDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VillarsDevice")
            .field("role", self.transport.role())
            .field("fast_bytes_in", &self.fast_bytes_in)
            .finish()
    }
}

impl VillarsDevice {
    /// Build a device from its configuration.
    pub fn new(config: VillarsConfig) -> Self {
        let conventional = ConventionalSsd::new(config.conventional.clone());
        let page_bytes = config.conventional.geometry.page_bytes as u64;
        let sram_port = match config.cmb.backing {
            BackingClass::Sram => Some(SerialResource::new()),
            BackingClass::Dram => None,
        };
        let backing_bw = config.cmb.backing_bandwidth();
        VillarsDevice {
            cmb: CmbModule::new(config.cmb),
            destage: DestageModule::new(config.destage, page_bytes),
            transport: TransportModule::new(config.transport),
            config,
            conventional,
            sram_port,
            backing_bw,
            vendor_out: EventQueue::new(),
            fast_bytes_in: 0,
            fast_tlps: 0,
            credit_reads: 0,
            fsync_wakes: 0,
            destage_drain: Vec::new(),
            port: PortAccounting::new(),
        }
    }

    /// Per-port accounting for [`IoPort`] submissions (CID liveness,
    /// in-flight depth, submissions per queue depth); reported under
    /// `core.port`.
    pub fn port_stats(&self) -> &PortAccounting {
        &self.port
    }

    /// The configuration.
    pub fn config(&self) -> &VillarsConfig {
        &self.config
    }

    /// The conventional side (block device, stats, media peeks).
    pub fn conventional(&self) -> &ConventionalSsd {
        &self.conventional
    }

    /// Mutable conventional side (for test staging / direct block I/O).
    pub fn conventional_mut(&mut self) -> &mut ConventionalSsd {
        &mut self.conventional
    }

    /// The transport module.
    pub fn transport(&self) -> &TransportModule {
        &self.transport
    }

    /// Mutable transport (direct role setup, as the cluster does).
    pub fn transport_mut(&mut self) -> &mut TransportModule {
        &mut self.transport
    }

    /// The intake-queue size the flow-control protocol negotiates with the
    /// database (paper §4.1).
    pub fn intake_queue_bytes(&self) -> u64 {
        self.cmb.config().intake_queue_bytes
    }

    /// Total bytes accepted via the fast interface.
    pub fn fast_bytes_in(&self) -> u64 {
        self.fast_bytes_in
    }

    /// CMB statistics.
    pub fn cmb_stats(&self) -> crate::cmb::CmbStats {
        self.cmb.stats()
    }

    /// Destage statistics.
    pub fn destage_stats(&self) -> crate::destage::DestageStats {
        self.destage.stats()
    }

    /// Host fast-side write: `data` stored to the CMB window at monotonic
    /// ring `offset`, issued under `mode` (WC or UC). The TLPs ride the
    /// host link's downstream wire. Mirrors to secondaries when primary.
    ///
    /// The full-size TLPs of the write reach the CMB as one run, the
    /// trailing partial as a run of one. The mirror flow gets the arrivals.
    pub fn fast_write(
        &mut self,
        now: SimTime,
        offset: u64,
        data: &[u8],
        mode: MmioMode,
    ) -> Result<FastWrite, CmbError> {
        let shape = StoreIssueModel { mode }.shape(data.len() as u64);
        // Capacity pre-check: a full ring must stall the writer *before*
        // any TLP is issued, so a retry re-sends the same offsets.
        if !self.cmb.has_room(offset, data.len() as u64) {
            return Err(CmbError::RingFull);
        }
        let full = (shape.unit * shape.full_count) as usize;
        let (mut burst, mut arrived) = (TlpRun::default(), now);
        if full > 0 {
            burst = self.send(now, offset, &data[..full], shape.full_count)?;
            arrived = burst.last();
        }
        if full < data.len() {
            arrived = self.send(now, offset + full as u64, &data[full..], 1)?.first;
        }
        let issued_at = self.conventional.host_downstream_busy_until();
        let outbound = self.transport.mirror(offset, data, shape, burst, arrived);
        Ok(FastWrite { issued_at, arrived_at: arrived, outbound })
    }

    /// Send `data` — `count` equal TLPs, back to back on the downstream
    /// wire from `now` — to the CMB as one run. Returns how they landed. A
    /// lone TLP lands where the wire puts it; a burst is quoted first
    /// (`peek_write_burst`) and charged once the CMB has answered: a TLP it
    /// refuses has crossed the wire too, the ones after it are not sent.
    fn send(
        &mut self,
        now: SimTime,
        offset: u64,
        data: &[u8],
        count: u64,
    ) -> Result<TlpRun, CmbError> {
        let unit = (data.len() as u64 / count) as u32;
        let link = self.conventional.host_downstream_mut();
        let (first, period) = match count {
            1 => (link.send_write_burst(now, unit, 1).end, SimDuration::ZERO),
            _ => link.peek_write_burst(now, unit),
        };
        let run = TlpRun { first, period, count };
        let taken = self.intake(run, offset, data);
        let sent = taken.as_ref().map_or_else(|(k, _)| k + 1, |()| count);
        if count > 1 {
            self.conventional.host_downstream_mut().send_write_burst(now, unit, sent);
        }
        self.fast_tlps += sent;
        taken.map(|()| run).map_err(|(_, e)| e)
    }

    /// Hand the CMB the equal TLPs of `data`, landing as `run` says
    /// ([`CmbModule::ingest_run`]). They drain through the dedicated SRAM
    /// port or the shared DRAM port, whose derated transfer time models the
    /// 64-bit CMB path on the shared controller (paper §6).
    fn intake(&mut self, run: TlpRun, offset: u64, data: &[u8]) -> Result<(), (u64, CmbError)> {
        let port = match &mut self.sram_port {
            Some(port) => port,
            None => self.conventional.dram_port(),
        };
        let taken = self.cmb.ingest_run(run, offset, data, port, self.backing_bw);
        let unit = data.len() as u64 / run.count;
        self.fast_bytes_in += taken.as_ref().map_or_else(|(k, _)| k * unit, |()| data.len() as u64);
        taken
    }

    /// Deliver a mirrored write into this (secondary) device's CMB intake:
    /// `data` at log `offset`, cut into TLPs of `unit` bytes that land as
    /// `landings` say, each run through the intake the primary uses. TLPs
    /// below the log's tail are skipped: a delivery refused part-way
    /// resumes where it stopped, a duplicate is a no-op.
    pub fn receive_mirror(
        &mut self,
        offset: u64,
        data: &[u8],
        unit: u64,
        landings: &[TlpRun],
    ) -> Result<(), CmbError> {
        let resume = self.cmb.tail();
        let (mut at, mut rest) = (offset, data);
        for run in landings {
            let (tlps, after) = rest.split_at(rest.len().min((run.count * unit) as usize));
            // A run of one may be the trailing partial.
            let unit = unit.min(tlps.len() as u64);
            let skip = (resume.saturating_sub(at) / unit).min(run.count);
            if skip < run.count {
                let tlps = &tlps[(skip * unit) as usize..];
                self.intake(run.skip(skip), at + skip * unit, tlps).map_err(|(_, e)| e)?;
            }
            at += tlps.len() as u64;
            rest = after;
        }
        debug_assert!(rest.is_empty(), "{} bytes without a landing", rest.len());
        Ok(())
    }

    /// Host control-interface read of the credit counter: an MMIO read
    /// round trip on the host link (request down, completion up), returning
    /// the policy-combined value (paper §4.2). Returns `(completion instant,
    /// counter)`.
    pub fn read_credit(&mut self, now: SimTime) -> (SimTime, u64) {
        self.credit_reads += 1;
        let g = self.conventional.host_read_round_trip(now, 0, 8);
        (g.end, self.observed_credit(g.end))
    }

    /// Raw local credit (no PCIe round trip) — device-internal observers.
    pub fn local_credit(&mut self, now: SimTime) -> u64 {
        self.cmb.credit_at(now)
    }

    /// Policy-combined credit (replication-aware, like
    /// [`VillarsDevice::read_credit`]) but *without* the MMIO round trip —
    /// for host-side completion pollers that resolve already-issued
    /// appends against the durability frontier without perturbing the
    /// link timeline.
    pub fn observed_credit(&mut self, now: SimTime) -> u64 {
        let local = self.cmb.credit_at(now);
        self.transport.combined_credit(local, self.config.replication)
    }

    /// Secondary: bound shadow-update catch-up work at `bound` — see
    /// [`crate::transport::TransportModule::catch_up_shadow_clock`]. The
    /// cluster calls this once per advance horizon, before any emission.
    pub fn catch_up_shadow_clock(&mut self, bound: SimTime) {
        self.transport.catch_up_shadow_clock(bound);
    }

    /// Secondary: emit the shadow-counter updates due up to `now`, as
    /// runs, for the cluster.
    pub fn take_shadow_updates(&mut self, now: SimTime, me: DeviceIndex) -> Vec<Outbound> {
        self.transport.take_shadow_updates(now, me, &mut self.cmb)
    }

    /// Primary: apply `count` shadow-counter updates of `value` from
    /// secondary `src`, the last arriving at `last_at`.
    pub fn apply_shadow(&mut self, src: DeviceIndex, value: u64, last_at: SimTime, count: u64) {
        self.transport.apply_shadow(src, value, last_at, count);
    }

    /// Drive the device to `t`, stepping through internal event times so
    /// that destage decisions fire when their triggers occur (a credit
    /// crossing a page boundary, a latency deadline) rather than at the
    /// advance horizon.
    pub fn advance(&mut self, t: SimTime) {
        let mut stuck_at: Option<SimTime> = None;
        let mut drained = std::mem::take(&mut self.destage_drain);
        loop {
            // Jump straight to the next internal event at or below the
            // horizon — never step in fixed quanta.
            let conventional = self.conventional.next_device_event();
            let step = match SimTime::earliest(self.fast_frontier(false, |_| true), conventional) {
                Some(e) if e <= t => e,
                _ => t,
            };
            let mut progressed = false;
            // (Ahead of the conventional side's frontier nothing is due there.)
            if conventional.is_some_and(|at| at <= step) {
                self.conventional.advance_to(step);
                drained.clear();
                self.conventional.drain_destage_completions_into(step, &mut drained);
                for &(_at, token) in &drained {
                    progressed |= self.destage.complete(token);
                }
                // Discard orphaned internal-read completions (an interrupted
                // recovery read): left in place they would pin the event
                // frontier below real work and stall the loop for good.
                drained.clear();
                self.conventional.drain_internal_reads_into(step, &mut drained);
                progressed |= !drained.is_empty();
            }
            progressed |= self.destage.pump(step, &mut self.cmb, &mut self.conventional);
            if progressed {
                stuck_at = None;
                continue;
            }
            if step >= t {
                break;
            }
            // No progress below the horizon: safe only if the event frontier
            // moved past `step`; a second no-progress visit to the same
            // instant means the remaining event there is not actionable.
            if stuck_at == Some(step) {
                break;
            }
            stuck_at = Some(step);
        }
        self.destage_drain = drained;
        self.conventional.advance_to(t);
        self.check();
    }

    /// The log's invariants across its two modules, checked in debug builds
    /// after every [`VillarsDevice::advance`] and
    /// [`VillarsDevice::power_fail`]: `persisted ≤ scheduled ≤ credit` (a
    /// page is destaged only from credited bytes, and persists only once
    /// scheduled) and `head ≤ scheduled` (ring space is freed only by a
    /// destage submission). [`CmbModule`] checks its own `head ≤ credit ≤
    /// tail`.
    fn check(&self) {
        if cfg!(debug_assertions) {
            let (persisted, scheduled) = (self.destage.persisted(), self.destage.scheduled());
            let (head, credit) = (self.cmb.head(), self.cmb.credit_settled());
            assert!(
                persisted <= scheduled && scheduled <= credit && head <= scheduled,
                "Villars log: persisted {persisted}, scheduled {scheduled}, credit {credit}, \
                 head {head}"
            );
        }
    }

    /// The earliest head `keep` admits among the device's calendars — the
    /// one list of them: the fast side's and the conventional side's
    /// ([`ConventionalSsd::frontier`]).
    fn frontier(&self, host_facing: bool, keep: impl Fn(SimTime) -> bool) -> Option<SimTime> {
        let fast_side = self.fast_frontier(host_facing, &keep);
        SimTime::earliest(fast_side, self.conventional.frontier(host_facing, keep))
    }

    /// The fast side's calendars: the log's triggers (a destage latency
    /// deadline, a CMB chunk settling) and, if `host_facing`, the vendor
    /// completions waiting for the host.
    fn fast_frontier(&self, host_facing: bool, keep: impl Fn(SimTime) -> bool) -> Option<SimTime> {
        let vendor = self.vendor_out.next_time().filter(|_| host_facing);
        [self.destage.next_deadline(), self.cmb.next_pending(), vendor]
            .into_iter()
            .flatten()
            .filter(|at| keep(*at))
            .min()
    }

    /// The earliest pending device event (conventional work, a fast-side
    /// trigger, or a completion waiting for the host).
    pub fn next_event(&self) -> Option<SimTime> {
        self.frontier(true, |_| true)
    }

    /// The earliest pending device event strictly after `t`. A completion
    /// the host has not reaped sits at its posting time, at or before `t`,
    /// and hides nothing: every calendar is filtered on its own.
    pub fn next_event_after(&self, t: SimTime) -> Option<SimTime> {
        self.frontier(true, |at| at > t)
    }

    /// When the local credit counter reaches `target`
    /// ([`CmbModule::credit_reaches`]).
    pub fn credit_reaches(&self, target: u64) -> Option<SimTime> {
        self.cmb.credit_reaches(target)
    }

    /// Log offset durable on the conventional side (x_pread horizon).
    pub fn destaged_upto(&self) -> u64 {
        self.destage.persisted()
    }

    /// The monotonic log tail: every byte below it has been contiguously
    /// received into the CMB ring.
    pub fn log_tail(&self) -> u64 {
        self.cmb.tail()
    }

    /// The destage head: bytes below it have left the CMB ring for the
    /// conventional side (readable via [`VillarsDevice::read_destaged`]).
    pub fn log_head(&self) -> u64 {
        self.cmb.head()
    }

    /// Oldest log offset still readable from the destage ring — the ring
    /// recycles, so offsets below this are gone from the device and
    /// recoverable only from a host-side archive. `None` when nothing has
    /// been destaged yet.
    ///
    /// `lane` must be 0: the device holds one log, and the argument stays
    /// only because `benchmark/` calls this with it.
    pub fn destage_readable_from(&self, lane: usize) -> Option<u64> {
        assert_eq!(lane, 0, "a Villars device holds one log");
        self.destage.readable_from()
    }

    /// Copy live CMB ring content `[offset, offset+len)` (panics with the
    /// structured invariant report when the range falls outside the live
    /// window `[head, tail]`).
    pub fn log_content(&self, offset: u64, len: usize) -> Vec<u8> {
        self.cmb.content(offset, len)
    }

    /// Raw flash-array statistics of the conventional side (including the
    /// injected fault counters).
    pub fn flash_stats(&self) -> flash::FlashStats {
        self.conventional.flash_stats()
    }

    /// Arm the conventional side's flash fault layer (transient read /
    /// program retries, permanent program failures) with a dedicated RNG
    /// stream. A device left unarmed takes zero extra RNG draws.
    pub fn arm_flash_faults(&mut self, cfg: simkit::faults::FlashFaultConfig, rng: simkit::DetRng) {
        self.conventional.arm_flash_faults(cfg, rng);
    }

    /// Arm transport (NTB) faults on every replication flow this device
    /// creates — the arming survives role reconfiguration.
    pub fn arm_transport_faults(
        &mut self,
        cfg: simkit::faults::TransportFaultConfig,
        rng: simkit::DetRng,
    ) {
        self.transport.arm_flow_faults(cfg, rng);
    }

    /// Park this device's outgoing transport flows during `window` (a link
    /// retrain). Schedule after replication roles are configured.
    pub fn schedule_link_down(&mut self, window: simkit::faults::LinkDownWindow) {
        self.transport.schedule_link_down(window);
    }

    /// Read destaged log content `[offset, offset+len)`, driving the device
    /// until the read completes. Returns `None` if the range is not (or no
    /// longer) on the destage ring.
    ///
    /// `lane` must be 0: the device holds one log, and the argument stays
    /// only because `benchmark/` calls this with it.
    pub fn read_destaged(
        &mut self,
        now: SimTime,
        lane: usize,
        offset: u64,
        len: usize,
    ) -> Option<(SimTime, Vec<u8>)> {
        assert_eq!(lane, 0, "a Villars device holds one log");
        let mut out = Vec::with_capacity(len);
        let mut reads = Vec::new();
        let mut ready = now;
        let mut cursor = offset;
        let end = offset + len as u64;
        while cursor < end {
            let seg = self.destage.segment_for(cursor)?;
            // Host-visible content: the write cache may still hold a
            // destaged page the flash program has not retired yet.
            let media = self.conventional.read_content(seg.lba)?;
            let within = (cursor - seg.log_from) as usize;
            let take = ((seg.log_to - cursor) as usize).min((end - cursor) as usize);
            out.extend_from_slice(&media[within..within + take]);
            // Timing: one flash read per touched page.
            if let Some(token) = self.conventional.submit_internal_read(ready, seg.lba) {
                // Drive until *that* read completes, stepping on the flash
                // pipeline's own events — the global next_event_at can sit
                // pinned at an undelivered destage completion (which only
                // the device advance loop routes), and breaking out early
                // would orphan this read's completion, pinning the event
                // frontier in turn.
                loop {
                    self.conventional.advance_to(ready);
                    reads.clear();
                    self.conventional.drain_internal_reads_into(ready, &mut reads);
                    if let Some(&(at, _)) = reads.iter().find(|(_, tok)| *tok == token) {
                        ready = at;
                        break;
                    }
                    match self.conventional.next_flash_event() {
                        Some(t) if t > ready => ready = t,
                        _ => break,
                    }
                }
            }
            cursor += take as u64;
        }
        Some((ready, out))
    }

    /// Sudden power interruption (paper §4.1 crash consistency): the device
    /// drains the intake queue (stopping at a gap), destages the ring
    /// residue on supercap power, and loses all host-volatile state.
    pub fn power_fail(&mut self, now: SimTime) -> CrashReport {
        self.advance(now);
        let tail_before = self.cmb.tail();
        let frontier = self.cmb.crash_drain();
        let durable =
            self.destage.crash_destage(now, frontier, &mut self.cmb, &mut self.conventional);
        // Reboot: CMB content is reset but the log-offset space continues
        // from the durable frontier; destaged data is on the conventional
        // side, readable through the destage ring segments. The transport
        // role does not survive the crash — peers must be reconfigured via
        // vendor commands (paper §7.1).
        self.cmb.reset_to(durable);
        self.transport.set_stand_alone();
        self.check();
        CrashReport {
            durable_upto: [durable],
            lost_beyond_gap: [tail_before.saturating_sub(frontier)],
        }
    }

    fn vendor_complete(&mut self, now: SimTime, cid: u16, status: Status, result: u32) {
        // Vendor commands cost one admin round: fetch + decode.
        let at = now + SimDuration::from_micros(2);
        self.vendor_out.schedule(at, CompletionEntry { cid, status, result });
    }

    fn handle_vendor(&mut self, now: SimTime, cid: u16, v: VendorCommand) {
        match v.opcode {
            vendor::SET_STAND_ALONE => {
                self.transport.set_stand_alone();
                self.vendor_complete(now, cid, Status::Success, 0);
            }
            vendor::SET_PRIMARY => {
                let n = v.dwords[0] as usize;
                if n == 0 || n > 5 {
                    self.vendor_complete(now, cid, Status::InvalidField, 0);
                    return;
                }
                let secondaries: Vec<DeviceIndex> =
                    v.dwords[1..=n].iter().map(|d| *d as DeviceIndex).collect();
                self.transport.set_primary(secondaries, self.config.ntb, now);
                self.vendor_complete(now, cid, Status::Success, 0);
            }
            vendor::SET_SECONDARY => {
                self.transport.set_secondary(v.dwords[0] as DeviceIndex, self.config.ntb, now);
                self.vendor_complete(now, cid, Status::Success, 0);
            }
            vendor::SET_SHADOW_PERIOD => {
                if v.dwords[0] == 0 {
                    self.vendor_complete(now, cid, Status::InvalidField, 0);
                } else {
                    self.transport.set_shadow_period(SimDuration::from_nanos(v.dwords[0] as u64));
                    self.vendor_complete(now, cid, Status::Success, 0);
                }
            }
            vendor::SET_SCHED_MODE => {
                let mode = match v.dwords[0] {
                    0 => flash::SchedulingMode::Neutral,
                    1 => flash::SchedulingMode::DestagePriority,
                    2 => flash::SchedulingMode::ConventionalPriority,
                    _ => {
                        self.vendor_complete(now, cid, Status::InvalidField, 0);
                        return;
                    }
                };
                self.conventional.set_scheduling_mode(mode);
                self.vendor_complete(now, cid, Status::Success, 0);
            }
            vendor::GET_TRANSPORT_STATUS => {
                let code = match self.transport.status_at(now) {
                    TransportStatus::Ok => 0,
                    TransportStatus::Degraded => 1,
                    TransportStatus::Inactive => 2,
                };
                self.vendor_complete(now, cid, Status::Success, code);
            }
            vendor::SET_INTAKE_QUEUE => {
                let bytes = v.dwords[0] as u64;
                if bytes == 0 || v.dwords[1] != 0 {
                    self.vendor_complete(now, cid, Status::InvalidField, 0);
                } else {
                    // The new window applies to later ingests; bytes
                    // already in the intake queue are not re-checked.
                    self.cmb.set_intake_queue(bytes);
                    self.vendor_complete(now, cid, Status::Success, 0);
                }
            }
            _ => self.vendor_complete(now, cid, Status::InvalidOpcode, 0),
        }
    }

    /// Whether this device currently acts as a primary.
    pub fn is_primary(&self) -> bool {
        matches!(self.transport.role(), Role::Primary { .. })
    }
}

impl simkit::Instrument for VillarsDevice {
    /// Reports the conventional side's cross-stack groups plus the fast
    /// side under `core.*` — the full PCIe-to-flash view of one device.
    fn instrument(&self, out: &mut simkit::Scope<'_>) {
        self.conventional.instrument(out);
        // The `lane0` segment predates the one-log device; the paths stay
        // because `benchmark/` and the committed goldens read them.
        out.collect("core.cmb.lane0", &self.cmb);
        out.collect("core.destage.lane0", &self.destage);
        out.collect("core.transport", &self.transport);
        out.collect("core.port", &self.port);
        let mut fast = out.scope("core.fast");
        fast.counter("bytes_in", self.fast_bytes_in);
        fast.counter("tlps", self.fast_tlps);
        fast.counter("credit_reads", self.credit_reads);
        fast.counter("fsync_wakes", self.fsync_wakes);
        if let Some(port) = &self.sram_port {
            fast.collect("sram_port", port);
        }
        // Replication lag: bytes the slowest secondary still trails the
        // primary's settled credit frontier by.
        if let Some(min_shadow) = self.transport.min_shadow() {
            let local = self.cmb.credit_settled();
            fast.gauge("replication_lag_bytes", local.saturating_sub(min_shadow) as f64);
        }
    }
}

impl NvmeController for VillarsDevice {
    fn submit(&mut self, now: SimTime, cmd: Command) {
        match cmd.kind {
            CommandKind::Admin(AdminCommand::Vendor(v)) => self.handle_vendor(now, cmd.cid, v),
            _ => NvmeController::submit(&mut self.conventional, now, cmd),
        }
    }

    fn advance_to(&mut self, t: SimTime) {
        self.advance(t);
    }

    fn drain_completions_into(&mut self, t: SimTime, out: &mut Vec<Completion>) {
        let start = out.len();
        self.conventional.drain_completions_into(t, out);
        let vendor = out.len();
        while let Some((at, entry)) = self.vendor_out.pop_due(t) {
            out.push(Completion { at, entry });
        }
        if out.len() > vendor {
            // Stable merge: at one instant the conventional side goes first.
            out[start..].sort_by_key(|c| c.at);
        }
    }

    fn next_event_at(&self) -> Option<SimTime> {
        self.next_event()
    }

    fn namespace(&self) -> Namespace {
        self.conventional.namespace()
    }
}

impl IoPort for VillarsDevice {
    /// The device-level port is unbounded: NVMe back-pressure is modelled
    /// by the device internals, not by refusing a submission.
    fn submit(&mut self, now: SimTime, kind: CommandKind) -> CmdTag {
        let cid = self.port.begin();
        NvmeController::submit(self, now, Command { cid, kind });
        CmdTag(cid)
    }

    fn poll(&mut self, now: SimTime) {
        self.advance(now);
    }

    fn completions_into(&mut self, now: SimTime, out: &mut Vec<Completion>) {
        let start = out.len();
        self.drain_completions_into(now, out);
        for c in &out[start..] {
            self.port.finish(c.entry.cid);
        }
    }

    fn next_port_event_at(&self) -> Option<SimTime> {
        self.next_event()
    }

    fn in_flight(&self) -> usize {
        self.port.in_flight()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_16k_write_on_the_dram_lane_is_two_pending_runs_at_most() {
        // 256 TLPs landing every 44 ns, each draining for 80 ns on the
        // shared port: one run of drains (and one more for a partial), not
        // an entry per TLP.
        let mut dev = VillarsDevice::new(VillarsConfig::villars_dram());
        let data = vec![0xD5; 16 << 10];
        dev.fast_write(SimTime::from_micros(1), 0, &data, MmioMode::WriteCombining)
            .expect("fits the window");
        let cmb = &dev.cmb;
        assert!(cmb.pending_runs() <= 2, "{} pending entries", cmb.pending_runs());
        assert!(cmb.credit_reaches(16 << 10).is_some());
        assert_eq!(cmb.stats().chunks, 256);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "Villars log: persisted 0, scheduled 0, credit 100, head 50")]
    fn a_head_past_the_destage_schedule_breaks_the_log_invariant() {
        let mut dev = VillarsDevice::new(VillarsConfig::small());
        dev.fast_write(SimTime::ZERO, 0, &[7u8; 100], MmioMode::WriteCombining)
            .expect("fits the window");
        // Credited, but below a page and before the deadline: not scheduled.
        dev.advance(SimTime::from_micros(10));
        assert_eq!((dev.destage.scheduled(), dev.local_credit(SimTime::from_micros(10))), (0, 100));
        // A test-only corruption: ring space freed that no destage took.
        // The CMB's own `head ≤ credit ≤ tail` still holds.
        dev.cmb.advance_head(50);
        dev.advance(SimTime::from_micros(20));
    }
}
