//! The conventional SSD device.
//!
//! Ties together the three subsystems of paper Fig. 2 (bottom): the Host
//! Interface Controller, the Firmware (FTL, data-buffer management,
//! scheduling), and the Storage Controller (flash arrays). This device is
//! also the *conventional side* of a Villars: the fast side's Destage module
//! injects `Destage`-class writes directly into the storage controller via
//! [`ConventionalSsd::submit_destage_write`], bypassing the host data path.

use crate::buffer::{cut_through, DataBuffer};
use crate::ftl::{AllocStream, Ftl, Lpn};
use crate::hic::{Hic, HicConfig};
use flash::{
    ChannelScheduler, FlashArray, FlashError, FlashGeometry, FlashTiming, OpKind, OpRequest, Ppa,
    Priority, ReliabilityConfig, SchedulingMode,
};
use nvme::{
    AdminCommand, Command, CommandId, CommandKind, Completion, CompletionEntry, IoCommand,
    Namespace, NvmeController, Status,
};
use pcie::{DmaConfig, LinkConfig};
use simkit::bytes::Bytes;
use simkit::{Bandwidth, EventQueue, SimTime};
use std::collections::HashMap;

/// Device-wide configuration.
#[derive(Debug, Clone)]
pub struct SsdConfig {
    /// Flash shape.
    pub geometry: FlashGeometry,
    /// Flash timing.
    pub timing: FlashTiming,
    /// Flash reliability.
    pub reliability: ReliabilityConfig,
    /// Host PCIe link.
    pub link: LinkConfig,
    /// HIC timing.
    pub hic: HicConfig,
    /// DMA engine parameters.
    pub dma: DmaConfig,
    /// Data-buffer capacity in pages.
    pub buffer_pages: usize,
    /// Device DRAM port bandwidth (shared with a DRAM-backed CMB).
    pub dram_bandwidth: Bandwidth,
    /// Whether writes complete from the volatile cache (true for consumer
    /// behaviour; an fsync/Flush is then required for durability).
    pub write_cache: bool,
    /// Initial channel-scheduler policy.
    pub scheduling: SchedulingMode,
    /// RNG seed for reliability sampling.
    pub seed: u64,
}

impl Default for SsdConfig {
    fn default() -> Self {
        SsdConfig {
            geometry: FlashGeometry::default(),
            timing: FlashTiming::default(),
            reliability: ReliabilityConfig::perfect(),
            link: LinkConfig::villars_host(),
            hic: HicConfig::default(),
            dma: DmaConfig::default(),
            buffer_pages: 2048,
            dram_bandwidth: Bandwidth::bus(64, 250.0).scaled(2.0), // DDR3 ctrl: 4 GB/s
            write_cache: true,
            scheduling: SchedulingMode::Neutral,
            seed: 0x55D,
        }
    }
}

impl SsdConfig {
    /// Small/fast configuration for unit tests.
    pub fn small() -> Self {
        SsdConfig {
            geometry: FlashGeometry::tiny(),
            timing: FlashTiming::fast(),
            buffer_pages: 16,
            ..SsdConfig::default()
        }
    }
}

/// What an in-flight flash op is doing for the device.
#[derive(Debug, Clone)]
enum PendingOp {
    /// Program for a host write page. `wait_cid` is set when the write
    /// command completes only on durability (write cache disabled).
    HostWrite { lpn: Lpn, data: Bytes, wait_cid: Option<CommandId> },
    /// Read for a host read command page.
    HostReadPage { cid: CommandId },
    /// Fast-side destage program.
    DestageWrite { token: u64, lpn: Lpn, data: Bytes },
    /// Fast-side (or recovery) media read.
    InternalRead { token: u64 },
}

/// Whether the supercapacitor rescue keeps this op (paper §4.1).
fn is_destage(op: &PendingOp) -> bool {
    matches!(op, PendingOp::DestageWrite { .. })
}

#[derive(Debug)]
struct ReadState {
    remaining: usize,
    ready_at: SimTime,
    bytes: u64,
    status: Status,
}

#[derive(Debug)]
struct WriteState {
    remaining: usize,
    last_at: SimTime,
    status: Status,
}

/// A pending flush is a barrier: it waits for every host program whose op
/// id is below `barrier` (the next id at issue). A retried program keeps
/// its first attempt's id, so it still counts.
#[derive(Debug)]
struct FlushState {
    cid: CommandId,
    barrier: u64,
    /// Host programs below the barrier still outstanding.
    waiting: usize,
    last_at: SimTime,
}

#[derive(Debug, Clone)]
enum SsdEvent {
    /// A host command completion fires.
    Complete { cid: CommandId, status: Status },
    /// A flash operation finishes; its effects (media update, durability)
    /// apply at this instant, not when the grant was computed.
    Flash(flash::Completion),
}

/// The conventional SSD.
pub struct ConventionalSsd {
    config: SsdConfig,
    ns: Namespace,
    array: FlashArray,
    sched: ChannelScheduler,
    ftl: Ftl,
    buffer: DataBuffer,
    hic: Hic,
    /// Durable content by logical page (what survives power loss).
    media: HashMap<Lpn, Bytes>,
    /// Host-staged write payloads awaiting the next write command.
    staged: HashMap<Lpn, Bytes>,
    /// What a write without staged data stores: one page of zeros, shared
    /// by every such page in the buffer and on media.
    zero_page: Bytes,
    /// Every queued or in-flight flash op, by op id.
    ops: HashMap<u64, PendingOp>,
    /// Host-write programs not yet on media (what a flush waits on).
    outstanding_host_programs: usize,
    reads: HashMap<CommandId, ReadState>,
    writes_waiting: HashMap<CommandId, WriteState>,
    flushes: Vec<FlushState>,
    next_op: u64,
    next_token: u64,
    /// Per-class monotonic arrival clamps (retries keep order legal),
    /// indexed by `Priority`.
    last_arrival: [SimTime; 2],
    events: EventQueue<SsdEvent>,
    /// Posted host completions, destage tokens and internal-read tokens,
    /// each waiting for its owner to drain it.
    out: EventQueue<CompletionEntry>,
    destage_done: EventQueue<u64>,
    internal_reads_done: EventQueue<u64>,
    /// Host-write page bytes whose programs have completed (served
    /// conventional bandwidth, counted at completion time).
    served_conventional_bytes: u64,
    /// Destage page bytes whose programs have completed.
    served_destage_bytes: u64,
}

impl std::fmt::Debug for ConventionalSsd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConventionalSsd")
            .field("pending_ops", &self.ops.len())
            .field("dirty_pages", &self.buffer.dirty_count())
            .field("media_pages", &self.media.len())
            .finish()
    }
}

impl ConventionalSsd {
    /// Build the device.
    pub fn new(config: SsdConfig) -> Self {
        let array =
            FlashArray::new(config.geometry, config.timing, config.reliability, config.seed);
        let ftl = Ftl::new(config.geometry, &array, 0);
        let sched = ChannelScheduler::new(config.geometry.channels, config.scheduling);
        let buffer =
            DataBuffer::new(config.buffer_pages, config.geometry.page_bytes, config.dram_bandwidth);
        let hic = Hic::new(config.hic, config.link, config.dma);
        // Export 7/8 of raw capacity. The eighth was GC headroom; with no GC
        // it is kept so that no namespace's LBA range moves.
        let capacity = config.geometry.total_pages() * 7 / 8;
        let ns = Namespace::new(1, config.geometry.page_bytes, capacity);
        let zero_page = Bytes::from(vec![0u8; config.geometry.page_bytes as usize]);
        ConventionalSsd {
            config,
            ns,
            array,
            sched,
            ftl,
            buffer,
            hic,
            media: HashMap::new(),
            staged: HashMap::new(),
            zero_page,
            ops: HashMap::new(),
            outstanding_host_programs: 0,
            reads: HashMap::new(),
            writes_waiting: HashMap::new(),
            flushes: Vec::new(),
            next_op: 0,
            next_token: 0,
            last_arrival: [SimTime::ZERO; 2],
            events: EventQueue::new(),
            out: EventQueue::new(),
            destage_done: EventQueue::new(),
            internal_reads_done: EventQueue::new(),
            served_conventional_bytes: 0,
            served_destage_bytes: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SsdConfig {
        &self.config
    }

    /// Arm the flash fault layer (see [`FlashArray::arm_faults`]):
    /// deterministic transient read/program retries plus permanent program
    /// failures, drawn from `rng`. Permanent failures surface as
    /// [`FlashError::ProgramFailed`] and ride the existing FTL
    /// retire-remap-resubmit path. An unarmed device makes zero fault
    /// draws.
    pub fn arm_flash_faults(&mut self, cfg: simkit::faults::FlashFaultConfig, rng: simkit::DetRng) {
        self.array.arm_faults(cfg, rng);
    }

    /// Raw flash-array statistics (programs/reads plus the injected
    /// fault counters — retries, grown bad blocks).
    pub fn flash_stats(&self) -> flash::FlashStats {
        self.array.stats()
    }

    /// Change the channel-scheduler policy (an X-SSD vendor command).
    pub fn set_scheduling_mode(&mut self, mode: SchedulingMode) {
        self.sched.set_mode(mode);
    }

    /// Per-class scheduler statistics (counted at grant time).
    pub fn class_stats(&self, class: Priority) -> flash::ClassStats {
        self.sched.class_stats(class)
    }

    /// FTL statistics.
    pub fn ftl_stats(&self) -> crate::ftl::FtlStats {
        self.ftl.stats()
    }

    /// Buffer statistics.
    pub fn buffer_stats(&self) -> crate::buffer::BufferStats {
        self.buffer.stats()
    }

    /// Host-link statistics, both directions together.
    pub fn link_stats(&self) -> simkit::LinkStats {
        self.hic.link_stats()
    }

    /// Durable content of `lpn`, if any (media only — what a post-crash
    /// read would find).
    pub fn media_content(&self, lpn: Lpn) -> Option<Bytes> {
        self.media.get(&lpn).cloned()
    }

    /// Current content of `lpn` as the host would read it (cache, then
    /// media).
    pub fn read_content(&self, lpn: Lpn) -> Option<Bytes> {
        self.buffer.peek(lpn).or_else(|| self.media.get(&lpn).cloned())
    }

    /// Stage payload bytes for an upcoming host write to `lpn`. Writes
    /// without staged data store zero-filled pages.
    pub fn stage_write_data(&mut self, lpn: Lpn, data: Bytes) {
        assert!(
            data.len() <= self.config.geometry.page_bytes as usize,
            "staged data exceeds page size"
        );
        self.staged.insert(lpn, data);
    }

    /// The shared DRAM port, for the CMB path that holds it at its derated
    /// rate — a run of drains at a time ([`simkit::SerialResource::acquire_run`]).
    pub fn dram_port(&mut self) -> &mut simkit::SerialResource {
        self.buffer.port_mut()
    }

    /// Borrow the host link's downstream wire, which the host's stores ride
    /// (CMB MMIO traffic shares it with DMA-in).
    pub fn host_downstream_mut(&mut self) -> &mut pcie::PcieLink {
        self.hic.downstream_mut()
    }

    /// When the downstream wire next goes idle (store-issue pipelining).
    pub fn host_downstream_busy_until(&self) -> SimTime {
        self.hic.downstream_busy_until()
    }

    /// Host MMIO read over the host link (see [`Hic::read_round_trip`]).
    pub fn host_read_round_trip(&mut self, now: SimTime, addr: u64, len: u32) -> simkit::Grant {
        self.hic.read_round_trip(now, addr, len)
    }

    /// Submit a new flash op under a fresh id.
    fn submit_op(&mut self, arrival: SimTime, kind: OpKind, class: Priority, op: PendingOp) {
        let id = self.next_op;
        self.next_op += 1;
        self.submit_op_as(id, arrival, kind, class, op);
    }

    /// Submit a flash op under `id`, keeping per-class arrivals monotonic.
    /// A retried program comes back here under the id of its first attempt.
    fn submit_op_as(
        &mut self,
        id: u64,
        arrival: SimTime,
        kind: OpKind,
        class: Priority,
        op: PendingOp,
    ) {
        let clamp = &mut self.last_arrival[class as usize];
        *clamp = arrival.max(*clamp);
        let arrival = *clamp;
        self.ops.insert(id, op);
        self.sched.submit(OpRequest { id, kind, arrival, class });
    }

    /// Fast-side entry point: program one page of destage data. The data
    /// path is CMB backing memory → flash, with no data-buffer copy (the
    /// two-data-movement argument of paper §5.1).
    pub fn submit_destage_write(&mut self, now: SimTime, lpn: Lpn, data: Bytes) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        let ppa = self.allocate(now, lpn, AllocStream::Destage);
        self.submit_op(
            now,
            OpKind::Program(ppa),
            Priority::Destage,
            PendingOp::DestageWrite { token, lpn, data },
        );
        token
    }

    /// Fast-side/recovery entry point: read one page from media. Returns a
    /// token; completion arrives via
    /// [`ConventionalSsd::drain_internal_reads_into`].
    pub fn submit_internal_read(&mut self, now: SimTime, lpn: Lpn) -> Option<u64> {
        let ppa = self.ftl.lookup(lpn)?;
        let token = self.next_token;
        self.next_token += 1;
        self.submit_op(
            now,
            OpKind::Read(ppa),
            Priority::Conventional,
            PendingOp::InternalRead { token },
        );
        Some(token)
    }

    /// Append destage completions at or before `t` to `out` as `(time,
    /// token)`, in completion order, without allocating — the Villars
    /// advance loop drains once per event step with a reusable buffer.
    pub fn drain_destage_completions_into(&mut self, t: SimTime, out: &mut Vec<(SimTime, u64)>) {
        while let Some(done) = self.destage_done.pop_due(t) {
            out.push(done);
        }
    }

    /// Append internal-read completions at or before `t` to `out`, in
    /// completion order, without allocating.
    pub fn drain_internal_reads_into(&mut self, t: SimTime, out: &mut Vec<(SimTime, u64)>) {
        while let Some(done) = self.internal_reads_done.pop_due(t) {
            out.push(done);
        }
    }

    /// Allocate a physical page for `lpn`. The device is fresh and never
    /// reclaims, so running out of pages ends the run.
    fn allocate(&mut self, at: SimTime, lpn: Lpn, stream: AllocStream) -> Ppa {
        let Some(ppa) = self.ftl.allocate(lpn, stream) else {
            panic!(
                "{}",
                simkit::SimError::invariant(
                    "ssd allocation",
                    simkit::DiagnosticSnapshot::new(at, self.ops.len()).detail(format!(
                        "device full: no free page for lpn {lpn} ({stream:?}) among {} raw \
                         pages; the FTL never reclaims",
                        self.config.geometry.total_pages()
                    )),
                )
            )
        };
        ppa
    }

    fn handle_io(&mut self, now: SimTime, cid: CommandId, io: IoCommand) {
        let fetch = self.hic.fetch(now);
        match io {
            IoCommand::Write { lba, blocks } => {
                if !self.ns.range_ok(lba, blocks) {
                    self.events.schedule(
                        fetch.end,
                        SsdEvent::Complete { cid, status: Status::LbaOutOfRange },
                    );
                    return;
                }
                let bytes = self.ns.bytes_of(blocks);
                let page = self.ns.bytes_of(1);
                let dma = self.hic.dma_in(fetch.end, bytes);
                let mut last = dma.end;
                let wait_cid = if self.config.write_cache { None } else { Some(cid) };
                let mut programs = 0usize;
                for i in 0..blocks as u64 {
                    let lpn = lba + i;
                    let data = self.staged.remove(&lpn).unwrap_or_else(|| self.zero_page.clone());
                    // The DMA's target is the buffer: page i is in it one
                    // piece after its own last TLP lands, and its program
                    // does not wait for the pages behind it.
                    let first = dma.landed(i * page + 1);
                    let g = self.buffer.write(first, dma.period, dma.unit, lpn, data.clone());
                    last = last.max(g.end);
                    let ppa = self.allocate(g.end, lpn, AllocStream::Host);
                    self.submit_op(
                        g.end,
                        OpKind::Program(ppa),
                        Priority::Conventional,
                        PendingOp::HostWrite { lpn, data, wait_cid },
                    );
                    self.outstanding_host_programs += 1;
                    programs += 1;
                }
                if self.config.write_cache {
                    let at = last + self.hic.completion_post();
                    self.events.schedule(at, SsdEvent::Complete { cid, status: Status::Success });
                } else {
                    self.writes_waiting.insert(
                        cid,
                        WriteState { remaining: programs, last_at: last, status: Status::Success },
                    );
                }
            }
            IoCommand::Read { lba, blocks } => {
                if !self.ns.range_ok(lba, blocks) {
                    self.events.schedule(
                        fetch.end,
                        SsdEvent::Complete { cid, status: Status::LbaOutOfRange },
                    );
                    return;
                }
                let bytes = self.ns.bytes_of(blocks);
                let mut remaining = 0usize;
                // Buffered pages are read back to back: one port window.
                let mut hits: Option<(SimTime, u32)> = None;
                for i in 0..blocks as u64 {
                    let lpn = lba + i;
                    if let Some((_data, g)) = self.buffer.read(fetch.end, lpn) {
                        let (from, pages) = hits.unwrap_or((g.start, 0));
                        hits = Some((from, pages + 1));
                    } else if let Some(ppa) = self.ftl.lookup(lpn) {
                        self.submit_op(
                            fetch.end,
                            OpKind::Read(ppa),
                            Priority::Conventional,
                            PendingOp::HostReadPage { cid },
                        );
                        remaining += 1;
                    }
                    // Never-written pages read as zeros instantly.
                }
                let ready_at = hits.map_or(fetch.end, |(from, pages)| {
                    // The DMA leaves one piece behind the port, not a page.
                    let (unit, wire) = self.hic.dma_unit();
                    let port = self.buffer.port_time(unit);
                    let pieces = self.ns.bytes_of(pages).div_ceil(unit);
                    cut_through(from + port, port, wire, pieces)
                });
                if remaining == 0 {
                    let dma = self.hic.dma_out(ready_at, bytes);
                    let at = dma.end + self.hic.completion_post();
                    self.events.schedule(at, SsdEvent::Complete { cid, status: Status::Success });
                } else {
                    self.reads.insert(
                        cid,
                        ReadState { remaining, ready_at, bytes, status: Status::Success },
                    );
                }
            }
            IoCommand::Flush => {
                if self.outstanding_host_programs == 0 {
                    let at = fetch.end + self.hic.completion_post();
                    self.events.schedule(at, SsdEvent::Complete { cid, status: Status::Success });
                } else {
                    self.flushes.push(FlushState {
                        cid,
                        barrier: self.next_op,
                        waiting: self.outstanding_host_programs,
                        last_at: fetch.end,
                    });
                }
            }
        }
    }

    fn handle_admin(&mut self, now: SimTime, cid: CommandId, cmd: AdminCommand) {
        let fetch = self.hic.fetch(now);
        let status = match cmd {
            AdminCommand::Identify
            | AdminCommand::GetLogPage
            | AdminCommand::SetFeatures { .. } => Status::Success,
            // The base device knows no vendor commands; the Villars wrapper
            // intercepts them before they reach here.
            AdminCommand::Vendor(_) => Status::InvalidOpcode,
        };
        self.events
            .schedule(fetch.end + self.hic.completion_post(), SsdEvent::Complete { cid, status });
    }

    fn handle_flash(&mut self, c: flash::Completion) {
        let Some(op) = self.ops.remove(&c.id) else { return };
        match op {
            PendingOp::HostWrite { lpn, data, wait_cid } => match c.result {
                Ok(_) => {
                    self.served_conventional_bytes += self.config.geometry.page_bytes as u64;
                    self.media.insert(lpn, data);
                    self.buffer.mark_clean(lpn);
                    self.settle_host_program(c.id, c.at);
                    if let Some(cid) = wait_cid {
                        self.settle_waiting_write(cid, c.at, Status::Success);
                    }
                }
                Err(FlashError::ProgramFailed(b)) | Err(FlashError::BadBlock(b)) => {
                    self.ftl.retire_block(b);
                    let ppa = self.allocate(c.at, lpn, AllocStream::Host);
                    self.submit_op_as(
                        c.id,
                        c.at,
                        OpKind::Program(ppa),
                        Priority::Conventional,
                        PendingOp::HostWrite { lpn, data, wait_cid },
                    );
                }
                Err(e) => panic!(
                    "{}",
                    simkit::SimError::invariant(
                        "ssd host-write path",
                        simkit::DiagnosticSnapshot::new(c.at, self.ops.len())
                            .queue(
                                "outstanding_host_programs",
                                self.outstanding_host_programs as u64
                            )
                            .detail(format!("flash op {} (lpn {lpn}) failed: {e}", c.id)),
                    )
                ),
            },
            PendingOp::HostReadPage { cid } => {
                if let Some(state) = self.reads.get_mut(&cid) {
                    state.remaining -= 1;
                    state.ready_at = state.ready_at.max(c.at);
                    if c.result.is_err() {
                        state.status = Status::MediaError;
                    }
                    if state.remaining == 0 {
                        let state = self.reads.remove(&cid).expect("just seen");
                        let dma = self.hic.dma_out(state.ready_at, state.bytes);
                        let at = dma.end + self.hic.completion_post();
                        self.events.schedule(at, SsdEvent::Complete { cid, status: state.status });
                    }
                }
            }
            PendingOp::DestageWrite { token, lpn, data } => match c.result {
                Ok(_) => {
                    self.served_destage_bytes += self.config.geometry.page_bytes as u64;
                    self.media.insert(lpn, data);
                    self.destage_done.schedule(c.at, token);
                }
                Err(FlashError::ProgramFailed(b)) | Err(FlashError::BadBlock(b)) => {
                    self.ftl.retire_block(b);
                    let ppa = self.allocate(c.at, lpn, AllocStream::Destage);
                    self.submit_op_as(
                        c.id,
                        c.at,
                        OpKind::Program(ppa),
                        Priority::Destage,
                        PendingOp::DestageWrite { token, lpn, data },
                    );
                }
                Err(e) => panic!(
                    "{}",
                    simkit::SimError::invariant(
                        "ssd destage path",
                        simkit::DiagnosticSnapshot::new(c.at, self.ops.len())
                            .queue("destage_done", self.destage_done.len() as u64)
                            .detail(format!(
                                "flash op {} (lpn {lpn}, token {token}) failed: {e}",
                                c.id
                            )),
                    )
                ),
            },
            PendingOp::InternalRead { token } => {
                self.internal_reads_done.schedule(c.at, token);
            }
        }
    }

    fn settle_waiting_write(&mut self, cid: CommandId, at: SimTime, status: Status) {
        let finished = if let Some(w) = self.writes_waiting.get_mut(&cid) {
            w.remaining -= 1;
            w.last_at = w.last_at.max(at);
            if !status.is_ok() {
                w.status = status;
            }
            w.remaining == 0
        } else {
            false
        };
        if finished {
            let w = self.writes_waiting.remove(&cid).expect("just seen");
            let when = w.last_at + self.hic.completion_post();
            self.events.schedule(when, SsdEvent::Complete { cid, status: w.status });
        }
    }

    fn settle_host_program(&mut self, id: u64, at: SimTime) {
        self.outstanding_host_programs -= 1;
        let mut i = 0;
        while i < self.flushes.len() {
            let f = &mut self.flushes[i];
            f.waiting -= usize::from(id < f.barrier);
            f.last_at = f.last_at.max(at);
            if f.waiting == 0 {
                let f = self.flushes.remove(i);
                let when = f.last_at + self.hic.completion_post();
                self.events
                    .schedule(when, SsdEvent::Complete { cid: f.cid, status: Status::Success });
            } else {
                i += 1;
            }
        }
    }

    /// Power loss without fast-side rescue: volatile state is gone —
    /// unflushed host writes, queued conventional work, pending commands.
    /// Durable media and FTL state survive.
    pub fn power_fail(&mut self, now: SimTime) {
        self.advance_to(now);
        self.buffer.crash();
        self.sched.drop_all();
        self.ops.clear();
        self.outstanding_host_programs = 0;
        self.reads.clear();
        self.writes_waiting.clear();
        self.flushes.clear();
        self.events = EventQueue::new();
        self.out = EventQueue::new();
        self.staged.clear();
    }

    /// Power loss with supercapacitor rescue of the destage class: queued
    /// and in-flight `Destage` writes complete on residual energy; all
    /// host-side volatile state is lost. Returns the instant the rescue
    /// finished.
    pub fn power_fail_rescue_destage(&mut self, now: SimTime) -> SimTime {
        self.advance_to(now);
        // Drop conventional queued work; keep the destage queue.
        self.sched.drop_class(Priority::Conventional);
        // In-flight flash completions: destage ones finish on supercap power,
        // everything else is torn and lost.
        let mut rescued = Vec::new();
        while let Some((_, ev)) = self.events.pop() {
            if let SsdEvent::Flash(c) = ev {
                if self.ops.get(&c.id).is_some_and(is_destage) {
                    rescued.push(c);
                }
            }
        }
        self.buffer.crash();
        self.outstanding_host_programs = 0;
        self.reads.clear();
        self.writes_waiting.clear();
        self.flushes.clear();
        self.out = EventQueue::new();
        self.staged.clear();
        self.ops.retain(|_, op| is_destage(op));
        // Burn residual energy: finish in-flight destage ops, then run the
        // destage queue dry.
        let mut last = now;
        for c in rescued {
            last = last.max(c.at);
            self.handle_flash(c);
        }
        loop {
            let completions = self.sched.pump(&mut self.array, SimTime::MAX);
            if completions.is_empty() && self.events.is_empty() {
                break;
            }
            for c in completions {
                last = last.max(c.at);
                self.handle_flash(c);
            }
            while let Some((at, ev)) = self.events.pop() {
                if let SsdEvent::Flash(c) = ev {
                    last = last.max(at);
                    self.handle_flash(c);
                }
            }
        }
        last
    }
}

impl ConventionalSsd {
    /// The earliest head `keep` admits among the device's calendars — the
    /// one list of them: scheduled events (flash completions, command
    /// completions not yet fired), queued flash work, the undelivered
    /// fast-side completions (pending work for the destage module / the
    /// recovery reader) and, if `host_facing`, the completions in the
    /// outbound queue, which only the host can consume. `keep` sees each
    /// head on its own, so a head it rejects (a completion still sitting at
    /// its posting time) hides nothing behind another calendar's.
    pub fn frontier(&self, host_facing: bool, keep: impl Fn(SimTime) -> bool) -> Option<SimTime> {
        [
            self.events.next_time(),
            self.sched.next_start_hint(&self.array),
            self.destage_done.next_time(),
            self.internal_reads_done.next_time(),
            self.out.next_time().filter(|_| host_facing),
        ]
        .into_iter()
        .flatten()
        .filter(|at| keep(*at))
        .min()
    }

    /// Earliest *device-internal* pending instant (no host-facing
    /// completions). Event-loop steppers use this; drivers use
    /// [`NvmeController::next_event_at`].
    pub fn next_device_event(&self) -> Option<SimTime> {
        self.frontier(false, |_| true)
    }

    /// Earliest instant the flash pipeline itself moves (a scheduled
    /// event fires or queued flash work can start) — excluding the
    /// fast-side completion queues, which sit at their posting time until
    /// their owner drains them. Waiters driving one specific flash op use
    /// this: the global [`ConventionalSsd::next_device_event`] can be
    /// pinned below their op by a completion a *different* loop owns.
    pub fn next_flash_event(&self) -> Option<SimTime> {
        SimTime::earliest(self.events.next_time(), self.sched.next_start_hint(&self.array))
    }
}

impl simkit::Instrument for ConventionalSsd {
    /// Reports the whole device stack under crate-qualified groups
    /// (`pcie.*`, `ssd.*`, `flash.*`), so collecting at the registry root
    /// yields the cross-stack paths of the naming convention.
    fn instrument(&self, out: &mut simkit::Scope<'_>) {
        self.hic.instrument_link(&mut out.scope("pcie.host_link"));
        out.collect("pcie.host_dma", self.hic.dma());
        out.collect("ssd.hic", &self.hic);
        out.collect("ssd.buffer", &self.buffer);
        out.collect("ssd.ftl", &self.ftl);
        {
            let mut ssd = out.scope("ssd");
            ssd.counter("served_conventional_bytes", self.served_conventional_bytes);
            ssd.counter("served_destage_bytes", self.served_destage_bytes);
            ssd.gauge("media_pages", self.media.len() as f64);
            ssd.gauge("pending_ops", self.ops.len() as f64);
        }
        out.collect("flash.array", &self.array);
        out.collect("flash.sched", &self.sched);
    }
}

impl NvmeController for ConventionalSsd {
    fn submit(&mut self, now: SimTime, cmd: Command) {
        match cmd.kind {
            CommandKind::Io(io) => self.handle_io(now, cmd.cid, io),
            CommandKind::Admin(a) => self.handle_admin(now, cmd.cid, a),
        }
    }

    fn advance_to(&mut self, t: SimTime) {
        loop {
            let completions = self.sched.pump(&mut self.array, t);
            let mut progressed = !completions.is_empty();
            for c in completions {
                // Effects apply at the op's completion instant, which may be
                // beyond `t`; hold them as timed events.
                self.events.schedule(c.at, SsdEvent::Flash(c));
            }
            while let Some((at, ev)) = self.events.pop_due(t) {
                progressed = true;
                match ev {
                    SsdEvent::Complete { cid, status } => {
                        self.out.schedule(at, CompletionEntry { cid, status, result: 0 });
                    }
                    SsdEvent::Flash(c) => self.handle_flash(c),
                }
            }
            if !progressed {
                break;
            }
        }
    }

    fn drain_completions_into(&mut self, t: SimTime, out: &mut Vec<Completion>) {
        while let Some((at, entry)) = self.out.pop_due(t) {
            out.push(Completion { at, entry });
        }
    }

    fn next_event_at(&self) -> Option<SimTime> {
        self.frontier(true, |_| true)
    }

    fn namespace(&self) -> Namespace {
        self.ns
    }
}
