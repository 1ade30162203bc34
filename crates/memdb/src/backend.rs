//! Pluggable log backends — the device configurations Fig. 9 compares.
//!
//! - [`NoLog`] — logging disabled (the paper's upper bound);
//! - [`PmLog`] — direct NVDIMM writes from the CPU: store + cache-line
//!   flush + fence (the "Memory" baseline);
//! - [`NvmeLog`] — pwrite/fsync against the conventional block SSD;
//! - [`XssdLog`] — `x_pwrite`/`x_fsync` against a Villars device's fast
//!   side (SRAM- or DRAM-backed, optionally replicated).

use nvme::{CmdTag, CommandKind, Completion, IoCommand, IoPort};
use simkit::{Bandwidth, SerialResource, SimDuration, SimTime};
use xssd_core::{Cluster, XLogFile};

/// One in-flight asynchronous append-and-persist unit (a WAL group),
/// returned by [`LogBackend::append_submit`] and retired by
/// [`LogBackend::drain_completions`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AppendTag(pub u64);

/// A durable append-only log device as the WAL manager sees it.
///
/// Two paths to durability:
///
/// - **Blocking**: [`append`](LogBackend::append) then
///   [`sync`](LogBackend::sync) — `sync` returns only once every prior
///   append (staged or in flight) is durable.
/// - **Asynchronous**: [`append_submit`](LogBackend::append_submit) hands
///   one append-and-persist unit to the device and returns immediately;
///   durability arrives later through
///   [`drain_completions`](LogBackend::drain_completions). This is what
///   lets the WAL group-commit loop keep several groups in flight.
///
/// The pairs are not two spellings of one operation, so `append`/`sync`
/// are not provided methods over submit/drain. Only [`NoLog`] and
/// [`PmLog`] time a single group identically on both. [`NvmeLog::sync`]
/// waits for the write before issuing the flush (queue depth 1 — the
/// Fig. 9 "NVMe saturates" line) where `append_submit` queues both at
/// once; [`XssdLog::sync`] is `x_fsync` with its MMIO credit reads and an
/// exact completion instant where `drain_completions` reads the
/// host-cached credit and stamps the poll instant. Measured in PR 17 by
/// forcing depth 1 through the asynchronous path: fig09's NVMe cell at
/// 8 workers goes 40.4 → 246.2 ktxn/s (`crate::runner` docs, ROADMAP.md).
pub trait LogBackend {
    /// Hand `data` to the device; returns when the append call returns to
    /// the caller (durability NOT implied).
    fn append(&mut self, now: SimTime, data: &[u8]) -> SimTime;

    /// Block until every appended byte is durable (per the backend's
    /// replication policy); returns the completion instant. Dominates
    /// asynchronous submissions too: any unit still in flight is durable
    /// by the returned instant (its completion is still delivered by the
    /// next [`drain_completions`](LogBackend::drain_completions)).
    fn sync(&mut self, now: SimTime) -> SimTime;

    /// Asynchronously hand `data` to the device as one self-contained
    /// append-and-persist unit. Returns the unit's tag plus the instant
    /// the submission returns to the caller (CPU hand-off; durability NOT
    /// implied).
    fn append_submit(&mut self, now: SimTime, data: &[u8]) -> (AppendTag, SimTime);

    /// Deliver `(tag, durable_at)` for every submitted unit known durable
    /// by `now`. Each tag is delivered at most once, in completion order.
    fn drain_completions(&mut self, now: SimTime, out: &mut Vec<(AppendTag, SimTime)>);

    /// Submitted units not yet reported durable.
    fn appends_in_flight(&self) -> usize;

    /// Earliest instant at which an in-flight unit could become durable —
    /// a virtual-time jump target for pollers. `None` only when nothing is
    /// in flight: a backend with a unit in flight must bound it, and a
    /// poller that gets `None` while it waits reports a stall instead of
    /// stepping the clock (`docs/PERFORMANCE.md` rule 2).
    fn next_completion_at(&self) -> Option<SimTime>;

    /// Total bytes appended.
    fn bytes_written(&self) -> u64;

    /// Short label for reports.
    fn name(&self) -> &'static str;
}

/// Logging disabled.
#[derive(Debug, Default)]
pub struct NoLog {
    bytes: u64,
    next_tag: u64,
    pending: Vec<(AppendTag, SimTime)>,
}

impl NoLog {
    /// A fresh no-op backend.
    pub fn new() -> Self {
        Self::default()
    }
}

impl LogBackend for NoLog {
    fn append(&mut self, now: SimTime, data: &[u8]) -> SimTime {
        self.bytes += data.len() as u64;
        now
    }

    fn sync(&mut self, now: SimTime) -> SimTime {
        now
    }

    fn append_submit(&mut self, now: SimTime, data: &[u8]) -> (AppendTag, SimTime) {
        self.bytes += data.len() as u64;
        let tag = AppendTag(self.next_tag);
        self.next_tag += 1;
        // Free logging: durable the instant it is submitted.
        self.pending.push((tag, now));
        (tag, now)
    }

    fn drain_completions(&mut self, _now: SimTime, out: &mut Vec<(AppendTag, SimTime)>) {
        out.append(&mut self.pending);
    }

    fn appends_in_flight(&self) -> usize {
        self.pending.len()
    }

    fn next_completion_at(&self) -> Option<SimTime> {
        self.pending.first().map(|&(_, at)| at)
    }

    fn bytes_written(&self) -> u64 {
        self.bytes
    }

    fn name(&self) -> &'static str {
        "no-log"
    }
}

/// NVDIMM parameters for [`PmLog`].
#[derive(Debug, Clone, Copy)]
pub struct PmConfig {
    /// Effective store bandwidth to the DIMM with persist barriers in the
    /// loop (measured NVDIMM-N streams run near DRAM speed; persist
    /// instructions shave it).
    pub bandwidth: Bandwidth,
    /// Per-cache-line flush cost (`clwb`-class).
    pub flush_per_line: SimDuration,
    /// Store fence at sync.
    pub fence: SimDuration,
}

impl Default for PmConfig {
    fn default() -> Self {
        PmConfig {
            bandwidth: Bandwidth::gbytes_per_sec(8.0),
            flush_per_line: SimDuration::from_nanos(20),
            fence: SimDuration::from_nanos(100),
        }
    }
}

/// Direct load/store logging into battery-backed DRAM on the memory bus
/// (the paper's "Memory" baseline; ERMIA emulates PM the same way, §6).
#[derive(Debug)]
pub struct PmLog {
    config: PmConfig,
    dimm: SerialResource,
    bytes: u64,
    pending_done: SimTime,
    next_tag: u64,
    /// Asynchronous units, `(tag, durable_at)`, ordered by durable instant
    /// (the DIMM is a serial resource, so grants never reorder).
    pending: Vec<(AppendTag, SimTime)>,
}

impl PmLog {
    /// A fresh PM log.
    pub fn new(config: PmConfig) -> Self {
        PmLog {
            config,
            dimm: SerialResource::new(),
            bytes: 0,
            pending_done: SimTime::ZERO,
            next_tag: 0,
            pending: Vec::new(),
        }
    }
}

impl LogBackend for PmLog {
    fn append(&mut self, now: SimTime, data: &[u8]) -> SimTime {
        let len = data.len() as u64;
        let lines = len.div_ceil(64);
        let cost = self.config.bandwidth.transfer_time(len) + self.config.flush_per_line * lines;
        let g = self.dimm.acquire(now, cost);
        self.bytes += len;
        self.pending_done = self.pending_done.max(g.end);
        // The store loop is synchronous on the CPU: the call returns when
        // the copy+flush is done.
        g.end
    }

    fn sync(&mut self, now: SimTime) -> SimTime {
        // All flushes already issued; sync is the fence. `pending_done`
        // covers asynchronous submissions too, so the fence dominates them.
        self.pending_done.max(now) + self.config.fence
    }

    fn append_submit(&mut self, now: SimTime, data: &[u8]) -> (AppendTag, SimTime) {
        let len = data.len() as u64;
        let lines = len.div_ceil(64);
        let cost = self.config.bandwidth.transfer_time(len) + self.config.flush_per_line * lines;
        let g = self.dimm.acquire(now, cost);
        self.bytes += len;
        self.pending_done = self.pending_done.max(g.end);
        let tag = AppendTag(self.next_tag);
        self.next_tag += 1;
        // Each unit carries its own fence: durable once the store+flush
        // train retires and the fence drains.
        self.pending.push((tag, g.end + self.config.fence));
        // The store loop itself is synchronous on the log-writer CPU.
        (tag, g.end)
    }

    fn drain_completions(&mut self, now: SimTime, out: &mut Vec<(AppendTag, SimTime)>) {
        while let Some(&(tag, at)) = self.pending.first() {
            if at > now {
                break;
            }
            out.push((tag, at));
            self.pending.remove(0);
        }
    }

    fn appends_in_flight(&self) -> usize {
        self.pending.len()
    }

    fn next_completion_at(&self) -> Option<SimTime> {
        self.pending.first().map(|&(_, at)| at)
    }

    fn bytes_written(&self) -> u64 {
        self.bytes
    }

    fn name(&self) -> &'static str {
        "pm-nvdimm"
    }
}

/// pwrite/fsync logging against the conventional NVMe SSD.
pub struct NvmeLog {
    driver: nvme::NvmeDriver<ssd::ConventionalSsd>,
    next_lba: u64,
    ring_lbas: u64,
    base_lba: u64,
    /// Bytes staged but not yet written as a block.
    staged: u64,
    bytes: u64,
    next_tag: u64,
    /// Asynchronous units, keyed by the flush command that makes the unit
    /// durable.
    pending: Vec<(AppendTag, CmdTag)>,
    /// Units whose flush completed but were not yet delivered to a drain.
    resolved: Vec<(AppendTag, SimTime)>,
    /// Scratch buffer for draining the driver port.
    drain: Vec<Completion>,
}

impl std::fmt::Debug for NvmeLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NvmeLog").field("bytes", &self.bytes).finish()
    }
}

impl NvmeLog {
    /// Log into `ssd`, cycling over a ring of `ring_lbas` blocks at
    /// `base_lba`.
    pub fn new(device: ssd::ConventionalSsd, base_lba: u64, ring_lbas: u64) -> Self {
        assert!(ring_lbas > 0);
        NvmeLog {
            driver: nvme::NvmeDriver::new(device),
            next_lba: 0,
            ring_lbas,
            base_lba,
            staged: 0,
            bytes: 0,
            next_tag: 0,
            pending: Vec::new(),
            resolved: Vec::new(),
            drain: Vec::new(),
        }
    }

    /// The wrapped device (stats).
    pub fn device(&self) -> &ssd::ConventionalSsd {
        self.driver.controller()
    }

    fn lba_bytes(&self) -> u64 {
        self.driver.namespace().lba_bytes as u64
    }

    /// Poll the driver's I/O port and move completed flushes — each one
    /// retiring an asynchronous append unit — into `resolved`. Write
    /// completions are dropped (the port retires their accounting).
    fn collect(&mut self, now: SimTime) {
        if self.pending.is_empty() {
            return;
        }
        IoPort::poll(&mut self.driver, now);
        let mut buf = std::mem::take(&mut self.drain);
        buf.clear();
        IoPort::completions_into(&mut self.driver, now, &mut buf);
        for c in &buf {
            if let Some(pos) = self.pending.iter().position(|&(_, ft)| ft.0 == c.entry.cid) {
                let (tag, _) = self.pending.remove(pos);
                debug_assert!(
                    c.entry.status.is_ok(),
                    "log flush failed (cid {}): {:?}",
                    c.entry.cid,
                    c.entry.status
                );
                self.resolved.push((tag, c.at));
            }
        }
        buf.clear();
        self.drain = buf;
    }
}

impl LogBackend for NvmeLog {
    fn append(&mut self, now: SimTime, data: &[u8]) -> SimTime {
        // pwrite(): the OS page cache (here: staging) absorbs it; blocks
        // are written out at sync. ERMIA-style direct logging would write
        // immediately; grouping at sync matches the group-commit pipeline.
        self.staged += data.len() as u64;
        self.bytes += data.len() as u64;
        now
    }

    fn sync(&mut self, now: SimTime) -> SimTime {
        // fsync dominates asynchronous submissions: retire any unit still
        // in flight before issuing the staged write-out, so the returned
        // instant covers them. (Their completions stay queued in
        // `resolved` for the next drain.)
        let mut t = now;
        while !self.pending.is_empty() {
            self.collect(t);
            if self.pending.is_empty() {
                break;
            }
            let next = IoPort::next_port_event_at(&self.driver).unwrap_or_else(|| {
                panic!("nvme log idle with {} append units still in flight", self.pending.len())
            });
            t = t.max(next);
        }
        for &(_, at) in &self.resolved {
            t = t.max(at);
        }
        if self.staged == 0 {
            return self.driver.flush_blocking(t).completed_at;
        }
        let lba_bytes = self.lba_bytes();
        let blocks = self.staged.div_ceil(lba_bytes).max(1);
        self.staged = 0;
        let mut remaining = blocks;
        while remaining > 0 {
            let chunk = remaining.min(self.ring_lbas - self.next_lba);
            let lba = self.base_lba + self.next_lba;
            let r = self.driver.write_blocking(t, lba, chunk as u32);
            debug_assert!(r.status.is_ok(), "log write failed: {:?}", r.status);
            t = r.completed_at;
            self.next_lba = (self.next_lba + chunk) % self.ring_lbas;
            remaining -= chunk;
        }
        let f = self.driver.flush_blocking(t);
        debug_assert!(f.status.is_ok());
        f.completed_at
    }

    fn append_submit(&mut self, now: SimTime, data: &[u8]) -> (AppendTag, SimTime) {
        let len = data.len() as u64;
        self.bytes += len;
        let lba_bytes = self.lba_bytes();
        let mut remaining = len.div_ceil(lba_bytes).max(1);
        // Queue the block writes and the flush without waiting: the flush
        // completion is the unit's durability point.
        while remaining > 0 {
            let chunk = remaining.min(self.ring_lbas - self.next_lba);
            let lba = self.base_lba + self.next_lba;
            let _write = IoPort::submit(
                &mut self.driver,
                now,
                CommandKind::Io(IoCommand::Write { lba, blocks: chunk as u32 }),
            );
            self.next_lba = (self.next_lba + chunk) % self.ring_lbas;
            remaining -= chunk;
        }
        let flush = IoPort::submit(&mut self.driver, now, CommandKind::Io(IoCommand::Flush));
        let tag = AppendTag(self.next_tag);
        self.next_tag += 1;
        self.pending.push((tag, flush));
        (tag, now)
    }

    fn drain_completions(&mut self, now: SimTime, out: &mut Vec<(AppendTag, SimTime)>) {
        self.collect(now);
        out.append(&mut self.resolved);
    }

    fn appends_in_flight(&self) -> usize {
        self.pending.len()
    }

    fn next_completion_at(&self) -> Option<SimTime> {
        if let Some(&(_, at)) = self.resolved.first() {
            return Some(at);
        }
        if self.pending.is_empty() {
            None
        } else {
            IoPort::next_port_event_at(&self.driver)
        }
    }

    fn bytes_written(&self) -> u64 {
        self.bytes
    }

    fn name(&self) -> &'static str {
        "nvme-block"
    }
}

/// `x_pwrite`/`x_fsync` logging against a Villars fast side. Owns the
/// cluster so replicated configurations (primary + secondaries) work the
/// same way.
pub struct XssdLog {
    cluster: Cluster,
    file: XLogFile,
    dev: usize,
    label: &'static str,
    next_tag: u64,
    /// Asynchronous units, `(tag, end_offset)`: durable once the policy-
    /// combined credit counter covers `end_offset`. Ordered by offset.
    pending: Vec<(AppendTag, u64)>,
    /// Units retired by an `x_fsync` but not yet delivered to a drain.
    resolved: Vec<(AppendTag, SimTime)>,
}

impl std::fmt::Debug for XssdLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("XssdLog").field("written", &self.file.written()).finish()
    }
}

impl XssdLog {
    /// Log into device `dev` of `cluster` (configure replication on the
    /// cluster before wrapping it).
    pub fn new(cluster: Cluster, dev: usize, label: &'static str) -> Self {
        XssdLog {
            cluster,
            file: XLogFile::open(dev),
            dev,
            label,
            next_tag: 0,
            pending: Vec::new(),
            resolved: Vec::new(),
        }
    }

    /// Access the cluster (stats, crash injection).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Mutable cluster access.
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }
}

impl LogBackend for XssdLog {
    fn append(&mut self, now: SimTime, data: &[u8]) -> SimTime {
        self.file.x_pwrite(&mut self.cluster, now, data).expect("fast-side append failed")
    }

    fn sync(&mut self, now: SimTime) -> SimTime {
        let t = self.file.x_fsync(&mut self.cluster, now).expect("x_fsync failed");
        // The fsync waited for the credit counter to cover every byte
        // handed off, asynchronous units included: retire them all here
        // (delivered by the next drain).
        for (tag, _) in self.pending.drain(..) {
            self.resolved.push((tag, t));
        }
        t
    }

    fn append_submit(&mut self, now: SimTime, data: &[u8]) -> (AppendTag, SimTime) {
        // `x_pwrite` returns at CPU hand-off (stores posted into the CMB
        // intake queue); durability is signalled later by the credit
        // counter, which `drain_completions` polls.
        let t = self.file.x_pwrite(&mut self.cluster, now, data).expect("fast-side append failed");
        let tag = AppendTag(self.next_tag);
        self.next_tag += 1;
        self.pending.push((tag, self.file.written()));
        (tag, t)
    }

    fn drain_completions(&mut self, now: SimTime, out: &mut Vec<(AppendTag, SimTime)>) {
        out.append(&mut self.resolved);
        if self.pending.is_empty() {
            return;
        }
        self.cluster.advance(now);
        // Host-visible durability: the policy-combined credit counter (no
        // MMIO round trip — the poller reads the shadow state the host
        // would have cached). Completion instants are the poll instant,
        // exactly like `x_fsync` observes durability.
        let credit = self.cluster.device_mut(self.dev).observed_credit(now);
        while let Some(&(tag, end)) = self.pending.first() {
            if end > credit {
                break;
            }
            out.push((tag, now));
            self.pending.remove(0);
        }
    }

    fn appends_in_flight(&self) -> usize {
        self.pending.len()
    }

    fn next_completion_at(&self) -> Option<SimTime> {
        if let Some(&(_, at)) = self.resolved.first() {
            return Some(at);
        }
        if self.pending.is_empty() {
            None
        } else {
            // The credit counter moves on cluster events (CMB drains,
            // shadow updates); the next one bounds the next completion.
            self.cluster.next_event_after(SimTime::ZERO)
        }
    }

    fn bytes_written(&self) -> u64 {
        self.file.written()
    }

    fn name(&self) -> &'static str {
        self.label
    }
}

impl simkit::Instrument for NoLog {
    fn instrument(&self, out: &mut simkit::Scope<'_>) {
        out.counter("db.log.bytes_appended", self.bytes);
        out.counter("db.log.async_appends", self.next_tag);
        out.gauge("db.log.appends_in_flight", self.pending.len() as f64);
    }
}

impl simkit::Instrument for PmLog {
    fn instrument(&self, out: &mut simkit::Scope<'_>) {
        out.counter("db.log.bytes_appended", self.bytes);
        out.counter("db.log.dimm_busy_ns", self.dimm.busy_time().as_nanos());
        out.counter("db.log.dimm_stores", self.dimm.request_count());
        out.counter("db.log.async_appends", self.next_tag);
        out.gauge("db.log.appends_in_flight", self.pending.len() as f64);
    }
}

impl simkit::Instrument for NvmeLog {
    /// Reports the whole device stack under the wrapped SSD, plus the
    /// host-side NVMe command count under `nvme.driver` and the driver's
    /// port accounting under `db.log.port` (its one home in the tree).
    fn instrument(&self, out: &mut simkit::Scope<'_>) {
        out.counter("db.log.bytes_appended", self.bytes);
        out.counter("nvme.driver.commands", self.driver.commands_issued());
        out.counter("db.log.async_appends", self.next_tag);
        out.gauge("db.log.appends_in_flight", self.pending.len() as f64);
        out.collect("db.log.port", self.driver.port_stats());
        self.driver.controller().instrument(out);
    }
}

impl simkit::Instrument for XssdLog {
    fn instrument(&self, out: &mut simkit::Scope<'_>) {
        out.counter("db.log.bytes_appended", self.file.written());
        out.counter("db.log.async_appends", self.next_tag);
        out.gauge("db.log.appends_in_flight", self.pending.len() as f64);
        self.cluster.instrument(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssd::{ConventionalSsd, SsdConfig};
    use xssd_core::VillarsConfig;

    #[test]
    fn no_log_is_free() {
        let mut b = NoLog::new();
        let t = b.append(SimTime::ZERO, &[0u8; 4096]);
        assert_eq!(t, SimTime::ZERO);
        assert_eq!(b.sync(t), t);
        assert_eq!(b.bytes_written(), 4096);
    }

    #[test]
    fn pm_log_costs_copy_plus_fence() {
        let mut b = PmLog::new(PmConfig::default());
        let t1 = b.append(SimTime::ZERO, &[0u8; 16384]);
        // 16KiB at 8 GB/s = 2048ns + 256 lines * 20ns = 5120ns -> ~7.2us.
        assert!(t1.as_micros_f64() > 5.0 && t1.as_micros_f64() < 10.0, "{t1}");
        let t2 = b.sync(t1);
        assert_eq!((t2 - t1).as_nanos(), 100);
    }

    #[test]
    fn nvme_log_sync_includes_flash_program() {
        let dev = ConventionalSsd::new(SsdConfig::small());
        let mut b = NvmeLog::new(dev, 0, 64);
        let t1 = b.append(SimTime::ZERO, &[0u8; 8192]);
        assert_eq!(t1, SimTime::ZERO, "append stages only");
        let t2 = b.sync(t1);
        // Two 4KiB blocks + flush: must include tPROG (fast timing 50us).
        assert!(t2.as_micros_f64() >= 50.0, "sync too fast: {t2}");
        assert_eq!(b.bytes_written(), 8192);
    }

    #[test]
    fn nvme_log_ring_wraps() {
        let dev = ConventionalSsd::new(SsdConfig::small());
        let mut b = NvmeLog::new(dev, 0, 4);
        let mut t = SimTime::ZERO;
        for _ in 0..6 {
            b.append(t, &[1u8; 4096]);
            t = b.sync(t);
        }
        assert!(t > SimTime::ZERO);
    }

    #[test]
    fn xssd_log_round_trip() {
        let mut cluster = Cluster::new();
        let dev = cluster.add_device(VillarsConfig::small());
        let mut b = XssdLog::new(cluster, dev, "villars-sram");
        let t1 = b.append(SimTime::ZERO, &[7u8; 4096]);
        let t2 = b.sync(t1);
        assert!(t2 >= t1);
        assert_eq!(b.bytes_written(), 4096);
        // A Villars sync is persistence-on-PM: far faster than flash tPROG.
        assert!(t2.as_micros_f64() < 50.0, "fast side too slow: {t2}");
    }

    #[test]
    fn backend_latency_ordering_matches_fig9() {
        // The core Fig. 9 claim for one 16KiB group commit:
        // no-log < pm ~ villars-sram << nvme.
        let batch = vec![0u8; 16 << 10];

        let mut nolog = NoLog::new();
        let t_nolog = {
            let t = nolog.append(SimTime::ZERO, &batch);
            nolog.sync(t)
        };

        let mut pm = PmLog::new(PmConfig::default());
        let t_pm = {
            let t = pm.append(SimTime::ZERO, &batch);
            pm.sync(t)
        };

        let mut cluster = Cluster::new();
        let dev = cluster.add_device(VillarsConfig::small());
        let mut xssd = XssdLog::new(cluster, dev, "villars-sram");
        let t_xssd = {
            let t = xssd.append(SimTime::ZERO, &batch);
            xssd.sync(t)
        };

        let mut nvme = NvmeLog::new(ConventionalSsd::new(SsdConfig::small()), 0, 64);
        let t_nvme = {
            let t = nvme.append(SimTime::ZERO, &batch);
            nvme.sync(t)
        };

        assert!(t_nolog < t_pm, "{t_nolog} vs {t_pm}");
        assert!(t_pm < t_nvme, "{t_pm} vs {t_nvme}");
        assert!(t_xssd < t_nvme, "{t_xssd} vs {t_nvme}");
        // Fast side within a small factor of raw PM.
        let ratio = t_xssd.as_nanos() as f64 / t_pm.as_nanos().max(1) as f64;
        assert!(ratio < 6.0, "villars/pm ratio {ratio}");
    }
}
