//! The drop-in host API (paper §5).
//!
//! `x_pwrite`/`x_fsync`/`x_pread` replace the familiar syscalls on the fast
//! side. They are *not* system calls — the implementation talks to the
//! device through MMIO, "and therefore do not incur the penalty of context
//! switching into the OS" (§5.1). The advanced `x_alloc`/`x_free` pair
//! (§5.2) exposes the CMB as memory regions that worker threads fill in
//! parallel.

use crate::cluster::Cluster;
use crate::cmb::CmbError;
use crate::transport::DeviceIndex;
use pcie::MmioMode;
use simkit::SimTime;

/// A handle to the fast side of one Villars device — the moral equivalent
/// of an open file descriptor on the log.
#[derive(Debug)]
pub struct XLogFile {
    dev: DeviceIndex,
    lane: usize,
    mode: MmioMode,
    /// Monotonic log offset written so far.
    written: u64,
    /// Credit value at the last counter read (flow-control view).
    credit_seen: u64,
    /// Tail-read cursor (x_pread with the special tail-offset flag).
    read_cursor: u64,
}

/// Errors surfaced by the host API.
#[derive(Debug, Clone, PartialEq)]
pub enum XApiError {
    /// The device rejected an ingest (protocol violation).
    Cmb(CmbError),
    /// A blocking call could not make progress (device idle but condition
    /// unmet — e.g. reading a log range that aged off the destage ring).
    Stalled {
        /// What the call was waiting for.
        waiting_for: &'static str,
    },
}

impl std::fmt::Display for XApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            XApiError::Cmb(e) => write!(f, "CMB error: {e}"),
            XApiError::Stalled { waiting_for } => write!(f, "stalled waiting for {waiting_for}"),
        }
    }
}

impl std::error::Error for XApiError {}

impl From<CmbError> for XApiError {
    fn from(e: CmbError) -> Self {
        XApiError::Cmb(e)
    }
}

impl XLogFile {
    /// Open the fast side of device `dev`, lane 0, in Write-Combining mode
    /// (the fast configuration, paper §6.2).
    pub fn open(dev: DeviceIndex) -> Self {
        Self::open_lane(dev, 0, MmioMode::WriteCombining)
    }

    /// Open a specific lane/mode (UC mode exists to reproduce Fig. 10).
    pub fn open_lane(dev: DeviceIndex, lane: usize, mode: MmioMode) -> Self {
        Self::open_lane_at(dev, lane, mode, 0)
    }

    /// Open a lane whose log already extends to `offset` (reopening after a
    /// reboot, or taking over a recycled multi-tenant lane): writes and tail
    /// reads continue from there.
    pub fn open_lane_at(dev: DeviceIndex, lane: usize, mode: MmioMode, offset: u64) -> Self {
        XLogFile { dev, lane, mode, written: offset, credit_seen: offset, read_cursor: offset }
    }

    /// Bytes appended so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// The lane this handle writes.
    pub fn lane(&self) -> usize {
        self.lane
    }

    /// `pwrite()` replacement (paper §5.1, Fig. 8): copy `data` into CMB in
    /// credit-bounded chunks, pausing to re-read the credit counter whenever
    /// the flow-control window is exhausted — "the best performance was
    /// obtained when using all the credits available without intermediate
    /// checks then pausing to read the credit anew". Returns when the last
    /// byte has been handed to the device (not necessarily persisted).
    pub fn x_pwrite(
        &mut self,
        cl: &mut Cluster,
        now: SimTime,
        data: &[u8],
    ) -> Result<SimTime, XApiError> {
        let q = cl.device(self.dev).intake_queue_bytes(self.lane);
        let mut now = now;
        let mut cursor = 0usize;
        while cursor < data.len() {
            let inflight = self.written - self.credit_seen;
            let room = q.saturating_sub(inflight);
            if room == 0 {
                // Window exhausted: read the counter (one MMIO round trip);
                // if still no room, wait for device progress.
                let (t, credit) = cl.read_credit(self.dev, now, self.lane);
                self.credit_seen = self.credit_seen.max(credit);
                now = t;
                if self.written - self.credit_seen == 0 {
                    continue;
                }
                if self.written - self.credit_seen >= q {
                    cl.advance(now);
                    now = cl.next_event_after(now).ok_or(XApiError::Stalled {
                        waiting_for: "credits to reopen the flow-control window",
                    })?;
                    // The next read is issued at that event and sees it.
                    cl.advance(now);
                }
                continue;
            }
            let chunk = (room as usize).min(data.len() - cursor);
            match cl.fast_write(
                self.dev,
                now,
                self.lane,
                self.written,
                &data[cursor..cursor + chunk],
                self.mode,
            ) {
                Ok((issued_at, _arrived_at)) => {
                    self.written += chunk as u64;
                    cursor += chunk;
                    now = issued_at;
                }
                Err(CmbError::RingFull) => {
                    // Destaging is behind: the device stops granting
                    // credits, so the writer stalls until it catches up.
                    cl.advance(now);
                    now = cl.next_event_after(now).ok_or(XApiError::Stalled {
                        waiting_for: "destaging to free CMB ring space",
                    })?;
                }
                Err(e) => return Err(e.into()),
            }
        }
        Ok(now)
    }

    /// `fsync()` replacement (paper §5.1): block until the credit counter
    /// covers every byte this handle wrote. Under eager replication that
    /// means persisted locally *and* on every secondary.
    ///
    /// One MMIO read of the counter at the call; if it falls short the
    /// caller sleeps — no further reads — until the device-side counter
    /// covers the log ([`Cluster::sleep_until_credit`]), and one read then
    /// confirms it: the return instant is that read's completion, one round
    /// trip after the counter crossed.
    pub fn x_fsync(&mut self, cl: &mut Cluster, now: SimTime) -> Result<SimTime, XApiError> {
        cl.advance(now);
        let (mut t, mut credit) = cl.read_credit(self.dev, now, self.lane);
        // Where the cluster stands.
        let mut at = now;
        loop {
            self.credit_seen = self.credit_seen.max(credit);
            if credit >= self.written {
                return Ok(t);
            }
            at = cl
                .sleep_until_credit(self.dev, self.lane, self.written, at)
                .ok_or(XApiError::Stalled { waiting_for: "the credit counter to cover the log" })?;
            // The host is back from the previous read at `t`.
            (t, credit) = cl.read_credit(self.dev, at.max(t), self.lane);
        }
    }

    /// `pread()` replacement with tail-read semantics (paper §5.1): return
    /// the next `len` bytes of the destaged log after the cursor, blocking
    /// until destaging catches up.
    pub fn x_pread(
        &mut self,
        cl: &mut Cluster,
        now: SimTime,
        len: usize,
    ) -> Result<(SimTime, Vec<u8>), XApiError> {
        let mut now = now;
        // Wait until the destage ring holds the requested range.
        loop {
            cl.advance(now);
            if cl.device(self.dev).destaged_upto(self.lane) >= self.read_cursor + len as u64 {
                break;
            }
            now = cl.next_event_after(now).ok_or(XApiError::Stalled {
                waiting_for: "destaging to reach the requested range",
            })?;
        }
        let (t, bytes) = cl
            .device_mut(self.dev)
            .read_destaged(now, self.lane, self.read_cursor, len)
            .ok_or(XApiError::Stalled { waiting_for: "log range aged off the destage ring" })?;
        self.read_cursor += len as u64;
        Ok((t, bytes))
    }
}

/// A region handed out by [`XAllocator::x_alloc`] (paper §5.2): the caller
/// may fill it in any order; it becomes destageable when freed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XRegion {
    /// First monotonic log offset of the region.
    pub offset: u64,
    /// Region length in bytes.
    pub len: u64,
}

/// The advanced memory-style API: worker threads allocate adjacent ring
/// regions and fill them in parallel — "known as one of the fastest ways to
/// write to a transaction log" (§5.2, citing Aether).
#[derive(Debug)]
pub struct XAllocator {
    dev: DeviceIndex,
    lane: usize,
    next_offset: u64,
    outstanding: Vec<XRegion>,
}

impl XAllocator {
    /// An allocator over device `dev`, lane `lane`.
    pub fn new(dev: DeviceIndex, lane: usize) -> Self {
        XAllocator { dev, lane, next_offset: 0, outstanding: Vec::new() }
    }

    /// Reserve the next `len` bytes of the ring. Regions are adjacent: "the
    /// next allocated area can be adjacent to the previous one on the ring".
    pub fn x_alloc(&mut self, len: u64) -> XRegion {
        assert!(len > 0);
        let r = XRegion { offset: self.next_offset, len };
        self.next_offset += len;
        self.outstanding.push(r);
        r
    }

    /// Write into an allocated region at `within` (any order within the
    /// region). The CMB holds out-of-order data until the log below it is
    /// contiguous.
    pub fn write_region(
        &mut self,
        cl: &mut Cluster,
        now: SimTime,
        region: XRegion,
        within: u64,
        data: &[u8],
    ) -> Result<SimTime, XApiError> {
        assert!(within + data.len() as u64 <= region.len, "write exceeds the allocated region");
        assert!(self.outstanding.contains(&region), "region already freed or never allocated");
        let (issued_at, _arrived_at) = cl.fast_write(
            self.dev,
            now,
            self.lane,
            region.offset + within,
            data,
            MmioMode::WriteCombining,
        )?;
        Ok(issued_at)
    }

    /// Release a region: once every earlier byte is also contiguous, the
    /// region becomes destageable (the ring head can pass it).
    pub fn x_free(&mut self, region: XRegion) {
        let pos = self
            .outstanding
            .iter()
            .position(|r| *r == region)
            .expect("freeing an unallocated region");
        self.outstanding.swap_remove(pos);
    }

    /// Regions allocated but not yet freed.
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VillarsConfig;

    fn standalone() -> (Cluster, XLogFile) {
        let mut cl = Cluster::new();
        let dev = cl.add_device(VillarsConfig::small());
        (cl, XLogFile::open(dev))
    }

    #[test]
    fn pwrite_then_fsync_persists() {
        let (mut cl, mut f) = standalone();
        let t1 = f
            .x_pwrite(&mut cl, SimTime::ZERO, &[0xAB; 1000])
            .expect("x_pwrite rejected by the fast side");
        assert_eq!(f.written(), 1000);
        let t2 = f.x_fsync(&mut cl, t1).expect("x_fsync stalled before the credit covered the log");
        assert!(t2 >= t1);
        let (_t, credit) = cl.read_credit(0, t2, 0);
        assert_eq!(credit, 1000);
    }

    #[test]
    fn pwrite_larger_than_queue_back_pressures() {
        let (mut cl, mut f) = standalone();
        // small() queue is 4 KiB; write 16 KiB.
        let data = vec![7u8; 16 << 10];
        let t1 =
            f.x_pwrite(&mut cl, SimTime::ZERO, &data).expect("x_pwrite rejected by the fast side");
        assert_eq!(f.written(), 16 << 10);
        let t2 = f.x_fsync(&mut cl, t1).expect("x_fsync stalled before the credit covered the log");
        assert!(t2 > SimTime::ZERO);
        // A same-size write with a bigger window would have finished the
        // hand-off sooner: the credit checks cost time.
        assert!(t1 > SimTime::from_micros(8), "back-pressure must cost time: {t1}");
    }

    #[test]
    fn fsync_with_nothing_written_returns_immediately() {
        let (mut cl, mut f) = standalone();
        let t = f
            .x_fsync(&mut cl, SimTime::ZERO)
            .expect("x_fsync stalled before the credit covered the log");
        // Just the MMIO round trip.
        assert!(t.as_micros_f64() < 2.0);
    }

    #[test]
    fn pread_tail_returns_written_content() {
        let (mut cl, mut f) = standalone();
        let payload: Vec<u8> = (0..100u8).cycle().take(5000).collect();
        let t1 = f
            .x_pwrite(&mut cl, SimTime::ZERO, &payload)
            .expect("x_pwrite rejected by the fast side");
        let t2 = f.x_fsync(&mut cl, t1).expect("x_fsync stalled before the credit covered the log");
        // Tail read blocks until destage catches up, then returns content.
        let (t3, bytes) =
            f.x_pread(&mut cl, t2, 4096).expect("x_pread failed against the destage ring");
        assert!(t3 >= t2);
        assert_eq!(bytes, &payload[..4096]);
        // The cursor advanced: the next read returns the following range
        // (once destaged — 5000-4096=904 bytes remain, partial page).
        let (_t4, more) =
            f.x_pread(&mut cl, t3, 900).expect("x_pread failed against the destage ring");
        assert_eq!(more, &payload[4096..4996]);
    }

    #[test]
    fn sequential_pwrites_accumulate_offsets() {
        let (mut cl, mut f) = standalone();
        let mut now = SimTime::ZERO;
        for i in 0..5u8 {
            now = f.x_pwrite(&mut cl, now, &[i; 100]).expect("x_pwrite rejected by the fast side");
        }
        assert_eq!(f.written(), 500);
        now = f.x_fsync(&mut cl, now).expect("x_fsync stalled before the credit covered the log");
        let (_t, credit) = cl.read_credit(0, now, 0);
        assert_eq!(credit, 500);
    }

    #[test]
    fn replicated_fsync_waits_for_secondary() {
        let mut cl = Cluster::new();
        let p = cl.add_device(VillarsConfig::small());
        let _s = cl.add_device(VillarsConfig::small());
        let t0 = cl.configure_replication(SimTime::ZERO, p, &[1]);
        let mut f = XLogFile::open(p);
        let t1 = f.x_pwrite(&mut cl, t0, &[1u8; 2000]).expect("x_pwrite rejected by the fast side");
        let t2 = f.x_fsync(&mut cl, t1).expect("x_fsync stalled before the credit covered the log");
        // fsync must cover mirror + drain + shadow-update round trip: well
        // above the local-only latency.
        let fsync_cost = t2.saturating_since(t1);
        assert!(fsync_cost.as_micros_f64() > 1.0, "replicated fsync too fast: {fsync_cost}");
        // And the secondary really holds the bytes.
        let sec = cl.device_mut(1).local_credit(t2, 0);
        assert_eq!(sec, 2000);
    }

    #[test]
    fn allocator_parallel_fill_out_of_order() {
        let mut cl = Cluster::new();
        let dev = cl.add_device(VillarsConfig::small());
        let mut alloc = XAllocator::new(dev, 0);
        let r1 = alloc.x_alloc(256);
        let r2 = alloc.x_alloc(256);
        assert_eq!(r2.offset, 256);
        // Fill region 2 first (out of order), then region 1.
        let t1 = alloc
            .write_region(&mut cl, SimTime::ZERO, r2, 0, &[2u8; 256])
            .expect("region write rejected");
        let t2 =
            alloc.write_region(&mut cl, t1, r1, 0, &[1u8; 256]).expect("region write rejected");
        alloc.x_free(r1);
        alloc.x_free(r2);
        assert_eq!(alloc.outstanding(), 0);
        // Once both landed, credits cover both regions.
        let settle = t2 + simkit::SimDuration::from_micros(20);
        cl.advance(settle);
        let (_t, credit) = cl.read_credit(dev, settle, 0);
        assert_eq!(credit, 512);
    }

    #[test]
    #[should_panic(expected = "exceeds the allocated region")]
    fn region_overflow_panics() {
        let mut cl = Cluster::new();
        let dev = cl.add_device(VillarsConfig::small());
        let mut alloc = XAllocator::new(dev, 0);
        let r = alloc.x_alloc(64);
        let _ = alloc.write_region(&mut cl, SimTime::ZERO, r, 32, &[0u8; 64]);
    }

    #[test]
    fn multi_lane_handles_are_independent() {
        let mut cl = Cluster::new();
        let mut cfg = VillarsConfig::small();
        cfg.cmb.writer_lanes = 2;
        let dev = cl.add_device(cfg);
        assert_eq!(cl.device(dev).lanes(), 2);
        let mut f0 = XLogFile::open_lane(dev, 0, MmioMode::WriteCombining);
        let mut f1 = XLogFile::open_lane(dev, 1, MmioMode::WriteCombining);
        let t1 = f0
            .x_pwrite(&mut cl, SimTime::ZERO, &[1u8; 500])
            .expect("x_pwrite rejected by the fast side");
        let t2 = f1.x_pwrite(&mut cl, t1, &[2u8; 700]).expect("x_pwrite rejected by the fast side");
        let t3 =
            f0.x_fsync(&mut cl, t2).expect("x_fsync stalled before the credit covered the log");
        let t4 =
            f1.x_fsync(&mut cl, t3).expect("x_fsync stalled before the credit covered the log");
        let (_ta, c0) = cl.read_credit(dev, t4, 0);
        let (_tb, c1) = cl.read_credit(dev, t4, 1);
        assert_eq!((c0, c1), (500, 700));
    }
}
