//! Host Interface Controller.
//!
//! "The HIC is capable of fetching these commands and recognizing the NVMe
//! vocabulary. Given that the command is a write, the HIC uses a DMA engine
//! to bring the data into the device" (paper §2.2). The HIC owns the
//! device's host-facing PCIe link and its DMA engine; CMB MMIO traffic (on a
//! Villars device) shares the same link.

use pcie::{DmaDirection, DmaEngine, DmaTransfer, LinkConfig, PcieLink, Tlp};
use simkit::{Grant, SerialResource, SimDuration, SimTime};

/// Doorbell-to-decoded command fetch cost (includes the SQ-entry read over
/// PCIe). This and the completion cost are estimates for the HIC of paper
/// §2.2, which gives no figure for either.
const FETCH: SimDuration = SimDuration::from_micros(1);
/// Posting one completion entry + interrupt generation.
const COMPLETION_POST: SimDuration = SimDuration::from_nanos(500);

/// The host interface controller: command fetch engine + host link + DMA.
///
/// The link is dual-simplex, one wire per direction. MMIO stores, DMA-in
/// data and read *requests* ride the downstream wire (host → device);
/// DMA-out data and MMIO-read *completions* the upstream one.
#[derive(Debug)]
pub struct Hic {
    downstream: PcieLink,
    upstream: PcieLink,
    dma: DmaEngine,
    fetch_engine: SerialResource,
}

impl Hic {
    /// Build a HIC over a host link.
    pub fn new(link: LinkConfig) -> Self {
        Hic {
            downstream: PcieLink::new(link),
            upstream: PcieLink::new(link),
            dma: DmaEngine::new(),
            fetch_engine: SerialResource::new(),
        }
    }

    /// Fetch and decode one command starting at `now`. Fetches serialize
    /// (one decode engine).
    pub fn fetch(&mut self, now: SimTime) -> Grant {
        self.fetch_engine.acquire(now, FETCH)
    }

    /// DMA `bytes` from host memory into the device, on the downstream wire.
    pub fn dma_in(&mut self, now: SimTime, bytes: u64) -> DmaTransfer {
        self.dma_transfer(now, bytes, DmaDirection::HostToDevice)
    }

    /// DMA `bytes` from the device to host memory, on the upstream wire.
    pub fn dma_out(&mut self, now: SimTime, bytes: u64) -> DmaTransfer {
        self.dma_transfer(now, bytes, DmaDirection::DeviceToHost)
    }

    fn dma_transfer(&mut self, now: SimTime, bytes: u64, dir: DmaDirection) -> DmaTransfer {
        self.dma.transfer(&mut self.downstream, &mut self.upstream, now, bytes, dir)
    }

    /// The piece a DMA moves data in — one full-size TLP's payload bytes —
    /// and its wire time (the same on both wires).
    pub fn dma_unit(&self) -> (u64, SimDuration) {
        (self.dma.unit_bytes(), self.dma.unit_time(&self.upstream))
    }

    /// Host MMIO read of `len` bytes at `addr`: the request travels
    /// downstream, the completion carrying the data comes back upstream.
    /// Returns when the completion is fully received.
    ///
    /// Each is a lone TLP and is arbitrated as one
    /// ([`PcieLink::send_interleaved`]): it does not wait out a DMA's 64
    /// packets on either wire. Queued behind them a credit read took up to
    /// two transfer times, and the `x_pwrite` that issued it ran past its
    /// slot whenever a flash read's DMA-out happened to be leaving.
    pub fn read_round_trip(&mut self, now: SimTime, addr: u64, len: u32) -> Grant {
        let req = self.downstream.send_interleaved(now, &Tlp::read(addr, len));
        let comp = self.upstream.send_interleaved(req.end, &Tlp::completion(addr, len));
        Grant { start: req.start, end: comp.end }
    }

    /// Cost of posting a completion entry.
    pub fn completion_post(&self) -> SimDuration {
        COMPLETION_POST
    }

    /// Borrow the downstream wire: what the host's stores ride (CMB MMIO
    /// traffic on a Villars shares it with DMA-in).
    pub fn downstream_mut(&mut self) -> &mut PcieLink {
        &mut self.downstream
    }

    /// When the downstream wire next goes idle.
    pub fn downstream_busy_until(&self) -> SimTime {
        self.downstream.busy_until()
    }

    /// Host-link statistics, both wires together.
    pub fn link_stats(&self) -> pcie::LinkStats {
        let (down, up) = (self.downstream.stats(), self.upstream.stats());
        pcie::LinkStats {
            payload_bytes: down.payload_bytes + up.payload_bytes,
            overhead_bytes: down.overhead_bytes + up.overhead_bytes,
            messages: down.messages + up.messages,
        }
    }

    /// Bytes moved by DMA so far.
    pub fn dma_bytes(&self) -> u64 {
        self.dma.bytes_moved()
    }

    /// Report the host link under `out`: the totals over both wires, then
    /// each wire under `downstream` / `upstream`.
    pub fn instrument_link(&self, out: &mut simkit::Scope<'_>) {
        let total = self.link_stats();
        let busy = self.downstream.busy_time() + self.upstream.busy_time();
        out.counter("payload_bytes", total.payload_bytes);
        out.counter("overhead_bytes", total.overhead_bytes);
        out.counter("messages", total.messages);
        out.counter("busy_ns", busy.as_nanos());
        out.collect("downstream", &self.downstream);
        out.collect("upstream", &self.upstream);
    }

    /// Borrow the DMA engine read-only (telemetry).
    pub fn dma(&self) -> &DmaEngine {
        &self.dma
    }
}

impl simkit::Instrument for Hic {
    fn instrument(&self, out: &mut simkit::Scope<'_>) {
        out.counter("fetch_busy_ns", self.fetch_engine.busy_time().as_nanos());
        out.counter("fetches", self.fetch_engine.request_count());
        out.counter("dma_transfers", self.dma.transfer_count());
        out.counter("dma_bytes", self.dma.bytes_moved());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hic() -> Hic {
        Hic::new(LinkConfig::villars_host())
    }

    #[test]
    fn fetches_serialize() {
        let mut h = hic();
        let a = h.fetch(SimTime::ZERO);
        let b = h.fetch(SimTime::ZERO);
        assert_eq!(a.end.as_micros_f64(), 1.0);
        assert_eq!(b.start, a.end);
    }

    #[test]
    fn dma_rides_the_host_link() {
        let mut h = hic();
        let g = h.dma_in(SimTime::ZERO, 16 << 10);
        assert!(g.end > SimTime::ZERO);
        assert_eq!(h.dma_bytes(), 16 << 10);
        // Into the device: 64 TLPs downstream, nothing upstream.
        assert_eq!((h.downstream.stats().messages, h.upstream.stats().messages), (64, 0));
        h.dma_out(SimTime::ZERO, 16 << 10);
        assert_eq!(h.upstream.stats().messages, 64);
        assert_eq!(h.link_stats().messages, 128);
    }

    #[test]
    fn dma_and_mmio_share_the_wire() {
        let mut h = hic();
        let dma = h.dma_in(SimTime::ZERO, 64 << 10);
        // An MMIO burst issued concurrently queues behind the DMA-in TLPs:
        // both ride the downstream wire.
        let mmio = h.downstream_mut().send_write_burst(SimTime::ZERO, 64, 1);
        assert!(mmio.start >= dma.end - pcie::LinkConfig::villars_host().propagation);
        // Data leaving for the host does not: it has the upstream wire.
        let out = h.dma_out(SimTime::ZERO, 16 << 10);
        assert!(out.end < dma.end);
    }

    #[test]
    fn a_read_round_trip_does_not_wait_out_a_dma() {
        let mut h = hic();
        // A page each way holds both wires until 300 + 64 × 140 = 9260 ns.
        h.dma_in(SimTime::ZERO, 16 << 10);
        h.dma_out(SimTime::ZERO, 16 << 10);
        let at = SimTime::from_nanos(1_000);
        let g = h.read_round_trip(at, 0x0, 8);
        // Request 12 ns + completion 16 ns of wire, 150 ns of flight each.
        assert_eq!(g.end.as_nanos(), 1_000 + 12 + 150 + 16 + 150);
        // Both wires are charged: what the read displaced ends later.
        assert_eq!(h.downstream_busy_until().as_nanos(), 9_260 + 12);
        assert_eq!(h.upstream.busy_until().as_nanos(), 9_260 + 16);
        assert_eq!((h.downstream.stats().messages, h.upstream.stats().messages), (65, 65));
    }

    #[test]
    fn read_round_trip_goes_down_and_comes_back_up() {
        let link = LinkConfig { propagation: SimDuration::ZERO, ..LinkConfig::villars_host() };
        let mut h = Hic::new(link);
        let g = h.read_round_trip(SimTime::ZERO, 0x0, 8);
        // Request: 24B -> 12ns downstream. Completion: 32B -> 16ns upstream.
        assert_eq!(g.end.as_nanos(), 28);
        assert_eq!((h.downstream.stats().messages, h.upstream.stats().messages), (1, 1));
        assert_eq!(h.upstream.stats().payload_bytes, 8);
        // The completion never held the wire the host's stores ride.
        assert_eq!(h.downstream_busy_until().as_nanos(), 12);
    }
}
