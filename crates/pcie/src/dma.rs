//! Device DMA engine.
//!
//! The SSD's Host Interface Controller "uses a Direct Memory Access (DMA)
//! engine to bring the data into the device" (paper §2.2). A DMA transfer is
//! a train of Max-Payload-Size TLPs on one direction of the host link plus a
//! fixed setup/descriptor-fetch cost.

use crate::link::PcieLink;
use simkit::{SimDuration, SimTime};

/// Largest payload per TLP (Max Payload Size): the common server default
/// of 256 B; a transfer splits into `ceil(len / MPS)` packets.
const MPS: u32 = 256;
/// Per-transfer setup cost (descriptor fetch, engine arbitration): an
/// estimate, the paper gives no figure.
const SETUP: SimDuration = SimDuration::from_nanos(300);

/// Direction of a DMA transfer, from the device's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaDirection {
    /// Host memory -> device (an NVMe write command's data phase).
    HostToDevice,
    /// Device -> host memory (an NVMe read command's data phase).
    DeviceToHost,
}

/// One transfer on the wire: when its data lands, TLP by TLP — what a
/// receiver that takes the data as it arrives needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaTransfer {
    /// When the last byte has landed.
    pub end: SimTime,
    /// Arrival of the first TLP (`end` when there is none).
    pub first: SimTime,
    /// Spacing of the full-size TLPs' arrivals: one TLP's wire time.
    pub period: SimDuration,
    /// Payload bytes of a full-size TLP.
    pub unit: u64,
    /// Full-size TLPs in the transfer (a shorter one may follow).
    full: u64,
}

impl DmaTransfer {
    /// When the first `bytes` bytes of the transfer (at least one) have all
    /// landed: the arrival of the TLP that carries the last of them.
    pub fn landed(&self, bytes: u64) -> SimTime {
        let tlp = (bytes - 1) / self.unit;
        if tlp < self.full {
            self.first + self.period * tlp
        } else {
            self.end
        }
    }
}

/// The DMA engine. It shares the device's host link: data brought into the
/// device contends with CMB MMIO stores for the downstream wire — the reason
/// the paper constrains the CMB experiments to a ×4 link — and data sent to
/// the host has the upstream wire, which carries nothing else but MMIO-read
/// completions.
#[derive(Debug, Clone, Copy, Default)]
pub struct DmaEngine {
    transfers: u64,
    bytes: u64,
}

impl DmaEngine {
    /// An engine that has moved nothing yet.
    pub fn new() -> Self {
        DmaEngine::default()
    }

    /// Execute a transfer of `len` bytes on the wire of the host link that
    /// runs in `dir`: `downstream` toward the device, `upstream` toward the
    /// host. The result's `end` is when the last byte has landed.
    ///
    /// Both directions serialize the same number of data-bearing TLPs: for
    /// device-to-host the data rides completions/writes toward the host; the
    /// wire cost is symmetric at this abstraction level.
    pub fn transfer(
        &mut self,
        downstream: &mut PcieLink,
        upstream: &mut PcieLink,
        now: SimTime,
        len: u64,
        dir: DmaDirection,
    ) -> DmaTransfer {
        let link = match dir {
            DmaDirection::HostToDevice => downstream,
            DmaDirection::DeviceToHost => upstream,
        };
        self.transfers += 1;
        self.bytes += len;
        let start = now + SETUP;
        let unit = MPS as u64;
        let (full, tail) = (len / unit, (len % unit) as u32);
        let (first, period) = link.peek_write_burst(start, MPS);
        let mut end = start;
        if full > 0 {
            end = link.send_write_burst(start, MPS, full).end;
        }
        if tail > 0 {
            // Queued on the wire behind the full TLPs: `end` already counts
            // their flight.
            end = link.send_write_burst(start, tail, 1).end;
        }
        // Without a full-size TLP the quote is for a packet never sent.
        let first = if full > 0 { first } else { end };
        DmaTransfer { end, first, period, unit, full }
    }

    /// Payload bytes of a full-size TLP.
    pub fn unit_bytes(&self) -> u64 {
        MPS as u64
    }

    /// Wire time of one full-size TLP on `link`: the spacing a transfer's
    /// data arrives at.
    pub fn unit_time(&self, link: &PcieLink) -> SimDuration {
        link.peek_write_burst(SimTime::ZERO, MPS).1
    }

    /// Transfers executed.
    pub fn transfer_count(&self) -> u64 {
        self.transfers
    }

    /// Total bytes moved.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes
    }
}

impl simkit::Instrument for DmaEngine {
    fn instrument(&self, out: &mut simkit::Scope<'_>) {
        out.counter("transfers", self.transfers);
        out.counter("bytes", self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;

    /// A host link's two wires, downstream first, and an engine.
    fn rig() -> (PcieLink, PcieLink, DmaEngine) {
        let wire = || PcieLink::new(LinkConfig::villars_host());
        (wire(), wire(), DmaEngine::new())
    }

    #[test]
    fn transfer_splits_into_mps_tlps() {
        let (mut down, mut up, mut dma) = rig();
        let g = dma.transfer(&mut down, &mut up, SimTime::ZERO, 4096, DmaDirection::HostToDevice);
        // 16 TLPs of 256B payload + 24B overhead = 4480 wire bytes at 2 B/ns
        // = 2240ns + 300ns setup + 150ns propagation, all of it downstream.
        assert_eq!(g.end.as_nanos(), 300 + 2240 + 150);
        assert_eq!(down.stats().messages, 16);
        assert_eq!(up.stats().messages, 0);
        assert_eq!(dma.bytes_moved(), 4096);
    }

    #[test]
    fn every_tlp_lands_one_wire_time_after_the_last() {
        let (mut down, mut up, mut dma) = rig();
        // 2 full TLPs and a 44-byte one, toward the device.
        let t = dma.transfer(&mut down, &mut up, SimTime::ZERO, 556, DmaDirection::HostToDevice);
        // (256 + 24) / 2 B/ns = 140ns each, the first after setup and flight.
        assert_eq!((t.first.as_nanos(), t.period.as_nanos()), (300 + 140 + 150, 140));
        assert_eq!(t.landed(1), t.first);
        assert_eq!(t.landed(256), t.first);
        assert_eq!(t.landed(257), t.first + t.period);
        assert_eq!(t.landed(512), t.first + t.period);
        assert_eq!(t.landed(513), t.end);
        assert_eq!(t.landed(556), t.end);
        // The 44-byte TLP follows the last full one on the wire by its own
        // (44 + 24) / 2 = 34 ns, not by a second flight.
        assert_eq!(t.end, t.first + t.period + SimDuration::from_nanos(34));
        assert_eq!(t.end.as_nanos(), 300 + 2 * 140 + 34 + 150);
        assert_eq!(dma.unit_time(&down), t.period);
        // A whole number of TLPs: the last byte lands with the last of them.
        let t = dma.transfer(&mut down, &mut up, SimTime::ZERO, 4096, DmaDirection::DeviceToHost);
        assert_eq!(t.landed(4096), t.end);
        assert_eq!(t.end, t.first + t.period * 15);
    }

    #[test]
    fn tail_packet_handled() {
        let (mut down, mut up, mut dma) = rig();
        dma.transfer(&mut down, &mut up, SimTime::ZERO, 300, DmaDirection::DeviceToHost);
        // Toward the host: the upstream wire carries both packets.
        assert_eq!(up.stats().messages, 2);
        assert_eq!(up.stats().payload_bytes, 300);
        assert_eq!(down.stats().messages, 0);
    }

    #[test]
    fn zero_length_transfer_costs_only_setup() {
        let (mut down, mut up, mut dma) = rig();
        let g = dma.transfer(&mut down, &mut up, SimTime::ZERO, 0, DmaDirection::HostToDevice);
        assert_eq!(g.end.as_nanos(), 300);
        assert_eq!(down.stats().messages + up.stats().messages, 0);
    }

    #[test]
    fn dma_contends_with_other_link_traffic() {
        let (mut down, mut up, mut dma) = rig();
        let at = SimTime::ZERO;
        let a = dma.transfer(&mut down, &mut up, at, 4096, DmaDirection::HostToDevice);
        let b = dma.transfer(&mut down, &mut up, at, 4096, DmaDirection::HostToDevice);
        assert!(b.end > a.end, "second transfer must queue on the downstream wire");
        // The other direction has a wire of its own.
        let c = dma.transfer(&mut down, &mut up, at, 4096, DmaDirection::DeviceToHost);
        assert_eq!(c.end, a.end, "a transfer toward the host queues behind neither");
    }
}
