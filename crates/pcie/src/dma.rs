//! Device DMA engine.
//!
//! The SSD's Host Interface Controller "uses a Direct Memory Access (DMA)
//! engine to bring the data into the device" (paper §2.2). A DMA transfer is
//! a train of Max-Payload-Size TLPs on one direction of the host link plus a
//! fixed setup/descriptor-fetch cost.

use crate::link::PcieLink;
use crate::tlp::MaxPayloadSize;
use simkit::{Grant, SimDuration, SimTime};

/// DMA engine parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DmaConfig {
    /// Largest payload per TLP.
    pub mps: MaxPayloadSize,
    /// Per-transfer setup cost (descriptor fetch, engine arbitration).
    pub setup: SimDuration,
}

impl Default for DmaConfig {
    fn default() -> Self {
        DmaConfig { mps: MaxPayloadSize::default(), setup: SimDuration::from_nanos(300) }
    }
}

/// Direction of a DMA transfer, from the device's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaDirection {
    /// Host memory -> device (an NVMe write command's data phase).
    HostToDevice,
    /// Device -> host memory (an NVMe read command's data phase).
    DeviceToHost,
}

/// The DMA engine. It shares the device's host link: data brought into the
/// device contends with CMB MMIO stores for the downstream wire — the reason
/// the paper constrains the CMB experiments to a ×4 link — and data sent to
/// the host has the upstream wire, which carries nothing else but MMIO-read
/// completions.
#[derive(Debug, Clone, Copy, Default)]
pub struct DmaEngine {
    config: DmaConfig,
    transfers: u64,
    bytes: u64,
}

impl DmaEngine {
    /// Engine with the given parameters.
    pub fn new(config: DmaConfig) -> Self {
        DmaEngine { config, transfers: 0, bytes: 0 }
    }

    /// Execute a transfer of `len` bytes on the wire of the host link that
    /// runs in `dir`: `downstream` toward the device, `upstream` toward the
    /// host. Returns the window whose `end` is when the last byte has landed.
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
    ) -> Grant {
        let link = match dir {
            DmaDirection::HostToDevice => downstream,
            DmaDirection::DeviceToHost => upstream,
        };
        self.transfers += 1;
        self.bytes += len;
        let start = now + self.config.setup;
        if len == 0 {
            return Grant { start, end: start };
        }
        let mps = self.config.mps.0 as u64;
        let full = len / mps;
        let tail = (len % mps) as u32;
        let mut g = Grant { start, end: start };
        if full > 0 {
            g = link.send_write_burst(start, self.config.mps.0, full);
        }
        if tail > 0 {
            let t = link.send_write_burst(g.end.max(start), tail, 1);
            g = Grant { start: g.start.min(t.start), end: t.end };
        }
        Grant { start, end: g.end }
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
        (wire(), wire(), DmaEngine::new(DmaConfig::default()))
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
