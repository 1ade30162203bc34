//! Transaction Layer Packets.
//!
//! PCIe carries all traffic — MMIO stores against a CMB region, DMA bursts,
//! NTB-forwarded mirror streams — as TLPs (paper §2.1). What matters to the
//! experiments is the *cost structure*: each TLP pays a fixed header/framing
//! overhead regardless of payload, which is exactly the mechanism behind the
//! write-combining results (paper Fig. 10).

/// Physical/bus address inside a PCIe fabric.
pub type BusAddr = u64;

/// The TLP types the models exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TlpKind {
    /// Posted memory write (MMIO store, DMA write). No completion returned.
    MemWrite,
    /// Non-posted memory read request; a `Completion` carries the data back.
    MemRead,
    /// Completion with data for an earlier `MemRead`.
    Completion,
    /// Message (interrupt, doorbell, vendor-defined).
    Message,
}

/// A transaction-layer packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tlp {
    /// Packet type.
    pub kind: TlpKind,
    /// Target bus address.
    pub addr: BusAddr,
    /// Payload bytes carried (0 for read requests).
    pub payload: u32,
}

impl Tlp {
    /// A posted memory write.
    pub fn write(addr: BusAddr, payload: u32) -> Self {
        Tlp { kind: TlpKind::MemWrite, addr, payload }
    }

    /// A memory read request for `len` bytes (the request itself carries no
    /// payload; `len` is recorded so the completion can be costed).
    pub fn read(addr: BusAddr, len: u32) -> Self {
        Tlp { kind: TlpKind::MemRead, addr, payload: len }
    }

    /// A completion carrying `payload` bytes back to the requester.
    pub fn completion(addr: BusAddr, payload: u32) -> Self {
        Tlp { kind: TlpKind::Completion, addr, payload }
    }

    /// A message TLP (doorbell/interrupt); fixed small payload.
    pub fn message(addr: BusAddr) -> Self {
        Tlp { kind: TlpKind::Message, addr, payload: 4 }
    }

    /// Bytes this packet puts on the wire *in the request direction*:
    /// header + framing + payload (read requests carry no data).
    pub fn wire_bytes(&self, overhead: &TlpOverhead) -> u64 {
        let data = match self.kind {
            TlpKind::MemRead => 0,
            _ => self.payload as u64,
        };
        overhead.per_tlp_bytes() + data
    }
}

/// Per-TLP fixed costs. Defaults follow the PCIe spec for a 3-DW header
/// plus physical/data-link framing: 12 B header + 4 B ECRC-less framing +
/// 8 B DLLP/sequence ≈ 24 B per packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlpOverhead {
    /// Transaction-layer header bytes.
    pub header_bytes: u64,
    /// Data-link + physical framing bytes.
    pub framing_bytes: u64,
}

impl Default for TlpOverhead {
    fn default() -> Self {
        TlpOverhead { header_bytes: 16, framing_bytes: 8 }
    }
}

impl TlpOverhead {
    /// Total fixed bytes each TLP pays on the wire.
    pub fn per_tlp_bytes(&self) -> u64 {
        self.header_bytes + self.framing_bytes
    }
}

/// Maximum payload a single memory-write TLP may carry. 256 B is the common
/// server default; large transfers split into `ceil(len / mps)` packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaxPayloadSize(pub u32);

impl Default for MaxPayloadSize {
    fn default() -> Self {
        MaxPayloadSize(256)
    }
}

impl MaxPayloadSize {
    /// Split a transfer of `len` bytes into TLP payload sizes.
    pub fn split(&self, len: u64) -> Vec<u32> {
        let mps = self.0 as u64;
        assert!(mps > 0);
        let mut out = Vec::with_capacity(len.div_ceil(mps) as usize);
        let mut rem = len;
        while rem > 0 {
            let chunk = rem.min(mps);
            out.push(chunk as u32);
            rem -= chunk;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_bytes_by_kind() {
        let oh = TlpOverhead::default();
        assert_eq!(oh.per_tlp_bytes(), 24);
        assert_eq!(Tlp::write(0x1000, 64).wire_bytes(&oh), 88);
        // Read requests carry no data.
        assert_eq!(Tlp::read(0x1000, 4096).wire_bytes(&oh), 24);
        assert_eq!(Tlp::completion(0x1000, 8).wire_bytes(&oh), 32);
        assert_eq!(Tlp::message(0x0).wire_bytes(&oh), 28);
    }

    #[test]
    fn mps_split_exact_and_remainder() {
        let mps = MaxPayloadSize(256);
        assert_eq!(mps.split(512), vec![256, 256]);
        assert_eq!(mps.split(300), vec![256, 44]);
        assert_eq!(mps.split(0), Vec::<u32>::new());
    }

    #[test]
    fn small_payload_overhead_dominates() {
        // An 8-byte UC store pays 24 bytes of overhead: 25% efficiency.
        let oh = TlpOverhead::default();
        let tlp = Tlp::write(0, 8);
        let eff = 8.0 / tlp.wire_bytes(&oh) as f64;
        assert!((eff - 0.25).abs() < 1e-12);
    }
}
