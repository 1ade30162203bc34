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
    pub fn wire_bytes(&self) -> u64 {
        let data = match self.kind {
            TlpKind::MemRead => 0,
            _ => self.payload as u64,
        };
        TLP_OVERHEAD_BYTES + data
    }
}

/// Transaction-layer header bytes of a TLP. With [`FRAMING_BYTES`] this
/// follows the PCIe spec for a 3-DW header plus physical/data-link
/// framing: 12 B header + 4 B ECRC-less framing + 8 B DLLP/sequence.
const HEADER_BYTES: u64 = 16;
/// Data-link + physical framing bytes of a TLP.
const FRAMING_BYTES: u64 = 8;
/// Total fixed bytes each TLP pays on the wire whatever its payload, 24 B:
/// the EXPERIMENTS.md calibration row "TLP fixed overhead".
pub const TLP_OVERHEAD_BYTES: u64 = HEADER_BYTES + FRAMING_BYTES;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_bytes_by_kind() {
        assert_eq!(TLP_OVERHEAD_BYTES, 24);
        assert_eq!(Tlp::write(0x1000, 64).wire_bytes(), 88);
        // Read requests carry no data.
        assert_eq!(Tlp::read(0x1000, 4096).wire_bytes(), 24);
        assert_eq!(Tlp::completion(0x1000, 8).wire_bytes(), 32);
        assert_eq!(Tlp::message(0x0).wire_bytes(), 28);
    }

    #[test]
    fn small_payload_overhead_dominates() {
        // An 8-byte UC store pays 24 bytes of overhead: 25% efficiency.
        let tlp = Tlp::write(0, 8);
        let eff = 8.0 / tlp.wire_bytes() as f64;
        assert!((eff - 0.25).abs() < 1e-12);
    }
}
