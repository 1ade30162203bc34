//! CPU store-issue model: Write-Combining vs. Uncached MMIO.
//!
//! Paper §4.1/§6.2: the CMB region can be mapped Write-Combining (WC), in
//! which case the CPU's 64-byte WC buffers merge consecutive stores into a
//! single large TLP, or Uncached (UC), in which case every store instruction
//! becomes its own word-sized TLP. Fig. 10 measures the throughput effect;
//! this module reproduces the *mechanism*: the TLP payload sizes each mode
//! emits for a given application write size.

/// How an MMIO region is mapped by the host (paper references Intel SDM
/// ch. 11 memory cache control).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MmioMode {
    /// Write-Combining: stores are merged in 64-byte CPU buffers and flushed
    /// as one TLP per full (or explicitly flushed partial) buffer.
    WriteCombining,
    /// Uncached: each store issues immediately as its own TLP, at most one
    /// machine word (8 bytes) of payload.
    Uncached,
}

/// The 64-byte CPU write-combining buffer granularity.
pub const WC_BUFFER_BYTES: u64 = 64;
/// The widest store an uncached mapping issues per TLP.
pub const UC_STORE_BYTES: u64 = 8;

/// Model of the CPU store-issue path for one MMIO mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreIssueModel {
    /// The mapping mode.
    pub mode: MmioMode,
}

/// The TLPs one contiguous write is cut into: `full_count` payloads of
/// `unit` bytes, then one of `trailing_bytes` if that is non-zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteShape {
    /// Payload bytes of a full-size TLP.
    pub unit: u64,
    /// Number of full-size TLPs.
    pub full_count: u64,
    /// Payload of the trailing partial TLP; zero when there is none.
    pub trailing_bytes: u64,
}

impl StoreIssueModel {
    /// A write-combining mapping.
    pub fn wc() -> Self {
        StoreIssueModel { mode: MmioMode::WriteCombining }
    }

    /// An uncached mapping.
    pub fn uc() -> Self {
        StoreIssueModel { mode: MmioMode::Uncached }
    }

    /// The widest payload one TLP carries under this mapping: a full WC
    /// buffer, or one uncached machine word.
    pub fn unit(&self) -> u64 {
        match self.mode {
            MmioMode::WriteCombining => WC_BUFFER_BYTES,
            MmioMode::Uncached => UC_STORE_BYTES,
        }
    }

    /// The TLPs emitted when the application writes `len` contiguous bytes
    /// and then makes them globally visible (sfence / credit check), which
    /// flushes any partial WC buffer: `len` splits into full-size TLPs
    /// (64 bytes WC, 8 bytes UC) plus one trailing partial.
    pub fn shape(&self, len: u64) -> WriteShape {
        let unit = self.unit();
        WriteShape { unit, full_count: len / unit, trailing_bytes: len % unit }
    }

    /// Number of TLPs for a `len`-byte write.
    pub fn tlp_count(&self, len: u64) -> u64 {
        len.div_ceil(self.unit())
    }

    /// Wire bytes (payload + per-TLP overhead) for a `len`-byte write.
    pub fn wire_bytes(&self, len: u64, per_tlp_overhead: u64) -> u64 {
        len + self.tlp_count(len) * per_tlp_overhead
    }

    /// Payload efficiency of a `len`-byte write: `len / wire_bytes`.
    pub fn efficiency(&self, len: u64, per_tlp_overhead: u64) -> f64 {
        if len == 0 {
            return 0.0;
        }
        len as f64 / self.wire_bytes(len, per_tlp_overhead) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wc_combines_to_64() {
        let m = StoreIssueModel::wc();
        assert_eq!(m.shape(64), WriteShape { unit: 64, full_count: 1, trailing_bytes: 0 });
        assert_eq!(m.shape(128), WriteShape { unit: 64, full_count: 2, trailing_bytes: 0 });
        assert_eq!(m.shape(100), WriteShape { unit: 64, full_count: 1, trailing_bytes: 36 });
        assert_eq!(m.shape(16), WriteShape { unit: 64, full_count: 0, trailing_bytes: 16 });
        assert_eq!(m.tlp_count(129), 3);
    }

    #[test]
    fn uc_issues_words() {
        let m = StoreIssueModel::uc();
        assert_eq!(m.shape(64), WriteShape { unit: 8, full_count: 8, trailing_bytes: 0 });
        assert_eq!(m.shape(12), WriteShape { unit: 8, full_count: 1, trailing_bytes: 4 });
        assert_eq!(m.tlp_count(64), 8);
    }

    #[test]
    fn zero_length_write_is_empty() {
        let none = WriteShape { unit: 64, full_count: 0, trailing_bytes: 0 };
        assert_eq!(StoreIssueModel::wc().shape(0), none);
        assert_eq!(StoreIssueModel::uc().tlp_count(0), 0);
        assert_eq!(StoreIssueModel::wc().efficiency(0, 24), 0.0);
    }

    #[test]
    fn wc_beats_uc_at_every_size() {
        // The Fig. 10 claim: "WC is faster than UC mode in all sizes we
        // tested" — holds structurally because WC never emits more TLPs.
        let wc = StoreIssueModel::wc();
        let uc = StoreIssueModel::uc();
        for len in [1u64, 2, 4, 8, 16, 32, 64, 128, 256] {
            assert!(wc.efficiency(len, 24) >= uc.efficiency(len, 24), "WC < UC at len={len}");
        }
    }

    #[test]
    fn wc_efficiency_peaks_at_64() {
        let wc = StoreIssueModel::wc();
        let e16 = wc.efficiency(16, 24);
        let e64 = wc.efficiency(64, 24);
        let e128 = wc.efficiency(128, 24);
        assert!(e64 > e16);
        // Beyond 64 the ratio is already at the 64-byte plateau.
        assert!((e128 - e64).abs() < 1e-12);
        assert!((e64 - 64.0 / 88.0).abs() < 1e-12);
    }

    #[test]
    fn wire_bytes_accounting() {
        let wc = StoreIssueModel::wc();
        // 100 bytes -> 2 TLPs -> 100 + 2*24 wire bytes.
        assert_eq!(wc.wire_bytes(100, 24), 148);
        let uc = StoreIssueModel::uc();
        // 100 bytes -> 13 TLPs.
        assert_eq!(uc.wire_bytes(100, 24), 100 + 13 * 24);
    }
}
