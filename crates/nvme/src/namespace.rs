//! Namespaces: the block-address view of the device.

use crate::command::Lba;

/// A contiguous logical-block address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Namespace {
    /// Namespace identifier (1-based per the standard).
    pub nsid: u32,
    /// Bytes per logical block (512 or 4096 in practice).
    pub lba_bytes: u32,
    /// Capacity in logical blocks.
    pub capacity_lbas: u64,
}

impl Namespace {
    /// Create a namespace; validates the LBA size is a power of two >= 512.
    pub fn new(nsid: u32, lba_bytes: u32, capacity_lbas: u64) -> Self {
        assert!(lba_bytes >= 512 && lba_bytes.is_power_of_two(), "bad LBA size {lba_bytes}");
        assert!(nsid >= 1, "nsid is 1-based");
        Namespace { nsid, lba_bytes, capacity_lbas }
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_lbas * self.lba_bytes as u64
    }

    /// Whether the range `[lba, lba+blocks)` is inside the namespace.
    pub fn range_ok(&self, lba: Lba, blocks: u32) -> bool {
        blocks > 0 && lba < self.capacity_lbas && blocks as u64 <= self.capacity_lbas - lba
    }

    /// Bytes covered by `blocks` logical blocks.
    pub fn bytes_of(&self, blocks: u32) -> u64 {
        blocks as u64 * self.lba_bytes as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_math() {
        let ns = Namespace::new(1, 4096, 1 << 20);
        assert_eq!(ns.capacity_bytes(), 4 << 30);
        assert_eq!(ns.bytes_of(8), 32768);
    }

    #[test]
    fn range_checks() {
        let ns = Namespace::new(1, 512, 100);
        assert!(ns.range_ok(0, 100));
        assert!(ns.range_ok(99, 1));
        assert!(!ns.range_ok(99, 2));
        assert!(!ns.range_ok(100, 1));
        assert!(!ns.range_ok(0, 0), "zero-block transfers are invalid");
        // Overflow probe: huge lba must not wrap.
        assert!(!ns.range_ok(u64::MAX, 1));
    }

    #[test]
    #[should_panic(expected = "bad LBA size")]
    fn odd_lba_size_rejected() {
        let _ = Namespace::new(1, 1000, 10);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn zero_nsid_rejected() {
        let _ = Namespace::new(0, 512, 10);
    }
}
