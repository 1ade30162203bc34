//! NAND operation timing and reliability parameters.

use simkit::{Bandwidth, SimDuration};

/// Latency/bandwidth constants for the flash arrays.
///
/// Defaults model the Hynix MLC NAND on the Cosmos+ board: with 8 channels ×
/// 8 ways and 16 KiB pages, `t_prog = 500 µs` yields ≈32 MB/s per die and
/// ≈2 GB/s aggregate program bandwidth — the envelope the paper quotes for
/// the platform ("sized to accommodate a maximum of 2 GB/s", §6.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashTiming {
    /// Page program time (cell array busy).
    pub t_prog: SimDuration,
    /// Page read time (cell array busy before data is available).
    pub t_read: SimDuration,
    /// Channel bus rate for moving a page between controller and die
    /// (NV-DDR class).
    pub channel_bus: Bandwidth,
    /// Fixed command/address cycle cost per operation on the bus.
    pub cmd_overhead: SimDuration,
}

impl Default for FlashTiming {
    fn default() -> Self {
        FlashTiming {
            t_prog: SimDuration::from_micros(500),
            t_read: SimDuration::from_micros(45),
            channel_bus: Bandwidth::mbytes_per_sec(400.0),
            cmd_overhead: SimDuration::from_nanos(500),
        }
    }
}

impl FlashTiming {
    /// Fast timing for unit tests (keeps simulated experiments short while
    /// preserving the prog ≫ read ≫ bus ordering).
    pub fn fast() -> Self {
        FlashTiming {
            t_prog: SimDuration::from_micros(50),
            t_read: SimDuration::from_micros(5),
            channel_bus: Bandwidth::gbytes_per_sec(1.0),
            cmd_overhead: SimDuration::from_nanos(100),
        }
    }

    /// Bus time to move one `page_bytes` page.
    pub fn page_transfer(&self, page_bytes: u32) -> SimDuration {
        self.cmd_overhead + self.channel_bus.transfer_time(page_bytes as u64)
    }

    /// Aggregate steady-state program bandwidth for a geometry, in decimal
    /// GB/s — the die-parallelism bound (min of die-bound and bus-bound).
    pub fn program_bandwidth_gbps(&self, g: &crate::geometry::FlashGeometry) -> f64 {
        let per_die = g.page_bytes as f64 / self.t_prog.as_secs_f64() / 1e9;
        let die_bound = per_die * g.total_dies() as f64;
        let per_channel_bus =
            g.page_bytes as f64 / self.page_transfer(g.page_bytes).as_secs_f64() / 1e9;
        let bus_bound = per_channel_bus * g.channels as f64;
        die_bound.min(bus_bound)
    }
}

/// Reliability model parameters. The device is fresh and never erases a
/// block, so nothing here depends on wear.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliabilityConfig {
    /// Fraction of blocks marked bad at manufacture.
    pub initial_bad_block_rate: f64,
    /// Probability a program operation fails and turns its block bad
    /// (grown bad block).
    pub program_fail_rate: f64,
    /// Raw bit-error rate per read.
    pub base_bit_error_rate: f64,
    /// Bit errors per page the ECC can correct.
    pub ecc_correctable_bits: u32,
}

impl Default for ReliabilityConfig {
    fn default() -> Self {
        ReliabilityConfig {
            initial_bad_block_rate: 0.002,
            program_fail_rate: 1e-7,
            base_bit_error_rate: 1e-8,
            ecc_correctable_bits: 72,
        }
    }
}

impl ReliabilityConfig {
    /// A perfectly reliable device (for experiments where error handling is
    /// out of scope, like the throughput figures).
    pub fn perfect() -> Self {
        ReliabilityConfig {
            initial_bad_block_rate: 0.0,
            program_fail_rate: 0.0,
            base_bit_error_rate: 0.0,
            ecc_correctable_bits: 72,
        }
    }

    /// Expected raw bit errors in a page read.
    pub fn expected_bit_errors(&self, page_bits: u64) -> f64 {
        self.base_bit_error_rate * page_bits as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::FlashGeometry;

    #[test]
    fn default_timing_hits_platform_envelope() {
        let t = FlashTiming::default();
        let g = FlashGeometry::default();
        let bw = t.program_bandwidth_gbps(&g);
        // ~2 GB/s, the Cosmos+ ceiling the paper quotes.
        assert!((bw - 2.0).abs() < 0.2, "program bandwidth {bw} GB/s");
    }

    #[test]
    fn page_transfer_cost() {
        let t = FlashTiming::default();
        let d = t.page_transfer(16 << 10);
        // 16KiB at 400 MB/s = 40.96us + 0.5us command overhead.
        assert!((d.as_micros_f64() - 41.46).abs() < 0.1, "transfer {d}");
    }

    #[test]
    fn ordering_invariant() {
        for t in [FlashTiming::default(), FlashTiming::fast()] {
            assert!(t.t_prog > t.t_read);
        }
    }

    #[test]
    fn perfect_reliability_is_error_free() {
        let r = ReliabilityConfig::perfect();
        assert_eq!(r.expected_bit_errors(1 << 20), 0.0);
        assert_eq!(r.initial_bad_block_rate, 0.0);
    }
}
