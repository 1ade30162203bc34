//! Bandwidth arithmetic.
//!
//! Stored internally as **nanoseconds per byte** (`f64`) so that transfer
//! times are a single multiply; constructors accept the units hardware specs
//! are quoted in (GB/s, MB/s, bytes per clock at a given frequency).

use crate::time::SimDuration;
use std::fmt;

/// A data rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bandwidth {
    ns_per_byte: f64,
}

impl Bandwidth {
    /// From bytes per nanosecond (1 B/ns == ~0.93 GiB/s, exactly 1 GB/s).
    pub const fn bytes_per_ns(bpn: f64) -> Self {
        assert!(bpn > 0.0 && bpn.is_finite(), "bandwidth must be positive");
        Bandwidth { ns_per_byte: 1.0 / bpn }
    }

    /// From decimal gigabytes per second.
    pub const fn gbytes_per_sec(gbps: f64) -> Self {
        Self::bytes_per_ns(gbps)
    }

    /// From decimal megabytes per second.
    pub const fn mbytes_per_sec(mbps: f64) -> Self {
        Self::bytes_per_ns(mbps / 1e3)
    }

    /// From a bus description: `width_bits` transferred per cycle at
    /// `mhz` megahertz. This is how the paper quotes the CMB backing
    /// memories (e.g. 128-bit @ 250 MHz = 4 GB/s).
    pub const fn bus(width_bits: u32, mhz: f64) -> Self {
        let bytes_per_cycle = width_bits as f64 / 8.0;
        let cycles_per_ns = mhz / 1e3;
        Self::bytes_per_ns(bytes_per_cycle * cycles_per_ns)
    }

    /// Nanoseconds needed to move `bytes` at this rate (rounded up, minimum
    /// 1 ns for a non-empty transfer so no transfer is free).
    #[inline]
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        // Integer ceiling (`f64::ceil` is a libm call on baseline x86-64,
        // twice per TLP): truncate, then add one iff a fraction was dropped.
        // Exact wherever `t as f64` is, i.e. for every product below 2^53;
        // above that an f64 has no fraction and the cast already saturates.
        let x = bytes as f64 * self.ns_per_byte;
        let t = x as u64;
        SimDuration::from_nanos(t.saturating_add(u64::from((t as f64) < x)).max(1))
    }

    /// The rate in decimal gigabytes per second.
    pub fn as_gbytes_per_sec(&self) -> f64 {
        1.0 / self.ns_per_byte
    }

    /// A rate scaled by `factor` (e.g. contention derating of a shared
    /// DRAM port).
    pub const fn scaled(&self, factor: f64) -> Bandwidth {
        assert!(factor > 0.0 && factor.is_finite(), "scale factor must be positive");
        Bandwidth { ns_per_byte: self.ns_per_byte / factor }
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let g = self.as_gbytes_per_sec();
        if g >= 1.0 {
            write!(f, "{g:.2} GB/s")
        } else {
            write!(f, "{:.1} MB/s", g * 1e3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gb_per_sec_round_trip() {
        let bw = Bandwidth::gbytes_per_sec(2.0);
        assert!((bw.as_gbytes_per_sec() - 2.0).abs() < 1e-12);
        // 2 GB/s == 2 bytes per ns -> 1 KiB takes 512 ns.
        assert_eq!(bw.transfer_time(1024).as_nanos(), 512);
    }

    #[test]
    fn mb_per_sec() {
        let bw = Bandwidth::mbytes_per_sec(500.0);
        assert_eq!(bw.transfer_time(500).as_nanos(), 1000);
    }

    #[test]
    fn bus_description_matches_paper_numbers() {
        // Paper §6: 128-bit bus @ 250 MHz = 4 GB/s (SRAM backing).
        let sram = Bandwidth::bus(128, 250.0);
        assert!((sram.as_gbytes_per_sec() - 4.0).abs() < 1e-9);
        // 64-bit bus @ 250 MHz = 2 GB/s (DRAM backing path).
        let dram = Bandwidth::bus(64, 250.0);
        assert!((dram.as_gbytes_per_sec() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_bytes_is_free_but_one_byte_is_not() {
        let bw = Bandwidth::gbytes_per_sec(100.0);
        assert_eq!(bw.transfer_time(0), SimDuration::ZERO);
        assert!(bw.transfer_time(1).as_nanos() >= 1);
    }

    /// The integer ceiling in `transfer_time` against `f64::ceil`, the
    /// definition it replaced.
    #[test]
    fn transfer_time_is_the_ceiling_of_the_product() {
        let by_ceil = |bw: &Bandwidth, bytes: u64| -> u64 {
            if bytes == 0 {
                0
            } else {
                (bytes as f64 * bw.ns_per_byte).ceil().max(1.0) as u64
            }
        };
        // Every bandwidth the device configs construct.
        let configured = [
            Bandwidth::gbytes_per_sec(0.5 * 4.0), // host link, x4 Gen2
            Bandwidth::gbytes_per_sec(0.5 * 8.0), // Cosmos+ native, x8 Gen2
            Bandwidth::gbytes_per_sec(8.0 * (128.0 / 130.0) / 8.0 * 4.0), // NTB, x4 Gen3
            Bandwidth::bus(128, 250.0),           // SRAM-backed CMB
            Bandwidth::bus(64, 250.0).scaled(0.4), // DRAM-backed CMB (shared port)
            Bandwidth::bus(64, 250.0).scaled(2.0), // data-buffer DRAM
            Bandwidth::mbytes_per_sec(400.0),     // flash channel bus
            Bandwidth::gbytes_per_sec(1.0),       // flash channel bus, fast timing
        ];
        for bw in &configured {
            for bytes in 0..=70_000u64 {
                assert_eq!(
                    bw.transfer_time(bytes).as_nanos(),
                    by_ceil(bw, bytes),
                    "{bw} x {bytes}"
                );
            }
        }
        let mut rng = crate::DetRng::new(0xCE11);
        for _ in 0..200_000 {
            let bw = Bandwidth { ns_per_byte: 1e-3 + rng.unit() * 64.0 };
            let magnitude = rng.uniform(1, 40);
            let bytes = rng.uniform(1, 1 << magnitude);
            assert_eq!(bw.transfer_time(bytes).as_nanos(), by_ceil(&bw, bytes), "{bw:?} x {bytes}");
        }
        // Products that are an exact integer, and their nearest neighbours
        // on either side.
        for whole in [1u64, 2, 3, 1_000, 65_536, (1 << 52) - 1, 1 << 53, u64::MAX >> 1] {
            for x in [(whole as f64).next_down(), whole as f64, (whole as f64).next_up()] {
                let bw = Bandwidth { ns_per_byte: x };
                assert_eq!(bw.transfer_time(1).as_nanos(), by_ceil(&bw, 1), "product {x:e}");
            }
        }
        // Beyond u64 both forms saturate.
        let huge = Bandwidth { ns_per_byte: 1e300 };
        assert_eq!(huge.transfer_time(7).as_nanos(), u64::MAX);
    }

    #[test]
    fn scaling() {
        let bw = Bandwidth::gbytes_per_sec(4.0).scaled(0.5);
        assert!((bw.as_gbytes_per_sec() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn display_units() {
        assert_eq!(Bandwidth::gbytes_per_sec(2.0).to_string(), "2.00 GB/s");
        assert_eq!(Bandwidth::mbytes_per_sec(80.0).to_string(), "80.0 MB/s");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_bandwidth() {
        let _ = Bandwidth::bytes_per_ns(0.0);
    }
}
