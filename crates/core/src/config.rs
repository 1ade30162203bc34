//! Villars device configuration.

use nvme::{BackingClass, CmbDescriptor};
use simkit::{Bandwidth, SimDuration};
use ssd::SsdConfig;

/// Derating of the shared DRAM port for CMB traffic: the fast side sees
/// the DDR3 path's bandwidth × this factor because "the DRAM access is
/// shared with the device's regular data buffering activity" (paper §6);
/// calibrated to the Fig. 10 DRAM plateau (EXPERIMENTS.md calibration row
/// "DRAM backing").
const DRAM_SHARE_FACTOR: f64 = 0.4;

/// Configuration of the fast side's CMB module (paper §4.1).
#[derive(Debug, Clone, Copy)]
pub struct CmbConfig {
    /// Backing memory class and exposed size.
    pub backing: BackingClass,
    /// CMB region size in bytes (128 KiB SRAM / 128 MiB DRAM in the paper).
    pub size: u64,
    /// Intake (SRAM) queue size in bytes — the flow-control window the
    /// database is told about. The paper evaluates 1–32 KiB (Fig. 11).
    pub intake_queue_bytes: u64,
    /// How far beyond the contiguous tail an out-of-order chunk may land
    /// (paper §4.1: writes are "mostly sequential" — reordering is
    /// tolerated only "within established bounds").
    pub reorder_window_bytes: u64,
}

impl CmbConfig {
    /// The paper's SRAM configuration.
    pub fn sram() -> Self {
        let d = CmbDescriptor::villars_sram();
        CmbConfig {
            backing: d.backing,
            size: d.size,
            intake_queue_bytes: 32 << 10,
            reorder_window_bytes: 64 << 10,
        }
    }

    /// The paper's DRAM configuration: the SRAM one's window and reorder
    /// bound over the DRAM backing.
    pub fn dram() -> Self {
        let d = CmbDescriptor::villars_dram();
        CmbConfig { backing: d.backing, size: d.size, ..CmbConfig::sram() }
    }

    /// Raw backing-memory bandwidth for this class (paper §6: 128-bit @
    /// 250 MHz BlockRAM = 4 GB/s; 64-bit @ 250 MHz DDR3 path = 2 GB/s,
    /// derated by `DRAM_SHARE_FACTOR`).
    pub fn backing_bandwidth(&self) -> Bandwidth {
        match self.backing {
            BackingClass::Sram => Bandwidth::bus(128, 250.0),
            BackingClass::Dram => Bandwidth::bus(64, 250.0).scaled(DRAM_SHARE_FACTOR),
        }
    }
}

/// Configuration of the Destage module (paper §4.3).
#[derive(Debug, Clone, Copy)]
pub struct DestageConfig {
    /// Length of the destage ring in logical blocks ("much larger than the
    /// one on the fast side", Fig. 3).
    pub ring_lbas: u64,
    /// Destage a partial page (with filler) if the oldest undestaged byte
    /// waited longer than this.
    pub max_latency: SimDuration,
}

impl Default for DestageConfig {
    fn default() -> Self {
        DestageConfig { ring_lbas: 4096, max_latency: SimDuration::from_millis(1) }
    }
}

/// Shadow-counter / replication transport configuration (paper §4.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransportConfig {
    /// How often a secondary forwards its credit counter to the primary
    /// (Fig. 13 sweeps 0.4–1.6 µs).
    pub shadow_update_period: SimDuration,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig { shadow_update_period: SimDuration::from_micros_f64(0.8) }
    }
}

/// How the device combines shadow counters when the database reads the
/// credit counter (paper §4.2, "other replication schemes").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicationPolicy {
    /// Eager primary-secondary: report the *most delayed* counter across
    /// local + all secondaries (a log entry counts once persisted
    /// everywhere). The Villars default.
    Eager,
    /// Lazy: report the local counter; secondaries catch up asynchronously.
    Lazy,
    /// Chain: report the shadow counter of the last secondary in the chain.
    Chain,
    /// Quorum(k): report the k-th highest counter among local + shadows.
    Quorum(u32),
}

/// Full Villars configuration.
#[derive(Debug, Clone)]
pub struct VillarsConfig {
    /// The conventional side.
    pub conventional: SsdConfig,
    /// The CMB module.
    pub cmb: CmbConfig,
    /// The Destage module.
    pub destage: DestageConfig,
    /// The Transport module.
    pub transport: TransportConfig,
    /// Counter-combination policy for replicated setups.
    pub replication: ReplicationPolicy,
}

impl Default for VillarsConfig {
    fn default() -> Self {
        VillarsConfig {
            conventional: SsdConfig::default(),
            cmb: CmbConfig::sram(),
            destage: DestageConfig::default(),
            transport: TransportConfig::default(),
            replication: ReplicationPolicy::Eager,
        }
    }
}

impl VillarsConfig {
    /// Small/fast configuration for unit tests: tiny flash, fast timing,
    /// small CMB with a 4 KiB intake queue.
    pub fn small() -> Self {
        VillarsConfig {
            conventional: SsdConfig::small(),
            cmb: CmbConfig { size: 64 << 10, intake_queue_bytes: 4 << 10, ..CmbConfig::sram() },
            destage: DestageConfig { ring_lbas: 64, max_latency: SimDuration::from_micros(200) },
            transport: TransportConfig::default(),
            replication: ReplicationPolicy::Eager,
        }
    }

    /// The paper's SRAM-backed device over the default conventional side.
    pub fn villars_sram() -> Self {
        VillarsConfig { cmb: CmbConfig::sram(), ..VillarsConfig::default() }
    }

    /// The paper's DRAM-backed device.
    pub fn villars_dram() -> Self {
        VillarsConfig { cmb: CmbConfig::dram(), ..VillarsConfig::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backing_bandwidths_match_paper() {
        let sram = CmbConfig::sram();
        assert!((sram.backing_bandwidth().as_gbytes_per_sec() - 4.0).abs() < 1e-9);
        let dram = CmbConfig::dram();
        // 2 GB/s derated by the share factor.
        assert!((dram.backing_bandwidth().as_gbytes_per_sec() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn default_config_is_consistent() {
        let c = VillarsConfig::default();
        assert!(c.cmb.intake_queue_bytes <= c.cmb.size);
        assert!(c.destage.ring_lbas > 0);
        assert_eq!(c.replication, ReplicationPolicy::Eager);
    }

    #[test]
    fn small_config_ring_fits_namespace() {
        let c = VillarsConfig::small();
        let pages = c.conventional.geometry.total_pages() * 7 / 8;
        assert!(c.destage.ring_lbas <= pages);
    }
}
