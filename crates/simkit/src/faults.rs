//! Deterministic, seed-reproducible fault injection.
//!
//! Real devices fail constantly and recover quietly: NAND pages take
//! transient read disturbs, programs fail and retire blocks, PCIe TLPs are
//! dropped and replayed, NVMe commands time out and are retried, replicas
//! crash and are re-synced. A simulator that only models the happy path
//! cannot support the paper's failure-handling claims (§4.1 crash-consistent
//! logging, §5 bounded-delay replication), so every layer of this workspace
//! accepts an *armed* fault hook threaded from a single [`FaultPlan`].
//!
//! Two properties are load-bearing:
//!
//! 1. **Determinism.** Every probabilistic fault draws from a [`DetRng`]
//!    child stream forked from the plan's master seed with a per-site salt
//!    (see [`site`]). The same plan against the same workload produces the
//!    same faults at the same virtual instants, bit for bit — a failing
//!    chaos run is replayable from its seed alone.
//! 2. **Zero perturbation when disabled.** A disarmed [`FaultHook`] makes
//!    *no* RNG draws and adds *no* latency; the fault counters every site
//!    reports read 0. Every value in the `results/*.json` goldens is
//!    reproduced with the fault layer compiled in but disabled (enforced by
//!    `scripts/check_results.sh`).
//!
//! Layer wiring (each site documents its own semantics):
//!
//! - `flash::FlashArray::arm_faults` — transient read/program retries,
//!   permanent program failures that route through FTL block retirement;
//! - `pcie::NtbPort::arm_faults` / `schedule_link_down` — TLP drop → replay
//!   timer, link-down windows that park traffic until retrain;
//! - `nvme::NvmeDriver::arm_faults` — error completions and lost
//!   completions → timeout, abort, bounded exponential-backoff retry;
//! - `xssd_core::Cluster::power_fail` + `memdb::failover` — replica crash,
//!   primary-driven failover, log re-sync of the rejoined secondary.

use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};

/// Per-site fork salts, so each injection point owns an independent stream
/// and arming one site never perturbs another's draws.
pub mod site {
    /// Flash transient read faults.
    pub const FLASH_READ: u64 = 0xFA17_0001;
    /// Flash transient program faults.
    pub const FLASH_PROGRAM: u64 = 0xFA17_0002;
    /// Flash permanent program failures (bad-block growth).
    pub const FLASH_PERMANENT: u64 = 0xFA17_0003;
    /// NTB TLP drop → replay.
    pub const NTB_TLP: u64 = 0xFA17_0004;
    /// NVMe command fate (error completion / lost completion).
    pub const NVME_CMD: u64 = 0xFA17_0005;
    /// WAL tail corruption (torn/garbled bytes past the last durable
    /// record, exercised by the recovery property tests).
    pub const LOG_TAIL: u64 = 0xFA17_0006;
}

/// A probabilistic fault injector for one site.
///
/// Disarmed hooks (the default) are inert: [`FaultHook::fire`] returns
/// `false` without touching any RNG, so a model carrying a disarmed hook
/// behaves bit-identically to one compiled without the fault layer.
#[derive(Debug, Clone, Default)]
pub struct FaultHook {
    rng: Option<DetRng>,
    prob: f64,
}

impl FaultHook {
    /// An inert hook that never fires and never draws.
    pub fn disabled() -> Self {
        FaultHook::default()
    }

    /// An armed hook firing with probability `prob` per call, drawing from
    /// its own child stream.
    pub fn armed(rng: DetRng, prob: f64) -> Self {
        FaultHook { rng: Some(rng), prob }
    }

    /// One Bernoulli draw. Disarmed hooks return `false` without drawing.
    pub fn fire(&mut self) -> bool {
        let Some(rng) = self.rng.as_mut() else {
            return false;
        };
        if self.prob <= 0.0 {
            return false;
        }
        rng.chance(self.prob)
    }
}

/// Flash-layer fault rates (per page operation).
#[derive(Debug, Clone, Copy, Default)]
pub struct FlashFaultConfig {
    /// Probability a page read takes a transient error and must be retried
    /// in-device (each retry re-pays the array read time).
    pub transient_read: f64,
    /// Probability a page program takes a transient error and must be
    /// retried in-device (each retry re-pays the program time).
    pub transient_program: f64,
    /// Probability a page program fails permanently: the block is marked
    /// bad and the FTL must retire it, remap, and rewrite elsewhere.
    pub permanent_program: f64,
    /// Bound on in-device retries for transient faults; the retry that
    /// exceeds it succeeds anyway (transient errors clear by definition —
    /// permanent damage is modeled by `permanent_program`).
    pub max_retries: u32,
}

impl FlashFaultConfig {
    /// Whether any rate is nonzero.
    pub fn is_active(&self) -> bool {
        self.transient_read > 0.0 || self.transient_program > 0.0 || self.permanent_program > 0.0
    }
}

/// One scheduled link outage: traffic entering during `[from, until)` is
/// parked until the link retrains at `until`, then replayed.
#[derive(Debug, Clone, Copy)]
pub struct LinkDownWindow {
    /// Outage start (inclusive).
    pub from: SimTime,
    /// Retrain instant (exclusive end of the outage).
    pub until: SimTime,
}

impl LinkDownWindow {
    /// Whether `t` falls inside the outage.
    pub fn contains(&self, t: SimTime) -> bool {
        t >= self.from && t < self.until
    }
}

/// Transport (NTB/PCIe) fault rates.
#[derive(Debug, Clone, Copy, Default)]
pub struct TransportFaultConfig {
    /// Probability a forwarded TLP (or burst) is dropped and must wait for
    /// the replay timer before its retransmission delivers.
    pub tlp_drop: f64,
    /// The replay-timer delay a dropped TLP pays before redelivery.
    pub replay_timeout: SimDuration,
}

impl TransportFaultConfig {
    /// Whether the drop rate is nonzero.
    pub fn is_active(&self) -> bool {
        self.tlp_drop > 0.0
    }
}

/// NVMe command-level fault rates (injected in the host driver; its
/// timeout, retry budget and backoff are constants of `nvme::controller`).
#[derive(Debug, Clone, Copy, Default)]
pub struct NvmeFaultConfig {
    /// Probability a command completes with an error status and is retried
    /// by the driver with exponential backoff.
    pub error_completion: f64,
    /// Probability a command's completion is lost (never posted to the
    /// host), forcing the driver's timeout → abort → retry path.
    pub dropped_completion: f64,
}

impl NvmeFaultConfig {
    /// Whether any rate is nonzero.
    pub fn is_active(&self) -> bool {
        self.error_completion > 0.0 || self.dropped_completion > 0.0
    }
}

/// A scheduled (non-probabilistic) fault event.
#[derive(Debug, Clone, Copy)]
pub struct ScheduledFault {
    /// When the fault strikes.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// The scheduled fault vocabulary.
#[derive(Debug, Clone, Copy)]
pub enum FaultKind {
    /// Power-fail a whole device (the cluster's crash protocol runs).
    DeviceCrash {
        /// Cluster index of the crashing device.
        device: usize,
    },
    /// An NTB link outage on one device's outbound flows.
    LinkDown {
        /// Cluster index of the device whose flows go dark.
        device: usize,
        /// The outage window.
        window: LinkDownWindow,
    },
}

/// The cross-stack fault schedule a chaos run is configured with.
///
/// One master seed; each site forks its own child stream via
/// [`FaultPlan::rng_for`], so arming or re-rating one site never perturbs
/// another's draws. All-default plans are fully inert.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Master seed all per-site streams fork from.
    pub seed: u64,
    /// Flash-layer rates.
    pub flash: FlashFaultConfig,
    /// Transport-layer rates.
    pub transport: TransportFaultConfig,
    /// NVMe command-level rates.
    pub nvme: NvmeFaultConfig,
    /// Scheduled crash / outage events.
    pub schedule: Vec<ScheduledFault>,
}

impl FaultPlan {
    /// An inert plan (no rates, no schedule).
    pub fn disabled() -> Self {
        FaultPlan::default()
    }

    /// The deterministic child stream for one injection site. Equal
    /// `(seed, salt)` pairs always yield equal streams.
    pub fn rng_for(&self, salt: u64) -> DetRng {
        DetRng::new(self.seed).fork(salt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_hook_never_fires_and_never_draws() {
        let mut h = FaultHook::disabled();
        assert!(h.rng.is_none());
        for _ in 0..1000 {
            assert!(!h.fire());
        }
    }

    #[test]
    fn armed_hook_is_deterministic() {
        let plan = FaultPlan { seed: 42, ..FaultPlan::disabled() };
        let mut a = FaultHook::armed(plan.rng_for(site::FLASH_READ), 0.3);
        let mut b = FaultHook::armed(plan.rng_for(site::FLASH_READ), 0.3);
        let fa: Vec<bool> = (0..200).map(|_| a.fire()).collect();
        let fb: Vec<bool> = (0..200).map(|_| b.fire()).collect();
        assert_eq!(fa, fb);
        assert!(fa.contains(&true), "a 30% hook fires within 200 draws");
    }

    #[test]
    fn sites_are_independent() {
        let plan = FaultPlan { seed: 7, ..FaultPlan::disabled() };
        let mut read = plan.rng_for(site::FLASH_READ);
        let mut tlp = plan.rng_for(site::NTB_TLP);
        let same = (0..64).filter(|_| read.next_u64() == tlp.next_u64()).count();
        assert!(same < 4, "differently salted site streams must diverge");
    }

    #[test]
    fn link_down_window_membership() {
        let w = LinkDownWindow { from: SimTime::from_micros(10), until: SimTime::from_micros(20) };
        assert!(!w.contains(SimTime::from_micros(9)));
        assert!(w.contains(SimTime::from_micros(10)));
        assert!(w.contains(SimTime::from_micros(19)));
        assert!(!w.contains(SimTime::from_micros(20)));
    }
}
