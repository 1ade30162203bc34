//! The Transport module — cross-device log shipping (paper §4.2, Fig. 6).
//!
//! A primary's Transport module mirrors the CMB write stream to each
//! secondary over its own NTB flow (one mirror flow per secondary — the
//! paper deliberately skips hardware multicast). Each secondary periodically
//! forwards its credit counter back; the primary keeps these as *shadow
//! counters* and combines them per the configured replication policy when
//! the database reads the credit counter.

use crate::config::{ReplicationPolicy, TransportConfig};
use pcie::{HostId, NtbConfig, NtbFaultStats, NtbPort, Tlp, TranslationWindow};
use simkit::faults::{LinkDownWindow, TransportFaultConfig};
use simkit::{Bytes, DetRng, SimDuration, SimTime};
use std::collections::HashMap;

/// Index of a device within a [`crate::cluster::Cluster`].
pub type DeviceIndex = usize;

/// The replication role of a device (set via vendor NVMe commands; the
/// paper adds commands to move between stand-alone/primary/secondary).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Role {
    /// No transport activity; only CMB + Destage run.
    StandAlone,
    /// Mirrors CMB writes to the listed secondaries.
    Primary {
        /// Secondaries in chain order (matters for `ReplicationPolicy::Chain`).
        secondaries: Vec<DeviceIndex>,
    },
    /// Receives mirrored writes; reports its credit counter to the primary.
    Secondary {
        /// The primary device.
        primary: DeviceIndex,
    },
}

/// Health of the transport path (paper §7.1: a status register the host
/// checks when it suspects the credit counter is stale).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportStatus {
    /// Replication flows healthy.
    Ok,
    /// A peer has not acknowledged within the staleness window.
    Degraded,
    /// The module is off (stand-alone).
    Inactive,
}

/// A message handed to the cluster for cross-device delivery.
#[derive(Debug, Clone)]
pub enum Outbound {
    /// Mirrored CMB data for a secondary.
    Mirror {
        /// Destination device.
        dst: DeviceIndex,
        /// Monotonic log offset of the chunk.
        offset: u64,
        /// The chunk content (one buffer shared by every secondary's copy).
        data: Bytes,
        /// When it lands in the destination's CMB intake.
        deliver_at: SimTime,
    },
    /// A shadow-counter update for the primary.
    Shadow {
        /// Destination (primary) device.
        dst: DeviceIndex,
        /// Reporting secondary.
        src: DeviceIndex,
        /// The secondary's credit value.
        value: u64,
        /// When the primary's shadow copy updates.
        deliver_at: SimTime,
    },
}

impl Outbound {
    /// Destination device of the delivery.
    pub fn dst(&self) -> DeviceIndex {
        match self {
            Outbound::Mirror { dst, .. } | Outbound::Shadow { dst, .. } => *dst,
        }
    }
}

/// Transport statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct TransportStats {
    /// Data bytes mirrored out (primary).
    pub mirrored_bytes: u64,
    /// Mirror messages sent (primary).
    pub mirror_messages: u64,
    /// Shadow updates sent (secondary).
    pub shadow_updates_sent: u64,
    /// Shadow updates applied (primary).
    pub shadow_updates_applied: u64,
}

/// The Transport module of one device.
#[derive(Debug)]
pub struct TransportModule {
    config: TransportConfig,
    role: Role,
    /// Primary: one NTB mirror flow per secondary.
    flows: HashMap<DeviceIndex, NtbPort>,
    /// Primary: shadow counters by secondary.
    shadows: HashMap<DeviceIndex, u64>,
    /// Primary: when each secondary last reported (staleness detection).
    last_update_at: HashMap<DeviceIndex, SimTime>,
    /// Secondary: the NTB flow back to the primary for counter updates.
    upstream: Option<NtbPort>,
    /// Secondary: next scheduled counter update.
    next_update_at: SimTime,
    /// Secondary: last credit value reported.
    last_reported: u64,
    /// Armed transport-fault state: the config plus the parent RNG stream.
    /// Kept here (not on the flows) because flows are rebuilt on every
    /// role change — each new flow forks its own child stream from this.
    flow_faults: Option<(TransportFaultConfig, DetRng)>,
    stats: TransportStats,
}

/// The synthetic window base used for mirror flows: each device maps its
/// peers' CMBs at a fixed offset per device index.
const MIRROR_WINDOW_BASE: u64 = 0x100_0000_0000;
const MIRROR_WINDOW_SIZE: u64 = 1 << 32;

impl TransportModule {
    /// A stand-alone (inactive) transport.
    pub fn new(config: TransportConfig) -> Self {
        TransportModule {
            config,
            role: Role::StandAlone,
            flows: HashMap::new(),
            shadows: HashMap::new(),
            last_update_at: HashMap::new(),
            upstream: None,
            next_update_at: SimTime::ZERO,
            last_reported: 0,
            flow_faults: None,
            stats: TransportStats::default(),
        }
    }

    /// Current role.
    pub fn role(&self) -> &Role {
        &self.role
    }

    /// Configuration.
    pub fn config(&self) -> &TransportConfig {
        &self.config
    }

    /// Statistics.
    pub fn stats(&self) -> TransportStats {
        self.stats
    }

    /// Health of the transport path at `now` (paper §7.1: the status
    /// register the host checks when it suspects the counter is stale). A
    /// primary is Degraded when any secondary has not reported within the
    /// staleness window.
    pub fn status_at(&self, now: SimTime) -> TransportStatus {
        match &self.role {
            Role::StandAlone => TransportStatus::Inactive,
            Role::Secondary { .. } => TransportStatus::Ok,
            Role::Primary { secondaries } => {
                let stale = secondaries.iter().any(|s| {
                    let last = self.last_update_at.get(s).copied().unwrap_or(SimTime::ZERO);
                    now.saturating_since(last) > self.config.staleness_window
                });
                if stale {
                    TransportStatus::Degraded
                } else {
                    TransportStatus::Ok
                }
            }
        }
    }

    fn window_for(peer: DeviceIndex) -> TranslationWindow {
        TranslationWindow {
            local_base: MIRROR_WINDOW_BASE + peer as u64 * MIRROR_WINDOW_SIZE,
            len: MIRROR_WINDOW_SIZE,
            remote_host: HostId(peer as u16),
            remote_base: 0,
        }
    }

    /// Become a primary mirroring to `secondaries` (vendor command
    /// `SetRolePrimary`). Resets previous flows; the staleness clock for
    /// each secondary starts at `now`.
    pub fn set_primary(&mut self, secondaries: Vec<DeviceIndex>, ntb: NtbConfig, now: SimTime) {
        self.flows.clear();
        self.shadows.clear();
        self.last_update_at.clear();
        for &s in &secondaries {
            let mut port = NtbPort::new(ntb, HostId(s as u16));
            port.add_window(Self::window_for(s));
            if let Some((cfg, rng)) = &mut self.flow_faults {
                port.arm_faults(*cfg, rng.fork(s as u64));
            }
            self.flows.insert(s, port);
            self.shadows.insert(s, 0);
            self.last_update_at.insert(s, now);
        }
        self.upstream = None;
        self.role = Role::Primary { secondaries };
    }

    /// Become a secondary of `primary` (vendor command `SetRoleSecondary`).
    pub fn set_secondary(&mut self, primary: DeviceIndex, ntb: NtbConfig, now: SimTime) {
        let mut port = NtbPort::new(ntb, HostId(primary as u16));
        port.add_window(Self::window_for(primary));
        if let Some((cfg, rng)) = &mut self.flow_faults {
            port.arm_faults(*cfg, rng.fork(u64::from(u32::MAX) + 1 + primary as u64));
        }
        self.upstream = Some(port);
        self.flows.clear();
        self.shadows.clear();
        self.next_update_at = now + self.config.shadow_update_period;
        self.last_reported = 0;
        self.role = Role::Secondary { primary };
    }

    /// Return to stand-alone mode (vendor command `SetRoleStandAlone`).
    pub fn set_stand_alone(&mut self) {
        self.role = Role::StandAlone;
        self.flows.clear();
        self.shadows.clear();
        self.upstream = None;
    }

    /// Change the shadow-update period (Fig. 13's swept knob).
    pub fn set_shadow_period(&mut self, period: SimDuration) {
        assert!(!period.is_zero(), "update period must be positive");
        self.config.shadow_update_period = period;
    }

    /// Arm transport faults (TLP drop → replay-timer replay, link-down
    /// windows) on every NTB flow this module owns, now and across future
    /// role changes: flows are rebuilt on reconfiguration, so the config
    /// and parent RNG stream live here and each flow forks a child stream
    /// salted by its peer index.
    pub fn arm_flow_faults(&mut self, cfg: TransportFaultConfig, rng: DetRng) {
        self.flow_faults = Some((cfg, rng));
        let mut peers: Vec<DeviceIndex> = self.flows.keys().copied().collect();
        peers.sort_unstable();
        let (cfg, rng) = self.flow_faults.as_mut().expect("just set");
        for p in peers {
            self.flows.get_mut(&p).expect("just listed").arm_faults(*cfg, rng.fork(p as u64));
        }
        if let Some(up) = self.upstream.as_mut() {
            up.arm_faults(*cfg, rng.fork(u64::MAX));
        }
    }

    /// Park every flow's traffic during `window` (link retrain): TLPs
    /// entering the window wait for the retrain instant before the wire
    /// accepts them. Applies to current flows only — schedule outages
    /// after roles are configured.
    pub fn schedule_link_down(&mut self, window: LinkDownWindow) {
        let mut peers: Vec<DeviceIndex> = self.flows.keys().copied().collect();
        peers.sort_unstable();
        for p in peers {
            self.flows.get_mut(&p).expect("just listed").schedule_link_down(window);
        }
        if let Some(up) = self.upstream.as_mut() {
            up.schedule_link_down(window);
        }
    }

    /// Aggregate NTB fault statistics across every flow (mirror flows plus
    /// the upstream counter flow).
    pub fn flow_fault_stats(&self) -> NtbFaultStats {
        let mut total = NtbFaultStats::default();
        for f in self.flows.values().chain(self.upstream.iter()) {
            let s = f.fault_stats();
            total.replays += s.replays;
            total.deferrals += s.deferrals;
        }
        total
    }

    /// Primary: mirror one CMB chunk to every secondary. Each flow is
    /// independent ("allows each secondary to receive traffic at an
    /// independent pace"). Returns the deliveries for the cluster.
    pub fn mirror(&mut self, now: SimTime, offset: u64, data: &[u8]) -> Vec<Outbound> {
        let Role::Primary { secondaries } = &self.role else {
            return Vec::new();
        };
        let shared = Bytes::copy_from_slice(data);
        let len = data.len() as u64;
        // Forward as 64-byte (WC-sized) TLP bursts.
        let tlps = len.div_ceil(pcie::WC_BUFFER_BYTES).max(1);
        let payload = (len / tlps).max(1) as u32;
        let mut out = Vec::with_capacity(secondaries.len());
        for &dst in secondaries {
            let port = self.flows.get_mut(&dst).expect("flow exists for secondary");
            let addr = Self::window_for(dst).local_base + offset % MIRROR_WINDOW_SIZE;
            let grant = port.forward_burst(now, addr, payload, tlps).expect("mirror window mapped");
            self.stats.mirrored_bytes += len;
            self.stats.mirror_messages += 1;
            out.push(Outbound::Mirror { dst, offset, data: shared.clone(), deliver_at: grant.end });
        }
        out
    }

    /// Secondary: bound the shadow-update catch-up work at `bound`. After a
    /// long idle stretch nothing changed between the missed cycles, so
    /// replaying each one individually is pure waste — skip ahead, keeping
    /// the cycle phase, and leave only the recent window for
    /// [`TransportModule::take_shadow_updates`] to emit.
    ///
    /// The cluster calls this once per `advance` horizon so the skip
    /// decision is independent of how finely the horizon is carved into
    /// delivery barriers.
    pub fn catch_up_shadow_clock(&mut self, bound: SimTime) {
        if !matches!(self.role, Role::Secondary { .. }) {
            return;
        }
        const MAX_CATCHUP: u64 = 10_000;
        let period = self.config.shadow_update_period;
        let behind =
            bound.saturating_since(self.next_update_at).as_nanos() / period.as_nanos().max(1);
        if behind > MAX_CATCHUP {
            self.next_update_at += period.saturating_mul(behind - MAX_CATCHUP);
        }
    }

    /// Secondary: emit periodic shadow-counter updates up to `now`.
    /// `credit_at` queries the local CMB credit at a given instant.
    /// Callers spanning a large idle gap should bound the work first via
    /// [`TransportModule::catch_up_shadow_clock`].
    pub fn take_shadow_updates(
        &mut self,
        now: SimTime,
        me: DeviceIndex,
        mut credit_at: impl FnMut(SimTime) -> u64,
    ) -> Vec<Outbound> {
        let Role::Secondary { primary } = self.role else {
            return Vec::new();
        };
        let mut out = Vec::new();
        while self.next_update_at <= now {
            let at = self.next_update_at;
            self.next_update_at = at + self.config.shadow_update_period;
            let value = credit_at(at);
            // Skip no-change updates? The paper's device sends on a fixed
            // cycle; we do too — the bandwidth cost is the point of Fig. 13.
            let port = self.upstream.as_mut().expect("secondary has upstream flow");
            let addr = Self::window_for(primary).local_base;
            let tlp = Tlp::write(addr, self.config.counter_payload_bytes);
            let (_fwd, grant) = port.forward(at, &tlp).expect("upstream window mapped");
            self.last_reported = value;
            self.stats.shadow_updates_sent += 1;
            out.push(Outbound::Shadow { dst: primary, src: me, value, deliver_at: grant.end });
        }
        out
    }

    /// Secondary: the next scheduled shadow-update instant (event-loop hint).
    pub fn next_update_at(&self) -> Option<SimTime> {
        match self.role {
            Role::Secondary { .. } => Some(self.next_update_at),
            _ => None,
        }
    }

    /// Primary: apply a shadow-counter update that arrived from `src` at
    /// instant `at`.
    pub fn apply_shadow(&mut self, src: DeviceIndex, value: u64, at: SimTime) {
        if let Some(v) = self.shadows.get_mut(&src) {
            *v = (*v).max(value);
            self.stats.shadow_updates_applied += 1;
            let t = self.last_update_at.entry(src).or_insert(at);
            *t = (*t).max(at);
        }
    }

    /// A secondary's shadow counter as the primary sees it.
    pub fn shadow_of(&self, src: DeviceIndex) -> Option<u64> {
        self.shadows.get(&src).copied()
    }

    /// Combine the local credit with the shadow counters per `policy` —
    /// the value the database sees when it reads the credit counter.
    pub fn combined_credit(&self, local: u64, policy: ReplicationPolicy) -> u64 {
        match &self.role {
            Role::Primary { secondaries } if !secondaries.is_empty() => match policy {
                ReplicationPolicy::Eager => {
                    let min_shadow =
                        secondaries.iter().filter_map(|s| self.shadow_of(*s)).min().unwrap_or(0);
                    local.min(min_shadow)
                }
                ReplicationPolicy::Lazy => local,
                ReplicationPolicy::Chain => {
                    let last = *secondaries.last().expect("non-empty");
                    self.shadow_of(last).unwrap_or(0).min(local)
                }
                ReplicationPolicy::Quorum(k) => {
                    let mut counters: Vec<u64> = std::iter::once(local)
                        .chain(secondaries.iter().filter_map(|s| self.shadow_of(*s)))
                        .collect();
                    counters.sort_unstable_by(|a, b| b.cmp(a));
                    let k = (k as usize).clamp(1, counters.len());
                    counters[k - 1]
                }
            },
            _ => local,
        }
    }

    /// NTB wire statistics of the upstream (secondary → primary) flow, for
    /// the Fig. 13 bandwidth-overhead series.
    pub fn upstream_stats(&self) -> Option<simkit::LinkStats> {
        self.upstream.as_ref().map(|p| p.stats())
    }

    /// The slowest secondary's shadow counter (primary only): the offset up
    /// to which *every* secondary has acknowledged the mirrored stream.
    pub fn min_shadow(&self) -> Option<u64> {
        match &self.role {
            Role::Primary { secondaries } if !secondaries.is_empty() => {
                Some(secondaries.iter().filter_map(|s| self.shadow_of(*s)).min().unwrap_or(0))
            }
            _ => None,
        }
    }
}

impl simkit::Instrument for TransportModule {
    fn instrument(&self, out: &mut simkit::Scope<'_>) {
        out.counter("mirrored_bytes", self.stats.mirrored_bytes);
        out.counter("mirror_messages", self.stats.mirror_messages);
        out.counter("shadow_updates_sent", self.stats.shadow_updates_sent);
        out.counter("shadow_updates_applied", self.stats.shadow_updates_applied);
        for (dst, flow) in &self.flows {
            out.collect(&format!("flow{dst}"), flow);
        }
        if let Some(up) = &self.upstream {
            out.collect("upstream", up);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TransportConfig;

    fn primary_of(secs: Vec<DeviceIndex>) -> TransportModule {
        let mut t = TransportModule::new(TransportConfig::default());
        t.set_primary(secs, NtbConfig::default(), SimTime::ZERO);
        t
    }

    #[test]
    fn stand_alone_does_nothing() {
        let mut t = TransportModule::new(TransportConfig::default());
        assert!(t.mirror(SimTime::ZERO, 0, &[1, 2, 3]).is_empty());
        assert!(t.take_shadow_updates(SimTime::from_secs(1), 0, |_| 42).is_empty());
        assert_eq!(t.status_at(SimTime::ZERO), TransportStatus::Inactive);
        assert_eq!(t.combined_credit(99, ReplicationPolicy::Eager), 99);
    }

    #[test]
    fn primary_mirrors_to_every_secondary() {
        let mut t = primary_of(vec![1, 2]);
        let out = t.mirror(SimTime::ZERO, 0, &[0u8; 128]);
        assert_eq!(out.len(), 2);
        for o in &out {
            match o {
                Outbound::Mirror { deliver_at, data, .. } => {
                    assert!(deliver_at.as_nanos() > 900, "includes NTB hop");
                    assert_eq!(data.len(), 128);
                }
                _ => panic!("expected mirror"),
            }
        }
        assert_eq!(t.stats().mirrored_bytes, 256);
    }

    #[test]
    fn secondary_emits_periodic_updates() {
        let mut t = TransportModule::new(TransportConfig {
            shadow_update_period: SimDuration::from_micros(1),
            counter_payload_bytes: 8,
            staleness_window: SimDuration::from_micros(100),
        });
        t.set_secondary(0, NtbConfig::default(), SimTime::ZERO);
        // Credit grows 100 bytes per microsecond.
        let updates = t.take_shadow_updates(SimTime::from_micros(5), 1, |at| at.as_nanos() / 10);
        assert_eq!(updates.len(), 5);
        match updates[0] {
            Outbound::Shadow { dst, src, value, deliver_at } => {
                assert_eq!((dst, src), (0, 1));
                assert_eq!(value, 100);
                assert!(deliver_at > SimTime::from_micros(1));
            }
            _ => panic!("expected shadow"),
        }
        // No double emission.
        assert!(t.take_shadow_updates(SimTime::from_micros(5), 1, |_| 0).is_empty());
    }

    #[test]
    fn catch_up_clock_bounds_idle_replay() {
        let mut t = TransportModule::new(TransportConfig {
            shadow_update_period: SimDuration::from_micros(1),
            counter_payload_bytes: 8,
            staleness_window: SimDuration::from_micros(100),
        });
        t.set_secondary(0, NtbConfig::default(), SimTime::ZERO);
        // A 100 ms idle gap is 100k periods; the catch-up clamp leaves only
        // the last ~10k cycles to replay, keeping the cycle phase.
        let far = SimTime::from_millis(100);
        t.catch_up_shadow_clock(far);
        let updates = t.take_shadow_updates(far, 1, |_| 0);
        assert_eq!(updates.len(), 10_001);
        // Phase preserved: next update is one period past the horizon grid.
        assert_eq!(t.next_update_at(), Some(far + SimDuration::from_micros(1)));
        // A short gap is untouched by the clamp.
        let near = far + SimDuration::from_micros(5);
        t.catch_up_shadow_clock(near);
        assert_eq!(t.take_shadow_updates(near, 1, |_| 0).len(), 5);
    }

    #[test]
    fn catch_up_clock_is_inert_off_secondary_role() {
        let mut t = primary_of(vec![1]);
        t.catch_up_shadow_clock(SimTime::from_secs(10));
        assert_eq!(t.next_update_at(), None);
    }

    #[test]
    fn eager_policy_reports_most_delayed_counter() {
        let mut t = primary_of(vec![1, 2]);
        t.apply_shadow(1, 500, SimTime::ZERO);
        t.apply_shadow(2, 300, SimTime::ZERO);
        assert_eq!(t.combined_credit(1000, ReplicationPolicy::Eager), 300);
        // Local can be the laggard too (it never is in practice, but the
        // combination is defensive).
        assert_eq!(t.combined_credit(100, ReplicationPolicy::Eager), 100);
    }

    #[test]
    fn lazy_policy_reports_local() {
        let mut t = primary_of(vec![1]);
        t.apply_shadow(1, 10, SimTime::ZERO);
        assert_eq!(t.combined_credit(1000, ReplicationPolicy::Lazy), 1000);
    }

    #[test]
    fn chain_policy_reports_last_in_chain() {
        let mut t = primary_of(vec![1, 2, 3]);
        t.apply_shadow(1, 900, SimTime::ZERO);
        t.apply_shadow(2, 800, SimTime::ZERO);
        t.apply_shadow(3, 700, SimTime::ZERO);
        assert_eq!(t.combined_credit(1000, ReplicationPolicy::Chain), 700);
    }

    #[test]
    fn quorum_policy_takes_kth_highest() {
        let mut t = primary_of(vec![1, 2, 3]);
        t.apply_shadow(1, 900, SimTime::ZERO);
        t.apply_shadow(2, 500, SimTime::ZERO);
        t.apply_shadow(3, 100, SimTime::ZERO);
        // Counters: [1000(local), 900, 500, 100]; quorum of 2 -> 900.
        assert_eq!(t.combined_credit(1000, ReplicationPolicy::Quorum(2)), 900);
        assert_eq!(t.combined_credit(1000, ReplicationPolicy::Quorum(1)), 1000);
        assert_eq!(t.combined_credit(1000, ReplicationPolicy::Quorum(4)), 100);
        // k beyond the counter count clamps.
        assert_eq!(t.combined_credit(1000, ReplicationPolicy::Quorum(99)), 100);
    }

    #[test]
    fn shadow_updates_are_monotonic() {
        let mut t = primary_of(vec![1]);
        t.apply_shadow(1, 500, SimTime::ZERO);
        t.apply_shadow(1, 400, SimTime::ZERO); // late/reordered update must not regress
        assert_eq!(t.shadow_of(1), Some(500));
    }

    #[test]
    fn flow_faults_survive_role_reconfiguration() {
        let mut t = TransportModule::new(TransportConfig::default());
        t.arm_flow_faults(
            TransportFaultConfig { tlp_drop: 1.0, replay_timeout: SimDuration::from_micros(10) },
            DetRng::new(7),
        );
        t.set_primary(vec![1], NtbConfig::default(), SimTime::ZERO);
        t.mirror(SimTime::ZERO, 0, &[0u8; 64]);
        let first = t.flow_fault_stats().replays;
        assert!(first >= 1, "certain drop must replay");
        // Reconfigure: the rebuilt flow stays armed from the stored stream.
        t.set_primary(vec![1, 2], NtbConfig::default(), SimTime::from_micros(50));
        t.mirror(SimTime::from_micros(50), 0, &[0u8; 64]);
        assert!(t.flow_fault_stats().replays >= 2, "new flows re-armed");
    }

    #[test]
    fn unarmed_flows_report_zero_fault_stats() {
        let mut t = primary_of(vec![1]);
        t.mirror(SimTime::ZERO, 0, &[0u8; 64]);
        assert_eq!(t.flow_fault_stats(), NtbFaultStats::default());
    }

    #[test]
    fn role_transitions_reset_flows() {
        let mut t = primary_of(vec![1]);
        assert!(matches!(t.role(), Role::Primary { .. }));
        t.set_secondary(0, NtbConfig::default(), SimTime::ZERO);
        assert!(matches!(t.role(), Role::Secondary { primary: 0 }));
        assert!(t.upstream_stats().is_some());
        t.set_stand_alone();
        assert_eq!(t.status_at(SimTime::ZERO), TransportStatus::Inactive);
        assert!(t.upstream_stats().is_none());
    }
}
