//! The Transport module — cross-device log shipping (paper §4.2, Fig. 6).
//!
//! A primary's Transport module mirrors the CMB write stream to each
//! secondary over its own NTB flow (one mirror flow per secondary — the
//! paper deliberately skips hardware multicast). Each secondary periodically
//! forwards its credit counter back; the primary keeps these as *shadow
//! counters* and combines them per the configured replication policy when
//! the database reads the credit counter.
//!
//! # Counter updates travel as runs
//!
//! A secondary reports on a fixed cycle, but its credit only changes when a
//! drain completes on its CMB, so consecutive cycles carry the same value.
//! [`TransportModule::take_shadow_updates`] therefore emits *runs*: one
//! [`Outbound::Shadow`] stands for `count` updates of one value, `period`
//! apart, the upstream wire charged for all of them in closed form
//! ([`pcie::NtbPort::forward_periodic`]). Every counter — updates sent and
//! applied, TLPs forwarded, wire time — is what the per-cycle emission
//! produces; only the simulator's work per cycle is gone. Where the wire
//! cannot take a run (faults armed: drops and link-down windows are drawn
//! per TLP; a period below one TLP's wire time) the run has length one.

use crate::cmb::CmbModule;
use crate::config::{ReplicationPolicy, TransportConfig};
use pcie::{HostId, NtbFaultStats, NtbPort, Tlp, TranslationWindow, WriteShape};
use simkit::faults::{LinkDownWindow, TransportFaultConfig};
use simkit::{Bytes, DetRng, SimDuration, SimTime};

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
    /// A peer has not acknowledged within the staleness window
    /// (`STALENESS_WINDOW`).
    Degraded,
    /// The module is off (stand-alone).
    Inactive,
}

/// Consecutive TLPs of one write arriving at a CMB intake — the primary's
/// off the host link, a secondary's off its mirror flow: `count` arrivals,
/// `period` apart from `first`, the shape of the drains they become.
pub type TlpRun = simkit::Ends;

/// A mirrored CMB write on its way to a secondary.
#[derive(Debug, Clone)]
pub struct MirrorWrite {
    /// Destination device.
    pub dst: DeviceIndex,
    /// Monotonic log offset of the write.
    pub offset: u64,
    /// The write's content (one buffer shared by every secondary's copy).
    pub data: Bytes,
    /// `data` is cut into TLPs of `unit` bytes, the last holding the rest.
    pub unit: u64,
    /// When those TLPs land, in order.
    pub landings: Vec<TlpRun>,
}

/// A message handed to the cluster for cross-device delivery.
#[derive(Debug, Clone)]
pub enum Outbound {
    /// Mirrored CMB data for a secondary.
    Mirror(MirrorWrite),
    /// A run of shadow-counter updates for the primary: `count` updates
    /// reporting the same `value`, the first landing at `deliver_at` and
    /// each next one `period` later.
    Shadow {
        /// Destination (primary) device.
        dst: DeviceIndex,
        /// Reporting secondary.
        src: DeviceIndex,
        /// The secondary's credit value.
        value: u64,
        /// When the primary's shadow copy first updates.
        deliver_at: SimTime,
        /// Updates in the run (at least one).
        count: u64,
        /// Spacing of the run's updates (the secondary's update period).
        period: SimDuration,
    },
}

impl Outbound {
    /// Destination device of the delivery.
    pub fn dst(&self) -> DeviceIndex {
        match self {
            Outbound::Mirror(MirrorWrite { dst, .. }) | Outbound::Shadow { dst, .. } => *dst,
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

/// Primary-side state for one secondary.
#[derive(Debug)]
struct Peer {
    dev: DeviceIndex,
    /// The NTB mirror flow to this secondary.
    port: NtbPort,
    /// Its shadow counter.
    shadow: u64,
    /// When it last reported (staleness detection).
    last_update_at: SimTime,
}

/// The Transport module of one device.
#[derive(Debug)]
pub struct TransportModule {
    config: TransportConfig,
    role: Role,
    /// Primary: one entry per secondary, in chain order (at most five, so
    /// lookups are a linear scan).
    peers: Vec<Peer>,
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
    /// Reference model for the tests: emit one update per cycle through
    /// [`NtbPort::forward`], as if runs did not exist.
    #[cfg(test)]
    pub(crate) per_cycle_reference: bool,
}

/// The synthetic window base used for mirror flows: each device maps its
/// peers' CMBs at a fixed offset per device index.
const MIRROR_WINDOW_BASE: u64 = 0x100_0000_0000;
const MIRROR_WINDOW_SIZE: u64 = 1 << 32;

/// Bytes of a shadow-counter update message: the 8-byte credit counter
/// (paper §4.2).
const COUNTER_PAYLOAD_BYTES: u32 = 8;

/// A primary reports `Degraded` when a secondary has not forwarded its
/// counter within this window (paper §7.1: replication errors surface as an
/// indeterminate delay; the host checks a status register).
const STALENESS_WINDOW: SimDuration = SimDuration::from_micros(100);

impl TransportModule {
    /// A stand-alone (inactive) transport.
    pub fn new(config: TransportConfig) -> Self {
        TransportModule {
            config,
            role: Role::StandAlone,
            peers: Vec::new(),
            upstream: None,
            next_update_at: SimTime::ZERO,
            last_reported: 0,
            flow_faults: None,
            stats: TransportStats::default(),
            #[cfg(test)]
            per_cycle_reference: false,
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
            Role::Primary { .. } => {
                let stale = self
                    .peers
                    .iter()
                    .any(|p| now.saturating_since(p.last_update_at) > STALENESS_WINDOW);
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
    pub fn set_primary(&mut self, secondaries: Vec<DeviceIndex>, now: SimTime) {
        self.peers.clear();
        for &s in &secondaries {
            let mut port = NtbPort::new(HostId(s as u16));
            port.add_window(Self::window_for(s));
            if let Some((cfg, rng)) = &mut self.flow_faults {
                port.arm_faults(*cfg, rng.fork(s as u64));
            }
            let peer = Peer { dev: s, port, shadow: 0, last_update_at: now };
            // A secondary listed twice keeps one flow (its latest).
            match self.peers.iter_mut().find(|p| p.dev == s) {
                Some(p) => *p = peer,
                None => self.peers.push(peer),
            }
        }
        self.upstream = None;
        self.role = Role::Primary { secondaries };
    }

    /// Become a secondary of `primary` (vendor command `SetRoleSecondary`).
    pub fn set_secondary(&mut self, primary: DeviceIndex, now: SimTime) {
        let mut port = NtbPort::new(HostId(primary as u16));
        port.add_window(Self::window_for(primary));
        if let Some((cfg, rng)) = &mut self.flow_faults {
            port.arm_faults(*cfg, rng.fork(u64::from(u32::MAX) + 1 + primary as u64));
        }
        self.upstream = Some(port);
        self.peers.clear();
        self.next_update_at = now + self.config.shadow_update_period;
        self.last_reported = 0;
        self.role = Role::Secondary { primary };
    }

    /// Return to stand-alone mode (vendor command `SetRoleStandAlone`).
    pub fn set_stand_alone(&mut self) {
        self.role = Role::StandAlone;
        self.peers.clear();
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
    /// salted by its peer index (mirror flows in chain order, then the
    /// upstream flow).
    pub fn arm_flow_faults(&mut self, cfg: TransportFaultConfig, rng: DetRng) {
        let (cfg, rng) = self.flow_faults.insert((cfg, rng));
        for p in &mut self.peers {
            p.port.arm_faults(*cfg, rng.fork(p.dev as u64));
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
        for p in &mut self.peers {
            p.port.schedule_link_down(window);
        }
        if let Some(up) = self.upstream.as_mut() {
            up.schedule_link_down(window);
        }
    }

    /// Aggregate NTB fault statistics across every flow (mirror flows plus
    /// the upstream counter flow).
    pub fn flow_fault_stats(&self) -> NtbFaultStats {
        let mut total = NtbFaultStats::default();
        for f in self.peers.iter().map(|p| &p.port).chain(self.upstream.iter()) {
            let s = f.fault_stats();
            total.replays += s.replays;
            total.deferrals += s.deferrals;
        }
        total
    }

    /// Primary: mirror one CMB write to every secondary as its TLPs arrive:
    /// the full-size ones as `full` says (the host link's quote), the
    /// trailing partial at `last`. Each flow is independent ("allows each
    /// secondary to receive traffic at an independent pace") and makes one
    /// fault decision per write that shifts all of it. Returns the
    /// deliveries for the cluster.
    pub fn mirror(
        &mut self,
        offset: u64,
        data: &[u8],
        shape: WriteShape,
        full: TlpRun,
        last: SimTime,
    ) -> Vec<Outbound> {
        let Role::Primary { secondaries } = &self.role else {
            return Vec::new();
        };
        let shared = Bytes::copy_from_slice(data);
        let (len, every) = (data.len() as u64, full.period);
        #[cfg(test)]
        let walk = self.per_cycle_reference;
        #[cfg(not(test))]
        let walk = false;
        let mut out = Vec::with_capacity(secondaries.len());
        for &dst in secondaries {
            let port = &mut self
                .peers
                .iter_mut()
                .find(|p| p.dev == dst)
                .expect("flow exists for secondary")
                .port;
            let addr = Self::window_for(dst).local_base + offset % MIRROR_WINDOW_SIZE;
            let shift = port.fault_delay(if full.count > 0 { full.first } else { last });
            let mut landings = Vec::with_capacity(2);
            for (at, payload, n) in
                [(full.first, shape.unit, full.count), (last, shape.trailing_bytes, 1)]
            {
                if payload == 0 || n == 0 {
                    continue;
                }
                let (at, payload) = (at + shift, payload as u32);
                let stream =
                    if walk { None } else { port.forward_stream(at, addr, payload, every, n) };
                match stream {
                    Some((g, period)) => landings.push(TlpRun { first: g.end, period, count: n }),
                    // Still busy with a replayed write (or the reference).
                    None => landings.extend((0..n).map(|k| {
                        let (g, period) = port
                            .forward_stream(at + every * k, addr, payload, every, 1)
                            .expect("mirror window mapped");
                        TlpRun { first: g.end, period, count: 1 }
                    })),
                }
            }
            self.stats.mirrored_bytes += len;
            self.stats.mirror_messages += 1;
            let (data, unit) = (shared.clone(), shape.unit);
            out.push(Outbound::Mirror(MirrorWrite { dst, offset, data, unit, landings }));
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

    /// Secondary: emit the periodic shadow-counter updates due up to `now`
    /// as runs. `cmb` is the CMB whose credit is reported. Between two
    /// drain completions the credit cannot change, so every cycle up to
    /// `now` and strictly before the next pending completion reports the
    /// value read at the run's first cycle (a cycle *at* a completion
    /// instant already sees the new credit, and starts the next run).
    /// Callers spanning a large idle gap should bound the work first via
    /// [`TransportModule::catch_up_shadow_clock`].
    pub fn take_shadow_updates(
        &mut self,
        now: SimTime,
        me: DeviceIndex,
        cmb: &mut CmbModule,
    ) -> Vec<Outbound> {
        let Role::Secondary { primary } = self.role else {
            return Vec::new();
        };
        let period = self.config.shadow_update_period;
        let port = self.upstream.as_mut().expect("secondary has upstream flow");
        let tlp = Tlp::write(Self::window_for(primary).local_base, COUNTER_PAYLOAD_BYTES);
        let mut out = Vec::new();
        while self.next_update_at <= now {
            let at = self.next_update_at;
            let value = cmb.credit_at(at);
            // Skip no-change updates? The paper's device sends on a fixed
            // cycle; we do too — the bandwidth cost is the point of Fig. 13.
            let last = match cmb.next_pending() {
                Some(change) => now.min(change - SimDuration::from_nanos(1)),
                None => now,
            };
            let cycles = 1 + (last - at).as_nanos() / period.as_nanos();
            #[cfg(test)]
            let cycles = if self.per_cycle_reference { 1 } else { cycles };
            // The wire takes the whole run, or (faults armed, or a period
            // shorter than one TLP on the wire) one update at a time.
            let run =
                if cycles > 1 { port.forward_periodic(at, &tlp, period, cycles) } else { None };
            let (count, grant) = match run {
                Some(grant) => (cycles, grant),
                None => (1, port.forward(at, &tlp).expect("upstream window mapped").1),
            };
            self.next_update_at = at + period * count;
            self.last_reported = value;
            self.stats.shadow_updates_sent += count;
            out.push(Outbound::Shadow {
                dst: primary,
                src: me,
                value,
                deliver_at: grant.end,
                count,
                period,
            });
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

    /// Secondary: the first update cycle at or after `at` that has not been
    /// emitted yet — the cycle that first reports a credit reached at `at`.
    pub fn next_update_at_or_after(&self, at: SimTime) -> Option<SimTime> {
        let next = self.next_update_at()?;
        let period = self.config.shadow_update_period;
        let cycles = at.saturating_since(next).as_nanos().div_ceil(period.as_nanos());
        Some(next + period * cycles)
    }

    /// Primary: apply `count` shadow-counter updates from `src`, all
    /// reporting `value`, the last of which arrived at `last_at`.
    pub fn apply_shadow(&mut self, src: DeviceIndex, value: u64, last_at: SimTime, count: u64) {
        if let Some(p) = self.peers.iter_mut().find(|p| p.dev == src) {
            p.shadow = p.shadow.max(value);
            p.last_update_at = p.last_update_at.max(last_at);
            self.stats.shadow_updates_applied += count;
        }
    }

    /// A secondary's shadow counter as the primary sees it.
    pub fn shadow_of(&self, src: DeviceIndex) -> Option<u64> {
        self.peers.iter().find(|p| p.dev == src).map(|p| p.shadow)
    }

    /// The policy's pick among one value per credit source — `local` for
    /// this device, `of(s)` for each secondary — where a larger value means
    /// the source is further along. Eager waits for the furthest behind of
    /// all, Chain for local and the last in the chain, Lazy for nobody,
    /// Quorum(k) for the k-th furthest along. The credit counter is this
    /// pick over counter values ([`TransportModule::combined_credit`]); the
    /// instant it can cover an offset is the same pick over "how soon does
    /// this source get there" ([`crate::cluster::Cluster`]'s credit wait),
    /// so the two cannot disagree about whom a commit waits for.
    pub fn combine<T: Ord + Copy>(
        &self,
        policy: ReplicationPolicy,
        local: T,
        mut of: impl FnMut(DeviceIndex) -> T,
    ) -> T {
        match &self.role {
            Role::Primary { secondaries } if !secondaries.is_empty() => match policy {
                ReplicationPolicy::Eager => secondaries.iter().map(|s| of(*s)).fold(local, T::min),
                ReplicationPolicy::Lazy => local,
                ReplicationPolicy::Chain => local.min(of(*secondaries.last().expect("non-empty"))),
                ReplicationPolicy::Quorum(k) => {
                    let mut all: Vec<T> =
                        std::iter::once(local).chain(secondaries.iter().map(|s| of(*s))).collect();
                    all.sort_unstable_by(|a, b| b.cmp(a));
                    let k = (k as usize).clamp(1, all.len());
                    all[k - 1]
                }
            },
            _ => local,
        }
    }

    /// Combine the local credit with the shadow counters per `policy` —
    /// the value the database sees when it reads the credit counter.
    pub fn combined_credit(&self, local: u64, policy: ReplicationPolicy) -> u64 {
        self.combine(policy, local, |s| self.shadow_of(s).expect("flow exists for secondary"))
    }

    /// NTB wire statistics of the upstream (secondary → primary) flow, for
    /// the Fig. 13 bandwidth-overhead series.
    pub fn upstream_stats(&self) -> Option<pcie::LinkStats> {
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
        for p in &self.peers {
            out.collect(&format!("flow{}", p.dev), &p.port);
        }
        if let Some(up) = &self.upstream {
            out.collect("upstream", up);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CmbConfig, TransportConfig};
    use simkit::Grant;

    /// A lane whose credit reaches `bytes` at `at`: one chunk ingested at
    /// `at`, drained in zero time.
    fn cmb_with_credit(steps: &[(SimTime, u64)]) -> CmbModule {
        let mut cmb = CmbModule::new(CmbConfig::sram());
        let mut tail = 0;
        for &(at, upto) in steps {
            let chunk = vec![0u8; (upto - tail) as usize];
            cmb.ingest(at, tail, &chunk, |t, _| Grant { start: t, end: t }).expect("ingest");
            tail = upto;
        }
        cmb
    }

    /// The updates a list of runs stands for, one `(deliver_at, value)` each.
    fn expand(runs: &[Outbound]) -> Vec<(SimTime, u64)> {
        let mut out = Vec::new();
        for r in runs {
            let Outbound::Shadow { value, deliver_at, count, period, .. } = *r else {
                panic!("expected shadow")
            };
            out.extend((0..count).map(|k| (deliver_at + period * k, value)));
        }
        out
    }

    /// Mirror `data` as a write-combined write whose first TLP arrives at
    /// `now` off a 44 ns-per-TLP host link.
    fn mirror_wc(t: &mut TransportModule, now: SimTime, data: &[u8]) -> Vec<Outbound> {
        let shape = pcie::StoreIssueModel::wc().shape(data.len() as u64);
        let period = SimDuration::from_nanos(44);
        let full = TlpRun { first: now, period, count: shape.full_count };
        t.mirror(0, data, shape, full, now + period * shape.full_count)
    }

    fn primary_of(secs: Vec<DeviceIndex>) -> TransportModule {
        let mut t = TransportModule::new(TransportConfig::default());
        t.set_primary(secs, SimTime::ZERO);
        t
    }

    #[test]
    fn stand_alone_does_nothing() {
        let mut t = TransportModule::new(TransportConfig::default());
        assert!(mirror_wc(&mut t, SimTime::ZERO, &[1, 2, 3]).is_empty());
        let mut cmb = cmb_with_credit(&[]);
        assert!(t.take_shadow_updates(SimTime::from_secs(1), 0, &mut cmb).is_empty());
        assert_eq!(t.status_at(SimTime::ZERO), TransportStatus::Inactive);
        assert_eq!(t.combined_credit(99, ReplicationPolicy::Eager), 99);
    }

    #[test]
    fn primary_mirrors_to_every_secondary() {
        let mut t = primary_of(vec![1, 2]);
        let out = mirror_wc(&mut t, SimTime::ZERO, &[0u8; 128]);
        assert_eq!(out.len(), 2);
        for o in &out {
            match o {
                Outbound::Mirror(MirrorWrite { landings, data, unit, .. }) => {
                    // Two full TLPs, forwarded as they arrive: one run on
                    // the host link's 44 ns period.
                    let [run] = landings[..] else { panic!("one run, got {landings:?}") };
                    assert!(run.first.as_nanos() > 900, "includes NTB hop");
                    assert_eq!((run.period.as_nanos(), run.count, *unit), (44, 2, 64));
                    assert_eq!(data.len(), 128);
                }
                _ => panic!("expected mirror"),
            }
        }
        assert_eq!(t.stats().mirrored_bytes, 256);
    }

    #[test]
    fn mirror_charges_full_tlps_plus_the_trailing_partial() {
        let mut t = primary_of(vec![1]);
        // 136 B = 64 + 64 + 8, not three TLPs of 45.
        mirror_wc(&mut t, SimTime::ZERO, &[0u8; 136]);
        assert_eq!(t.stats().mirrored_bytes, 136);
        let mut reg = simkit::MetricsRegistry::new();
        reg.collect("t", &t);
        let flow = reg.snapshot();
        assert_eq!(flow.counter("t.flow1.payload_bytes"), 136);
        assert_eq!(flow.counter("t.flow1.messages"), 3);
        assert_eq!(flow.counter("t.flow1.forwarded_tlps"), 3);
        // The wire carried exactly what three single TLPs of 64, 64 and 8
        // bytes carry.
        let mut one_by_one = NtbPort::new(HostId(1));
        one_by_one.add_window(TransportModule::window_for(1));
        let base = TransportModule::window_for(1).local_base;
        for payload in [64, 64, 8] {
            one_by_one.forward(SimTime::ZERO, &Tlp::write(base, payload)).expect("mapped");
        }
        let wire = one_by_one.stats();
        assert_eq!(flow.counter("t.flow1.overhead_bytes"), wire.overhead_bytes);
        assert_eq!((wire.payload_bytes, wire.messages), (136, 3));
    }

    #[test]
    fn secondary_emits_periodic_updates() {
        let mut t = TransportModule::new(TransportConfig {
            shadow_update_period: SimDuration::from_micros(1),
        });
        t.set_secondary(0, SimTime::ZERO);
        // Credit reaches 100 at 1 us — exactly the first cycle, which
        // already sees it — and 300 at 3.5 us, between two cycles.
        let mut cmb =
            cmb_with_credit(&[(SimTime::from_micros(1), 100), (SimTime::from_nanos(3_500), 300)]);
        let runs = t.take_shadow_updates(SimTime::from_micros(5), 1, &mut cmb);
        // Five cycles (1..=5 us) in two runs: 100 x3, then 300 x2.
        let updates = expand(&runs);
        assert_eq!(updates.iter().map(|u| u.1).collect::<Vec<_>>(), [100, 100, 100, 300, 300]);
        assert_eq!(runs.len(), 2);
        match runs[0] {
            Outbound::Shadow { dst, src, value, deliver_at, count, period } => {
                assert_eq!((dst, src, value, count), (0, 1, 100, 3));
                assert_eq!(period, SimDuration::from_micros(1));
                assert!(deliver_at > SimTime::from_micros(1));
            }
            _ => panic!("expected shadow"),
        }
        assert_eq!(t.stats().shadow_updates_sent, 5);
        assert_eq!(t.upstream_stats().expect("secondary").messages, 5);
        // No double emission.
        assert!(t.take_shadow_updates(SimTime::from_micros(5), 1, &mut cmb).is_empty());
    }

    #[test]
    fn runs_stand_for_the_per_cycle_updates() {
        // The same credit timeline through the run emitter and the
        // per-cycle reference, horizons carved differently: same updates,
        // same wire and counters.
        let steps: Vec<(SimTime, u64)> =
            (1..=40u64).map(|i| (SimTime::from_nanos(i * 2_300), i * 64)).collect();
        let horizons = [800u64, 2_300, 2_400, 9_999, 10_000, 46_000, 46_001, 120_000];
        let emit = |reference: bool, period_ns: u64| {
            let mut t = TransportModule::new(TransportConfig {
                shadow_update_period: SimDuration::from_nanos(period_ns),
            });
            t.per_cycle_reference = reference;
            t.set_secondary(0, SimTime::ZERO);
            let mut cmb = cmb_with_credit(&steps);
            let mut updates = Vec::new();
            let mut runs = 0;
            for h in horizons {
                let out = t.take_shadow_updates(SimTime::from_nanos(h), 1, &mut cmb);
                runs += out.len();
                updates.extend(expand(&out));
            }
            let wire = t.upstream_stats().expect("secondary");
            (updates, t.stats().shadow_updates_sent, wire.messages, t.next_update_at(), runs)
        };
        // 800 ns: the default cycle. 5 ns: below one TLP's wire time, so the
        // wire refuses runs and every update goes out alone.
        for period_ns in [800, 5] {
            let (run, reference) = (emit(false, period_ns), emit(true, period_ns));
            assert_eq!(run.0, reference.0, "period {period_ns}: updates differ");
            assert_eq!((run.1, run.2, run.3), (reference.1, reference.2, reference.3));
            assert_eq!(reference.4 as u64, reference.1, "the reference emits one per cycle");
            if period_ns == 800 {
                assert!(run.4 < 100, "{} runs for {} updates", run.4, run.1);
            } else {
                assert_eq!(run.4 as u64, run.1, "a refusing wire forces runs of one");
            }
        }
    }

    #[test]
    fn catch_up_clock_bounds_idle_replay() {
        let mut t = TransportModule::new(TransportConfig {
            shadow_update_period: SimDuration::from_micros(1),
        });
        t.set_secondary(0, SimTime::ZERO);
        // A 100 ms idle gap is 100k periods; the catch-up clamp leaves only
        // the last ~10k cycles to replay, keeping the cycle phase.
        let far = SimTime::from_millis(100);
        t.catch_up_shadow_clock(far);
        let mut cmb = cmb_with_credit(&[]);
        let updates = t.take_shadow_updates(far, 1, &mut cmb);
        assert_eq!(expand(&updates).len(), 10_001);
        assert_eq!(updates.len(), 1, "an idle secondary's catch-up is one run");
        // Phase preserved: next update is one period past the horizon grid.
        assert_eq!(t.next_update_at(), Some(far + SimDuration::from_micros(1)));
        // A short gap is untouched by the clamp.
        let near = far + SimDuration::from_micros(5);
        t.catch_up_shadow_clock(near);
        assert_eq!(expand(&t.take_shadow_updates(near, 1, &mut cmb)).len(), 5);
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
        t.apply_shadow(1, 500, SimTime::ZERO, 1);
        t.apply_shadow(2, 300, SimTime::ZERO, 1);
        assert_eq!(t.combined_credit(1000, ReplicationPolicy::Eager), 300);
        // Local can be the laggard too (it never is in practice, but the
        // combination is defensive).
        assert_eq!(t.combined_credit(100, ReplicationPolicy::Eager), 100);
    }

    #[test]
    fn lazy_policy_reports_local() {
        let mut t = primary_of(vec![1]);
        t.apply_shadow(1, 10, SimTime::ZERO, 1);
        assert_eq!(t.combined_credit(1000, ReplicationPolicy::Lazy), 1000);
    }

    #[test]
    fn chain_policy_reports_last_in_chain() {
        let mut t = primary_of(vec![1, 2, 3]);
        t.apply_shadow(1, 900, SimTime::ZERO, 1);
        t.apply_shadow(2, 800, SimTime::ZERO, 1);
        t.apply_shadow(3, 700, SimTime::ZERO, 1);
        assert_eq!(t.combined_credit(1000, ReplicationPolicy::Chain), 700);
    }

    #[test]
    fn quorum_policy_takes_kth_highest() {
        let mut t = primary_of(vec![1, 2, 3]);
        t.apply_shadow(1, 900, SimTime::ZERO, 1);
        t.apply_shadow(2, 500, SimTime::ZERO, 1);
        t.apply_shadow(3, 100, SimTime::ZERO, 1);
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
        t.apply_shadow(1, 500, SimTime::ZERO, 1);
        t.apply_shadow(1, 400, SimTime::ZERO, 1); // late/reordered update must not regress
        assert_eq!(t.shadow_of(1), Some(500));
    }

    #[test]
    fn flow_faults_survive_role_reconfiguration() {
        let mut t = TransportModule::new(TransportConfig::default());
        t.arm_flow_faults(
            TransportFaultConfig { tlp_drop: 1.0, replay_timeout: SimDuration::from_micros(10) },
            DetRng::new(7),
        );
        t.set_primary(vec![1], SimTime::ZERO);
        mirror_wc(&mut t, SimTime::ZERO, &[0u8; 64]);
        let first = t.flow_fault_stats().replays;
        assert!(first >= 1, "certain drop must replay");
        // Reconfigure: the rebuilt flow stays armed from the stored stream.
        t.set_primary(vec![1, 2], SimTime::from_micros(50));
        mirror_wc(&mut t, SimTime::from_micros(50), &[0u8; 64]);
        assert!(t.flow_fault_stats().replays >= 2, "new flows re-armed");
    }

    #[test]
    fn unarmed_flows_report_zero_fault_stats() {
        let mut t = primary_of(vec![1]);
        mirror_wc(&mut t, SimTime::ZERO, &[0u8; 64]);
        assert_eq!(t.flow_fault_stats(), NtbFaultStats::default());
    }

    #[test]
    fn role_transitions_reset_flows() {
        let mut t = primary_of(vec![1]);
        assert!(matches!(t.role(), Role::Primary { .. }));
        t.set_secondary(0, SimTime::ZERO);
        assert!(matches!(t.role(), Role::Secondary { primary: 0 }));
        assert!(t.upstream_stats().is_some());
        t.set_stand_alone();
        assert_eq!(t.status_at(SimTime::ZERO), TransportStatus::Inactive);
        assert!(t.upstream_stats().is_none());
    }
}
