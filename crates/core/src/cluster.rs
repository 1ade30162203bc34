//! A cluster of Villars devices connected by NTB (paper Fig. 6).
//!
//! The cluster owns the devices and routes cross-device traffic — mirror
//! streams (primary → secondaries) and shadow-counter updates (secondary →
//! primary). It is the entry point replication experiments and the host
//! API use.
//!
//! # One advance loop, two queues
//!
//! [`Cluster::advance`] is a single sequential loop. Mirrored writes sit in
//! one time-ordered [`EventQueue`], one entry per write per secondary keyed
//! at its *last* TLP's landing; each is a barrier: the secondaries emit
//! their shadow-counter updates up to its delivery instant, then it is
//! ingested on its TLPs' own landing instants (a mirror changes the credit
//! timeline the updates report) — never a byte before its TLP has landed.
//! Shadow updates travel as *runs* — `count` updates of one value, `period`
//! apart, see [`crate::transport`] — in a second queue, each run keyed at
//! its next undelivered update. A shadow update landing on the primary
//! cannot change any secondary's credit, so runs are no barrier: after the
//! mirror loop every update due by the horizon is applied at once (`max`
//! on the counter, a sum on the applied count, `max` on the report time —
//! order between sources is immaterial) and a run that straddles the
//! horizon goes back with what is left. One `advance` costs what changed
//! within its horizon, not the number of update cycles it spans. Then every
//! device advances to the target instant. Host parallelism lives one level
//! up, in the sweep over independent simulation cells (`bench::sweep`).

use crate::cmb::CmbError;
use crate::config::VillarsConfig;
use crate::destage::PageStore;
use crate::device::{vendor, CrashReport, VillarsDevice};
use crate::transport::{DeviceIndex, MirrorWrite, Outbound, Role, TlpRun};
use nvme::{
    drive_to_completion, AdminCommand, CmdTag, CommandKind, Completion, IoPort, Status,
    VendorCommand,
};
use pcie::MmioMode;
use simkit::{EventQueue, FaultPlan, SimDuration, SimTime};
use std::cmp::Reverse;

/// Shadow-counter updates in flight to the primary: `count` updates of
/// `value`, `period` apart, queued at the delivery instant of the first.
#[derive(Debug, Clone, Copy)]
struct ShadowRun {
    dst: DeviceIndex,
    src: DeviceIndex,
    value: u64,
    count: u64,
    period: SimDuration,
}

/// Drop every queued delivery addressed to `dev`, keeping the rest in order.
fn drop_addressed_to<E>(
    queue: &mut EventQueue<E>,
    dev: DeviceIndex,
    dst: impl Fn(&E) -> DeviceIndex,
) {
    let mut keep = Vec::new();
    while let Some((at, ev)) = queue.pop() {
        if dst(&ev) != dev {
            keep.push((at, ev));
        }
    }
    for (at, ev) in keep {
        queue.schedule(at, ev);
    }
}

/// The device cluster.
///
/// Command I/O goes through each device's [`IoPort`] (CIDs are allocated
/// per device, so a wrapped 16-bit CID can never collide with a command
/// still in flight on the same device). The `*_blocking` helpers are a
/// thin closed-loop adapter over that port: one tagged submission via
/// [`Cluster::submit`], then the shared [`drive_to_completion`] wait.
pub struct Cluster {
    devices: Vec<VillarsDevice>,
    /// Mirror chunks in flight, in delivery-time order.
    mirrors: EventQueue<MirrorWrite>,
    /// Shadow-update runs in flight, each keyed at its next undelivered
    /// update.
    shadows: EventQueue<ShadowRun>,
    /// Insertions into `mirrors` and `shadows` so far (the two accessors).
    mirrors_queued: u64,
    shadow_runs_queued: u64,
    /// Per device: currently powered off. Traffic to a dead device is
    /// dropped on the floor (its PCIe fabric is gone).
    dead: Vec<bool>,
    /// Reference model for the tests: one queue entry per update cycle and
    /// every delivery a barrier, as if runs did not exist.
    #[cfg(test)]
    per_cycle_reference: bool,
    /// Reusable completion-drain buffer for the blocking waits (one
    /// allocation for the cluster's lifetime instead of one per horizon
    /// step).
    drain_buf: Vec<Completion>,
    /// Destage-page storage the devices share: replicas that destage the
    /// same bytes keep one copy of each page.
    pages: PageStore,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster").field("devices", &self.devices.len()).finish()
    }
}

impl Default for Cluster {
    fn default() -> Self {
        Self::new()
    }
}

impl Cluster {
    /// An empty cluster.
    pub fn new() -> Self {
        Cluster {
            devices: Vec::new(),
            mirrors: EventQueue::new(),
            shadows: EventQueue::new(),
            mirrors_queued: 0,
            shadow_runs_queued: 0,
            dead: Vec::new(),
            #[cfg(test)]
            per_cycle_reference: false,
            drain_buf: Vec::new(),
            pages: PageStore::default(),
        }
    }

    /// Add a device; returns its index.
    pub fn add_device(&mut self, config: VillarsConfig) -> DeviceIndex {
        self.devices.push(VillarsDevice::with_pages(config, &self.pages));
        #[cfg(test)]
        {
            let transport = self.devices.last_mut().expect("just pushed").transport_mut();
            transport.per_cycle_reference = self.per_cycle_reference;
        }
        self.dead.push(false);
        self.devices.len() - 1
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// True if no devices were added.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Borrow a device.
    pub fn device(&self, i: DeviceIndex) -> &VillarsDevice {
        &self.devices[i]
    }

    /// Borrow a device mutably.
    pub fn device_mut(&mut self, i: DeviceIndex) -> &mut VillarsDevice {
        &mut self.devices[i]
    }

    /// Submit a command asynchronously on device `dev`'s [`IoPort`] at
    /// `now`. The returned tag identifies the in-flight command; drain
    /// its completion with [`Cluster::completions_into`] or block on it
    /// with [`Cluster::wait_for_completion`].
    pub fn submit(&mut self, dev: DeviceIndex, now: SimTime, kind: CommandKind) -> CmdTag {
        IoPort::submit(&mut self.devices[dev], now, kind)
    }

    /// Run device `dev` up to `now` so completions due by `now` become
    /// visible (the cluster-level [`IoPort::poll`]).
    pub fn poll_device(&mut self, dev: DeviceIndex, now: SimTime) {
        self.devices[dev].poll(now);
    }

    /// Append device `dev`'s completions due at or before `now` to `out`,
    /// in completion order, retiring their tags.
    pub fn completions_into(&mut self, dev: DeviceIndex, now: SimTime, out: &mut Vec<Completion>) {
        self.devices[dev].completions_into(now, out);
    }

    /// Event-driven blocking wait for `tag` on device `dev`, starting the
    /// horizon at `from`: the shared closed-loop adapter
    /// ([`drive_to_completion`]) jumps virtual time straight to the
    /// device's next pending event instead of stepping in fixed quanta,
    /// and panics, naming the instant, the in-flight count and the CID, if
    /// the device stalls.
    pub fn wait_for_completion(
        &mut self,
        dev: DeviceIndex,
        from: SimTime,
        tag: CmdTag,
    ) -> Completion {
        let mut drained = std::mem::take(&mut self.drain_buf);
        let done = drive_to_completion(&mut self.devices[dev], from, tag, &mut drained);
        self.drain_buf = drained;
        done
    }

    /// Execute a vendor-specific admin command against device `dev`,
    /// blocking until its completion. This is the NVMe control plane the
    /// paper describes: "changing the networking mode for a Villars device
    /// or its peers is done via software" (§4.2).
    pub fn vendor_blocking(
        &mut self,
        dev: DeviceIndex,
        now: SimTime,
        v: VendorCommand,
    ) -> (SimTime, nvme::CompletionEntry) {
        let tag = self.submit(dev, now, CommandKind::Admin(AdminCommand::Vendor(v)));
        let done = self.wait_for_completion(dev, now, tag);
        (done.at, done.entry)
    }

    /// Configure eager primary/secondary replication via vendor commands:
    /// `primary` mirrors to `secondaries` (in chain order).
    pub fn configure_replication(
        &mut self,
        now: SimTime,
        primary: DeviceIndex,
        secondaries: &[DeviceIndex],
    ) -> SimTime {
        assert!(!secondaries.is_empty() && secondaries.len() <= 5);
        let mut dwords = [0u32; 6];
        dwords[0] = secondaries.len() as u32;
        for (i, s) in secondaries.iter().enumerate() {
            dwords[i + 1] = *s as u32;
        }
        let (mut t, e) =
            self.vendor_blocking(primary, now, VendorCommand::new(vendor::SET_PRIMARY, dwords));
        assert_eq!(e.status, Status::Success);
        for &s in secondaries {
            let (t2, e2) = self.vendor_blocking(
                s,
                t,
                VendorCommand::new(vendor::SET_SECONDARY, [primary as u32, 0, 0, 0, 0, 0]),
            );
            assert_eq!(e2.status, Status::Success);
            t = t2;
        }
        t
    }

    /// Fast-side write against device `dev`, routing any mirror traffic.
    /// Returns `(issued_at, arrived_at)`: the CPU may issue its next store
    /// at `issued_at` (stores pipeline on the wire); the data is fully in
    /// the device's intake at `arrived_at`.
    pub fn fast_write(
        &mut self,
        dev: DeviceIndex,
        now: SimTime,
        offset: u64,
        data: &[u8],
        mode: MmioMode,
    ) -> Result<(SimTime, SimTime), CmbError> {
        let fw = self.devices[dev].fast_write(now, offset, data, mode)?;
        for o in fw.outbound {
            self.schedule_outbound(o);
        }
        Ok((fw.issued_at, fw.arrived_at))
    }

    /// Blocking conventional-side block write (checkpointing and other
    /// block workloads driven at cluster level). Returns the ack instant.
    pub fn block_write_blocking(
        &mut self,
        dev: DeviceIndex,
        now: SimTime,
        lba: u64,
        blocks: u32,
    ) -> SimTime {
        self.io_blocking(dev, now, nvme::IoCommand::Write { lba, blocks })
    }

    /// Blocking conventional-side block read.
    pub fn block_read_blocking(
        &mut self,
        dev: DeviceIndex,
        now: SimTime,
        lba: u64,
        blocks: u32,
    ) -> SimTime {
        self.io_blocking(dev, now, nvme::IoCommand::Read { lba, blocks })
    }

    /// Blocking conventional-side flush (durability barrier).
    pub fn block_flush_blocking(&mut self, dev: DeviceIndex, now: SimTime) -> SimTime {
        self.io_blocking(dev, now, nvme::IoCommand::Flush)
    }

    fn io_blocking(&mut self, dev: DeviceIndex, now: SimTime, io: nvme::IoCommand) -> SimTime {
        let tag = self.submit(dev, now, CommandKind::Io(io));
        let done = self.wait_for_completion(dev, now, tag);
        assert!(
            done.entry.status.is_ok(),
            "block I/O failed on device {dev} (cid {}): {:?}",
            done.entry.cid,
            done.entry.status
        );
        done.at
    }

    /// Control-interface credit read on device `dev` (policy-combined).
    pub fn read_credit(&mut self, dev: DeviceIndex, now: SimTime) -> (SimTime, u64) {
        self.devices[dev].read_credit(now)
    }

    fn schedule_outbound(&mut self, o: Outbound) {
        if self.dead[o.dst()] {
            return; // the wire to a dead fabric drops traffic
        }
        match o {
            Outbound::Mirror(m) => {
                // Keyed at the last TLP's landing (an empty write has none).
                if let Some(at) = m.landings.last().map(TlpRun::last) {
                    self.mirrors.schedule(at, m);
                    self.mirrors_queued += 1;
                }
            }
            Outbound::Shadow { dst, src, value, deliver_at, count, period } => {
                self.queue_shadow_run(deliver_at, ShadowRun { dst, src, value, count, period });
            }
        }
    }

    fn queue_shadow_run(&mut self, at: SimTime, run: ShadowRun) {
        self.shadows.schedule(at, run);
        self.shadow_runs_queued += 1;
    }

    /// How many mirror entries have entered the delivery queue so far: one
    /// per write per live secondary, plus one per retry of a refused one.
    pub fn mirrors_queued(&self) -> u64 {
        self.mirrors_queued
    }

    /// How many shadow-update runs have entered the delivery queue so far
    /// (a run re-queued because it straddled an `advance` horizon counts
    /// again). The secondaries' `shadow_updates_sent` counts the updates
    /// those runs stand for; the gap between the two is the per-cycle
    /// queue work the runs replace. A plain accessor, not a telemetry
    /// path: snapshots and digests do not see it.
    pub fn shadow_runs_queued(&self) -> u64 {
        self.shadow_runs_queued
    }

    /// The earliest cross-device delivery in flight.
    fn next_delivery(&self) -> Option<SimTime> {
        match (self.mirrors.next_time(), self.shadows.next_time()) {
            (Some(m), Some(s)) => Some(m.min(s)),
            (m, s) => m.or(s),
        }
    }

    /// How far the secondaries may emit shadow updates before the loop in
    /// [`Cluster::advance`] must look at the queues again: the next mirror
    /// delivery (a mirror arriving at `t_m` changes the credit timeline the
    /// updates report), capped at the horizon `t`.
    fn emission_barrier(&self, t: SimTime) -> SimTime {
        let next = self.mirrors.next_time();
        #[cfg(test)]
        let next = if self.per_cycle_reference { self.next_delivery() } else { next };
        next.map_or(t, |e| e.min(t))
    }

    /// Drive the whole cluster to `t`: generates secondary shadow updates,
    /// delivers cross-device traffic in time order, and advances every
    /// device.
    pub fn advance(&mut self, t: SimTime) {
        // Bound the shadow-update catch-up work once per horizon, before
        // any emission, at the first pending delivery of either kind.
        let b0 = self.next_delivery().map_or(t, |p| p.min(t));
        for d in &mut self.devices {
            d.catch_up_shadow_clock(b0);
        }
        loop {
            let barrier = self.emission_barrier(t);
            for i in 0..self.devices.len() {
                let outs = self.devices[i].take_shadow_updates(barrier, i);
                for o in outs {
                    self.schedule_outbound(o);
                }
            }
            #[cfg(test)]
            if self.per_cycle_reference {
                self.land_shadow_updates(barrier);
            }
            match self.mirrors.pop_due(barrier) {
                Some((at, m)) => self.deliver_mirror(at, m),
                // Nothing due at the barrier: it was the horizon (or, for
                // the per-cycle reference, a shadow delivery on the way).
                None if barrier >= t => break,
                None => {}
            }
        }
        self.land_shadow_updates(t);
        for d in &mut self.devices {
            d.advance(t);
        }
        self.check();
    }

    /// The replication invariant, checked in debug builds after every
    /// [`Cluster::advance`]: a primary's shadow of each live secondary is
    /// no higher than that secondary's settled credit — a shadow value only
    /// ever comes from the secondary's own counter, which never falls
    /// (a reboot resumes it at the crash-destaged frontier).
    fn check(&self) {
        if cfg!(debug_assertions) {
            for (p, primary) in self.devices.iter().enumerate() {
                let Role::Primary { secondaries } = primary.transport().role() else { continue };
                for &s in secondaries.iter().filter(|&&s| self.dead.get(s) == Some(&false)) {
                    let (shadow, credit) =
                        (primary.transport().shadow_of(s), self.devices[s].credit_settled());
                    assert!(
                        shadow.is_none_or(|shadow| shadow <= credit),
                        "Cluster: primary {p}'s shadow of secondary {s} is {shadow:?}, past its \
                         settled credit {credit}"
                    );
                }
            }
        }
    }

    fn deliver_mirror(&mut self, at: SimTime, mut m: MirrorWrite) {
        if self.dead[m.dst] {
            return;
        }
        let dev = &mut self.devices[m.dst];
        match dev.receive_mirror(m.offset, &m.data, m.unit, &m.landings) {
            // (An overlap straddles the tail: a duplicate the CMB half holds.)
            Ok(()) | Err(CmbError::Overlap { .. }) => {}
            Err(refusal) => {
                // Intake saturated part-way, or waiting for the rest of an
                // earlier write: the transport inserts itself into the
                // back-pressure path (paper §4.2) and offers what was not
                // taken again at the event that can reopen the intake.
                dev.advance(at);
                let Some(retry) = dev.next_event_after(at) else {
                    panic!(
                        "simulation stalled at mirror flow: t={}us, 1 in flight; to {}: [{}, \
                         +{}): {refusal}",
                        at.as_micros_f64(),
                        m.dst,
                        m.offset,
                        m.data.len()
                    )
                };
                for run in &mut m.landings {
                    *run = TlpRun { first: retry, period: SimDuration::ZERO, ..*run };
                }
                self.mirrors.schedule(retry, m);
                self.mirrors_queued += 1;
            }
        }
    }

    /// Apply every shadow update whose delivery instant is at or before
    /// `t`. A run that straddles `t` is split: the updates due are applied
    /// and the rest go back, keyed at the first of them.
    fn land_shadow_updates(&mut self, t: SimTime) {
        while let Some((at, run)) = self.shadows.pop_due(t) {
            let due = run.count.min(1 + (t - at).as_nanos() / run.period.as_nanos());
            if !self.dead[run.dst] {
                let last_at = at + run.period * (due - 1);
                self.devices[run.dst].apply_shadow(run.src, run.value, last_at, due);
            }
            if due < run.count {
                let rest = ShadowRun { count: run.count - due, ..run };
                self.queue_shadow_run(at + run.period * due, rest);
            }
        }
    }

    /// The earliest pending instant strictly after `t` across devices and
    /// in-flight traffic — lets blocking host calls jump virtual time. Every
    /// calendar is filtered on its own, so one that its owner has not
    /// drained to `t` hides nothing but its own later entries: call after
    /// [`Cluster::advance`]`(t)`, which drains all but the host-facing
    /// completion queues.
    pub fn next_event_after(&self, t: SimTime) -> Option<SimTime> {
        let deliveries = [self.mirrors.next_time(), self.shadows.next_time()];
        let updates = self.devices.iter().map(|d| d.transport().next_update_at());
        let traffic = deliveries.into_iter().chain(updates).flatten().filter(|at| *at > t).min();
        self.devices.iter().fold(traffic, |next, d| SimTime::earliest(next, d.next_event_after(t)))
    }

    /// A lower bound on the instant device `dev`'s policy-combined credit
    /// can first cover `target`, for a cluster advanced to `t` where it does
    /// not yet: each credit source's own bound — already there counts as
    /// `t` — combined by the rule that combines the counters
    /// ([`crate::transport::TransportModule::combine`]). Strictly after `t`;
    /// `None` when a source the policy waits for has nothing in flight that
    /// could get it there.
    pub fn next_credit_event_after(
        &self,
        dev: DeviceIndex,
        target: u64,
        t: SimTime,
    ) -> Option<SimTime> {
        // `Reverse`: a source is further along the *sooner* it gets there,
        // and `None` (never) is behind every instant.
        let sooner = |at: Option<SimTime>| at.map(|at| Reverse(at.max(t)));
        let d = &self.devices[dev];
        let local = sooner(d.credit_reaches(target));
        let bound = d.transport().combine(d.config().replication, local, |src| {
            sooner(self.shadow_reaches(dev, src, target, t))
        });
        let Reverse(at) = bound?;
        debug_assert!(at > t, "credit wait at {t}: bound {at} — not advanced, or already covered");
        Some(at)
    }

    /// A lower bound on when `primary`'s shadow of secondary `src` reaches
    /// `target`, in the order the update travels backwards: it is there; a
    /// queued run already carries it (its delivery); the secondary's own
    /// counter has a drain scheduled to reach it (the first update cycle at
    /// or after that drain); a mirror or a mirror retry is still on its way
    /// to the secondary (its delivery). Otherwise never.
    fn shadow_reaches(
        &self,
        primary: DeviceIndex,
        src: DeviceIndex,
        target: u64,
        t: SimTime,
    ) -> Option<SimTime> {
        if self.devices[primary].transport().shadow_of(src) >= Some(target) {
            return Some(t);
        }
        if self.dead[src] {
            return None;
        }
        // Walks of both queues: a handful of entries each (a few runs per
        // secondary, a mirror per secondary per write in flight —
        // docs/perf-log/PR-21.md has the measured lengths).
        let carried = self
            .shadows
            .iter()
            .filter(|(_, run)| run.src == src && run.dst == primary && run.value >= target)
            .map(|(at, _)| at)
            .min();
        if carried.is_some() {
            return carried;
        }
        let secondary = &self.devices[src];
        match secondary.credit_reaches(target) {
            Some(drained) => secondary.transport().next_update_at_or_after(drained),
            None => self.mirrors.iter().filter(|(_, m)| m.dst == src).map(|(at, _)| at).min(),
        }
    }

    /// Put a caller blocked on `dev`'s credit counter to sleep: from a
    /// cluster standing at `at`, drive it to each instant the counter could
    /// first cover `target` ([`Cluster::next_credit_event_after`] — a lower
    /// bound, so no wake overshoots) until it does, and return that instant.
    /// The sleeper issues no MMIO; each wake counts in
    /// `core.fast.fsync_wakes`. `None` when the counter can never get there.
    pub fn sleep_until_credit(
        &mut self,
        dev: DeviceIndex,
        target: u64,
        mut at: SimTime,
    ) -> Option<SimTime> {
        while self.devices[dev].observed_credit(at) < target {
            at = self.next_credit_event_after(dev, target, at)?;
            self.advance(at);
            self.devices[dev].fsync_wakes += 1;
        }
        Some(at)
    }

    /// Crash device `dev` (sudden power loss). Other devices keep running;
    /// in-flight traffic to/from the crashed device is dropped.
    pub fn power_fail(&mut self, dev: DeviceIndex, now: SimTime) -> CrashReport {
        self.advance(now);
        // Drop traffic addressed to the dead device (its PCIe fabric is
        // gone); keep everything else.
        drop_addressed_to(&mut self.mirrors, dev, |m| m.dst);
        drop_addressed_to(&mut self.shadows, dev, |r| r.dst);
        self.dead[dev] = true;
        self.devices[dev].power_fail(now)
    }

    /// Bring a crashed device back online (rebooted, stand-alone). Its
    /// durable state survived; roles must be reconfigured via vendor
    /// commands.
    pub fn reboot_device(&mut self, dev: DeviceIndex) {
        self.dead[dev] = false;
    }

    /// Arm the whole cluster from a [`FaultPlan`]: each device gets
    /// independently forked flash and transport fault streams (the device
    /// index salts the fork, so one device's fault draws never perturb
    /// another's). Inactive layers are skipped entirely — a disabled plan
    /// arms nothing and the simulation timeline is byte-identical to an
    /// unarmed run.
    pub fn arm_faults(&mut self, plan: &FaultPlan) {
        for (i, d) in self.devices.iter_mut().enumerate() {
            if plan.flash.is_active() {
                let mut base = plan.rng_for(simkit::faults::site::FLASH_READ);
                d.arm_flash_faults(plan.flash, base.fork(i as u64));
            }
            if plan.transport.is_active() {
                let mut base = plan.rng_for(simkit::faults::site::NTB_TLP);
                d.arm_transport_faults(plan.transport, base.fork(i as u64));
            }
        }
    }

    /// Park device `dev`'s outgoing transport flows during `window` (link
    /// retrain). Schedule after replication roles are configured.
    pub fn schedule_link_down(&mut self, dev: DeviceIndex, window: simkit::faults::LinkDownWindow) {
        self.devices[dev].schedule_link_down(window);
    }

    /// Re-synchronise a rebooted (stand-alone) secondary from the
    /// primary's surviving log copy: bytes `[target tail, primary tail)`
    /// are read back on the primary — destaged pages through its
    /// conventional side, the live tail straight from its CMB ring — and
    /// streamed into the target's intake under the normal flow-control
    /// window. Returns the instant the last chunk was accepted; the caller
    /// then reconfigures replication roles via
    /// [`Cluster::configure_replication`].
    pub fn resync_secondary(
        &mut self,
        now: SimTime,
        primary: DeviceIndex,
        target: DeviceIndex,
    ) -> SimTime {
        assert_ne!(primary, target, "cannot resync a device from itself");
        assert!(!self.dead[target], "reboot the target before resync");
        self.advance(now);
        let mut t = now;
        let upto = self.devices[primary].log_tail();
        let mut cursor = self.devices[target].log_tail();
        let chunk_cap = (self.devices[target].intake_queue_bytes() / 2).max(64);
        let mut waits = 0u64;
        while cursor < upto {
            // Three zones on the primary: `[.., persisted)` is readable
            // from the destage ring segments, `[ring_from, tail)` still
            // sits in the CMB ring, and `[persisted, ring_from)` is riding
            // in-flight destage writes (the CMB head advances at destage
            // *submission*, so those bytes are momentarily in neither) —
            // for that zone, advance the simulation until the writes land.
            let persisted = self.devices[primary].destaged_upto();
            let ring_from = self.devices[primary].log_head();
            let want = chunk_cap.min(upto - cursor) as usize;
            let chunk = if cursor < persisted {
                let take = want.min((persisted - cursor) as usize);
                let (ready, bytes) =
                    self.devices[primary].read_destaged(t, 0, cursor, take).unwrap_or_else(|| {
                        panic!(
                            "resync range [{cursor}, {}) fell off the primary's destage ring \
                             (persisted {persisted}, tail {upto})",
                            cursor + take as u64
                        )
                    });
                t = t.max(ready);
                bytes
            } else if cursor >= ring_from {
                self.devices[primary].log_content(cursor, want)
            } else {
                // In-flight destage: wait for the conventional side to
                // retire the write, then re-evaluate the zones.
                waits += 1;
                assert!(
                    waits < 1_000_000,
                    "resync stuck waiting for the primary's destage: cursor {cursor}, \
                     persisted {persisted}, cmb head {ring_from}, tail {upto}, at {t}"
                );
                self.advance(t);
                let Some(next) = self.next_event_after(t) else {
                    panic!(
                        "resync stalled: nothing pending at {t} while [{persisted}, {ring_from}) \
                         of the primary's log rides in-flight destage writes"
                    )
                };
                t = next;
                self.advance(t);
                continue;
            };
            t = self.deliver_chunk(target, t, cursor, &chunk);
            cursor += chunk.len() as u64;
        }
        self.advance(t);
        t
    }

    /// Offer `chunk` to `target`'s intake at log `offset`, starting
    /// at `t`. While the intake is saturated or the ring full, sleep until
    /// the cluster's next event and offer it again — the transport's normal
    /// back-pressure path; an overlap means the bytes were already
    /// delivered. Returns the instant the chunk was accepted.
    fn deliver_chunk(
        &mut self,
        target: DeviceIndex,
        mut t: SimTime,
        offset: u64,
        chunk: &[u8],
    ) -> SimTime {
        loop {
            // (One arrival the size of the chunk: a resync models no wire.)
            let whole = [TlpRun { first: t, period: SimDuration::ZERO, count: 1 }];
            match self.devices[target].receive_mirror(offset, chunk, chunk.len() as u64, &whole) {
                Ok(()) | Err(CmbError::Overlap { .. }) => return t,
                Err(_) => {
                    self.advance(t);
                    let Some(next) = self.next_event_after(t) else {
                        panic!("delivery of [{offset}, +{}) stalled at {t}", chunk.len())
                    };
                    t = next;
                    self.advance(t);
                }
            }
        }
    }

    /// Whether a device is currently powered off.
    pub fn is_dead(&self, dev: DeviceIndex) -> bool {
        self.dead[dev]
    }
}

impl simkit::Instrument for Cluster {
    /// A single-device cluster reports at the scope root (the common case:
    /// paths stay `pcie.*`/`ssd.*`/`flash.*`/`core.*`); multi-device
    /// clusters prefix each device with `dev<i>`.
    fn instrument(&self, out: &mut simkit::Scope<'_>) {
        if self.devices.len() == 1 {
            self.devices[0].instrument(out);
        } else {
            for (i, dev) in self.devices.iter().enumerate() {
                out.collect(&format!("dev{i}"), dev);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CmbConfig, VillarsConfig};

    fn two_node_cluster() -> (Cluster, SimTime) {
        let mut cl = Cluster::new();
        let p = cl.add_device(VillarsConfig::small());
        let s = cl.add_device(VillarsConfig::small());
        assert_eq!((p, s), (0, 1));
        let t = cl.configure_replication(SimTime::ZERO, 0, &[1]);
        (cl, t)
    }

    #[test]
    fn replication_setup_via_vendor_commands() {
        let (cl, t) = two_node_cluster();
        assert!(cl.device(0).is_primary());
        assert!(matches!(
            cl.device(1).transport().role(),
            crate::transport::Role::Secondary { primary: 0 }
        ));
        assert!(t > SimTime::ZERO);
    }

    #[test]
    fn unknown_vendor_opcode_rejected() {
        let mut cl = Cluster::new();
        cl.add_device(VillarsConfig::small());
        let (_t, e) = cl.vendor_blocking(0, SimTime::ZERO, VendorCommand::new(0xFF, [0; 6]));
        assert_eq!(e.status, Status::InvalidOpcode);
    }

    #[test]
    fn mirrored_write_reaches_secondary_cmb() {
        let (mut cl, t0) = two_node_cluster();
        let data = vec![0x5A; 256];
        let (_, t1) = cl
            .fast_write(0, t0, 0, &data, MmioMode::WriteCombining)
            .expect("fast write rejected on device 0");
        // Let the mirror fly and the secondary drain.
        cl.advance(t1 + SimDuration::from_micros(50));
        let sec_credit = cl.device_mut(1).local_credit(t1 + SimDuration::from_micros(50));
        assert_eq!(sec_credit, 256, "secondary persisted the mirrored bytes");
    }

    #[test]
    fn eager_credit_waits_for_secondary() {
        let (mut cl, t0) = two_node_cluster();
        let data = vec![1u8; 512];
        let (_, t1) = cl
            .fast_write(0, t0, 0, &data, MmioMode::WriteCombining)
            .expect("fast write rejected on device 0");
        // Immediately after the local write: primary has persisted locally
        // but no shadow update has arrived yet -> eager credit is 0.
        let (t2, credit) = cl.read_credit(0, t1);
        assert_eq!(credit, 0, "eager counter lags until the secondary reports");
        // After mirror + drain + shadow update cycle, the counter catches up.
        let mut now = t2;
        let mut final_credit = 0;
        for _ in 0..200 {
            cl.advance(now);
            let (_, c) = cl.read_credit(0, now);
            final_credit = c;
            if c >= 512 {
                break;
            }
            now = cl.next_event_after(now).expect("the secondary's next update cycle is pending");
        }
        assert_eq!(final_credit, 512);
    }

    #[test]
    fn standalone_device_needs_no_cluster_routing() {
        let mut cl = Cluster::new();
        cl.add_device(VillarsConfig::small());
        let (_, t) = cl
            .fast_write(0, SimTime::ZERO, 0, &[9u8; 64], MmioMode::WriteCombining)
            .expect("fast write rejected on device 0");
        cl.advance(t + SimDuration::from_micros(10));
        let (_t, c) = cl.read_credit(0, t + SimDuration::from_micros(10));
        assert_eq!(c, 64);
    }

    #[test]
    fn crashed_secondary_resyncs_from_primary_log() {
        let (mut cl, t0) = two_node_cluster();
        // Phase A: both copies receive the prefix.
        let (_, t1) = cl
            .fast_write(0, t0, 0, &[0xA1; 256], MmioMode::WriteCombining)
            .expect("fast write rejected on device 0");
        cl.advance(t1 + SimDuration::from_micros(50));
        // Crash the secondary, then keep writing on the (now degraded)
        // primary: these bytes exist only on device 0.
        let crash_at = t1 + SimDuration::from_micros(50);
        cl.power_fail(1, crash_at);
        let (_, t2) = cl
            .fast_write(0, crash_at, 256, &[0xB2; 512], MmioMode::WriteCombining)
            .expect("fast write rejected on device 0");
        cl.advance(t2 + SimDuration::from_micros(50));
        // Reboot and resync: the secondary's log catches up to the
        // primary's tail, byte for byte.
        cl.reboot_device(1);
        let done = cl.resync_secondary(t2 + SimDuration::from_micros(50), 0, 1);
        assert_eq!(cl.device(1).log_tail(), cl.device(0).log_tail());
        // The re-shipped suffix is intact on the secondary.
        let settle = done + SimDuration::from_millis(2);
        cl.advance(settle);
        let credit = cl.device_mut(1).local_credit(settle);
        assert_eq!(credit, 768, "secondary persisted the full resynced log");
        assert_eq!(cl.device(1).log_tail(), cl.device(0).log_tail(), "tails after settle");
        // Roles can now be restored.
        let t3 = cl.configure_replication(settle, 0, &[1]);
        assert!(cl.device(0).is_primary());
        assert!(t3 > settle);
    }

    #[test]
    fn wait_surfaces_a_flush_on_an_idle_device() {
        let mut cl = Cluster::new();
        cl.add_device(VillarsConfig::small());
        let tag = cl.submit(0, SimTime::ZERO, CommandKind::Io(nvme::IoCommand::Flush));
        let done = cl.wait_for_completion(0, SimTime::ZERO, tag);
        assert!(done.entry.status.is_ok());
    }

    #[test]
    fn power_fail_drops_in_flight_traffic_to_dead_device() {
        let (mut cl, t0) = two_node_cluster();
        // Write, creating an in-flight mirror to device 1, then crash 1.
        let (_, t1) = cl
            .fast_write(0, t0, 0, &[7u8; 128], MmioMode::WriteCombining)
            .expect("fast write rejected on device 0");
        let report = cl.power_fail(1, t1);
        // The secondary had nothing durable yet (mirror still in flight).
        assert_eq!(report.durable_upto, [0]);
        // The cluster keeps running for the primary.
        cl.advance(t1 + SimDuration::from_micros(100));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(
        expected = "Cluster: primary 0's shadow of secondary 1 is Some(4096), past its settled \
                    credit 256"
    )]
    fn a_shadow_past_the_secondarys_credit_breaks_the_replication_invariant() {
        let (mut cl, t0) = two_node_cluster();
        let (_, t1) = cl
            .fast_write(0, t0, 0, &[3u8; 256], MmioMode::WriteCombining)
            .expect("fast write rejected on device 0");
        let settled = t1 + SimDuration::from_micros(50);
        cl.advance(settled);
        assert_eq!(cl.device_mut(1).local_credit(settled), 256);
        // A test-only corruption: a report the secondary never sent.
        cl.device_mut(0).apply_shadow(1, 4096, settled, 1);
        cl.advance(settled + SimDuration::from_micros(1));
    }

    // ---- shadow runs against the per-cycle reference ---------------------
    //
    // The reference is the same cluster with `per_cycle_reference` set: one
    // queue entry per update cycle through `NtbPort::forward`, every
    // delivery an emission barrier and landed in time order — the loop as
    // it was before updates travelled as runs. Each script below drives a
    // cluster through the public calls and records what a host can see
    // after every step; both clusters must produce the same record.

    use crate::config::ReplicationPolicy;
    use crate::transport::TransportStatus;
    use simkit::faults::{FlashFaultConfig, LinkDownWindow, TransportFaultConfig};
    use simkit::{DetRng, MetricsRegistry};

    /// One observation: label, instant, the policy-combined credit read,
    /// the cluster's next event, the primary's transport status.
    type Obs = (&'static str, SimTime, (SimTime, u64), Option<SimTime>, TransportStatus);

    struct Script<'a> {
        cl: &'a mut Cluster,
        primary: DeviceIndex,
        log: Vec<Obs>,
        offset: u64,
    }

    /// Advance `cl` to `now`, record everything observable there, and
    /// return the cluster's next event.
    fn observe_into(
        log: &mut Vec<Obs>,
        cl: &mut Cluster,
        primary: DeviceIndex,
        label: &'static str,
        now: SimTime,
    ) -> SimTime {
        cl.advance(now);
        let read = cl.read_credit(primary, now);
        let next = cl.next_event_after(now);
        let status = cl.device(primary).transport().status_at(now);
        log.push((label, now, read, next, status));
        next.expect("a replicated cluster has an event pending")
    }

    impl Script<'_> {
        fn observe(&mut self, label: &'static str, now: SimTime) -> SimTime {
            observe_into(&mut self.log, self.cl, self.primary, label, now)
        }

        /// `steps` observations, each at the cluster's own next event: the
        /// horizons land exactly on deliveries, drain completions and
        /// update cycles.
        fn follow_events(
            &mut self,
            label: &'static str,
            mut now: SimTime,
            steps: usize,
        ) -> SimTime {
            for _ in 0..steps {
                now = self.observe(label, now);
            }
            now
        }

        /// Observations at fixed strides, so horizons cut runs anywhere.
        fn stride(&mut self, label: &'static str, mut now: SimTime, strides_ns: &[u64]) -> SimTime {
            for &ns in strides_ns {
                now += SimDuration::from_nanos(ns);
                self.observe(label, now);
            }
            now
        }

        fn write(&mut self, now: SimTime, len: usize) -> SimTime {
            let data = vec![(self.offset % 251) as u8; len];
            match self.cl.fast_write(
                self.primary,
                now,
                self.offset,
                &data,
                MmioMode::WriteCombining,
            ) {
                Ok((_, arrived)) => {
                    self.offset += len as u64;
                    arrived
                }
                // Intake saturated / ring full: drain and retry later.
                Err(_) => now + SimDuration::from_micros(2),
            }
        }
    }

    /// Run `script` on a cluster and on its per-cycle reference; both must
    /// leave the same observations and the same telemetry. Returns the
    /// (runs, reference) queue-insertion counts.
    fn assert_matches_reference(
        name: &str,
        script: impl Fn(&mut Cluster) -> Vec<Obs>,
    ) -> (u64, u64) {
        let telemetry = |cl: &Cluster| {
            let mut reg = MetricsRegistry::new();
            reg.collect("cluster", cl);
            reg.snapshot().metrics_json().to_string()
        };
        let mut runs = Cluster::new();
        let mut reference = Cluster { per_cycle_reference: true, ..Cluster::new() };
        let (got, want) = (script(&mut runs), script(&mut reference));
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g, w, "{name}: observation {i} differs from the per-cycle reference");
        }
        assert_eq!(got.len(), want.len(), "{name}: observation counts differ");
        assert_eq!(telemetry(&runs), telemetry(&reference), "{name}: telemetry differs");
        assert_eq!(runs.next_delivery(), reference.next_delivery(), "{name}: queue frontier");
        (runs.shadow_runs_queued(), reference.shadow_runs_queued())
    }

    fn replicated(cl: &mut Cluster, secondaries: usize) -> (Script<'_>, SimTime) {
        replicated_on(cl, secondaries, CmbConfig::sram())
    }

    /// A primary on SRAM and `secondaries` secondaries on `backing`.
    fn replicated_on(
        cl: &mut Cluster,
        secondaries: usize,
        backing: CmbConfig,
    ) -> (Script<'_>, SimTime) {
        let small = VillarsConfig::small();
        cl.add_device(small.clone());
        for _ in 0..secondaries {
            let cmb = CmbConfig { backing: backing.backing, ..small.cmb };
            cl.add_device(VillarsConfig { cmb, ..small.clone() });
        }
        let secs: Vec<usize> = (1..=secondaries).collect();
        let t = cl.configure_replication(SimTime::ZERO, 0, &secs);
        (Script { cl, primary: 0, log: Vec::new(), offset: 0 }, t)
    }

    /// Writes of mixed sizes, each followed by event-following and strided
    /// horizons.
    fn steady_traffic(s: &mut Script<'_>, mut now: SimTime, writes: usize) -> SimTime {
        for i in 0..writes {
            now = s.write(now, 64 + 448 * (i % 5));
            now = s.follow_events("follow", now, 6);
            now = s.stride("stride", now, &[1, 333, 799, 800, 801, 2_900, 17_000]);
        }
        now
    }

    #[test]
    fn runs_match_the_reference_on_steady_traffic() {
        let (runs, reference) = assert_matches_reference("steady", |cl| {
            let (mut s, t) = replicated(cl, 2);
            let now = steady_traffic(&mut s, t, 12);
            s.observe("settle", now + SimDuration::from_millis(1));
            s.log
        });
        assert!(runs * 4 < reference, "{runs} runs queued for {reference} updates");
    }

    #[test]
    fn runs_match_the_reference_on_exact_delivery_and_drain_horizons() {
        assert_matches_reference("exact horizons", |cl| {
            // A DRAM-backed secondary: an 80 ns drain per TLP against 44 ns
            // landings, so the drains queue (one run of them, back to back)
            // and the last drain ends some 2 us
            // after the last TLP landed — update cycles fall inside it.
            let (mut s, t) = replicated_on(cl, 1, CmbConfig::dram());
            let mut now = t;
            for round in 0..6 {
                let arrived = s.write(now, 4 << 10);
                let mirror_at = s.cl.mirrors.next_time().expect("a mirror is in flight");
                assert!(mirror_at > arrived);
                s.observe("before mirror", mirror_at - SimDuration::from_nanos(1));
                s.observe("at mirror", mirror_at);
                let credit_before = s.cl.device_mut(1).local_credit(mirror_at);
                assert!(credit_before < s.offset, "drains still queued behind the last TLP");
                let drain_at = s.cl.device(1).credit_reaches(s.offset).expect("drains pending");
                // Re-time the secondary so its cycle after next falls
                // exactly on the last drain's completion: that cycle must
                // already report the whole write.
                let cycle = s.cl.device(1).transport().next_update_at().expect("secondary");
                assert!(cycle > mirror_at && cycle < drain_at);
                s.cl.device_mut(1).transport_mut().set_shadow_period(drain_at - cycle);
                // (On odd rounds one horizon spans both cycles.)
                if round % 2 == 0 {
                    s.observe("before drain", drain_at - SimDuration::from_nanos(1));
                }
                s.observe("at drain", drain_at);
                assert_eq!(s.cl.device_mut(1).local_credit(drain_at), s.offset);
                let shadow_at = s.cl.shadows.next_time().expect("updates in flight");
                s.observe("at shadow", shadow_at);
                s.observe("after shadow", shadow_at + SimDuration::from_nanos(1));
                now = s.follow_events("follow", shadow_at + SimDuration::from_nanos(2), 8);
                s.cl.device_mut(1).transport_mut().set_shadow_period(SimDuration::from_nanos(800));
                now = s.stride("stride", now, &[30_000]);
            }
            assert_eq!(s.cl.device(1).cmb_stats().bytes_in, s.offset, "every TLP taken once");
            s.log
        });
    }

    #[test]
    fn runs_match_the_reference_with_faults_and_link_outages() {
        let (runs, reference) = assert_matches_reference("tlp_drop 0.3", |cl| {
            let (mut s, t) = replicated(cl, 2);
            s.cl.arm_faults(&FaultPlan {
                seed: 0xD80F,
                transport: TransportFaultConfig {
                    tlp_drop: 0.3,
                    replay_timeout: SimDuration::from_micros(10),
                },
                ..FaultPlan::disabled()
            });
            let now = steady_traffic(&mut s, t, 8);
            s.observe("settle", now + SimDuration::from_millis(1));
            s.log
        });
        assert_eq!(runs, reference, "an armed wire takes one update at a time");

        // An outage on one secondary's flows, scheduled while earlier runs
        // are still in flight: the window cuts across them.
        assert_matches_reference("link-down", |cl| {
            let (mut s, t) = replicated(cl, 2);
            let now = steady_traffic(&mut s, t, 3);
            assert!(!s.cl.shadows.is_empty(), "runs in flight");
            let from = now + SimDuration::from_micros(3);
            let window = LinkDownWindow { from, until: from + SimDuration::from_micros(40) };
            s.cl.schedule_link_down(1, window);
            s.cl.schedule_link_down(0, window);
            let now = steady_traffic(&mut s, now, 6);
            s.observe("settle", now + SimDuration::from_millis(1));
            s.log
        });
    }

    #[test]
    fn runs_match_the_reference_when_the_wire_refuses_them() {
        // A 5 ns update period is below one counter TLP's 9 ns on the wire:
        // updates queue behind each other and `send_periodic` refuses.
        let (runs, reference) = assert_matches_reference("5 ns period", |cl| {
            let (mut s, t) = replicated(cl, 1);
            let (t, e) = s.cl.vendor_blocking(
                1,
                t,
                VendorCommand::new(vendor::SET_SHADOW_PERIOD, [5, 0, 0, 0, 0, 0]),
            );
            assert_eq!(e.status, Status::Success);
            let mut now = t;
            for _ in 0..3 {
                now = s.write(now, 256);
                now = s.follow_events("follow", now, 4);
                now = s.stride("stride", now, &[7, 50, 1_300]);
            }
            // Back to a period the wire can take, with the backlog draining.
            let (t, _) = s.cl.vendor_blocking(
                1,
                now,
                VendorCommand::new(vendor::SET_SHADOW_PERIOD, [400, 0, 0, 0, 0, 0]),
            );
            let now = steady_traffic(&mut s, t, 3);
            s.observe("settle", now + SimDuration::from_micros(200));
            s.log
        });
        assert!(runs < reference);
    }

    #[test]
    fn runs_match_the_reference_across_a_long_idle_gap() {
        // 20 ms is 25 000 update periods. `catch_up_shadow_clock` skips all
        // but the last 10 000 of an idle stretch, measured up to the first
        // pending delivery of either kind, not up to the horizon: with
        // anything in flight — and a live secondary always has updates in
        // flight — every cycle is emitted.
        let gap = SimDuration::from_millis(20);
        let (runs, reference) = assert_matches_reference("idle gap", |cl| {
            let (mut s, t) = replicated(cl, 2);
            let sent = |s: &Script<'_>| s.cl.device(1).transport().stats().shadow_updates_sent;
            // (The jump starts up to two cycles past the last horizon.)
            let every_cycle = 25_000..=25_002;
            let now = steady_traffic(&mut s, t, 2);
            // A mirror and runs in flight, then jump.
            let now = s.write(now, 1024);
            assert!(s.cl.mirrors.next_time().is_some() && s.cl.shadows.next_time().is_some());
            let before = sent(&s);
            let now = s.observe("jump", now + gap);
            assert!(every_cycle.contains(&(sent(&s) - before)), "{}", sent(&s) - before);
            // Only runs in flight.
            let now = s.follow_events("follow", now, 4);
            assert!(s.cl.mirrors.is_empty() && s.cl.shadows.next_time().is_some());
            let before = sent(&s);
            let now = s.observe("jump", now + gap);
            assert!(every_cycle.contains(&(sent(&s) - before)), "{}", sent(&s) - before);
            let now = steady_traffic(&mut s, now, 2);
            // Nothing in flight (the primary is gone, its traffic dropped):
            // the secondaries skip ahead.
            s.cl.power_fail(0, now);
            assert_eq!(s.cl.next_delivery(), None);
            let before = sent(&s);
            s.cl.advance(now + gap);
            assert!((10_000..=10_001).contains(&(sent(&s) - before)), "{}", sent(&s) - before);
            s.log
        });
        assert!(reference > 100_000 && runs < 1_000, "{runs} runs, {reference} updates");
    }

    #[test]
    fn runs_match_the_reference_across_power_failures() {
        assert_matches_reference("secondary dies, rejoins", |cl| {
            let (mut s, t) = replicated(cl, 2);
            let now = steady_traffic(&mut s, t, 3);
            let now = s.write(now, 768);
            assert!(!s.cl.shadows.is_empty(), "runs in flight at the crash");
            s.cl.power_fail(2, now + SimDuration::from_nanos(700));
            let now = steady_traffic(&mut s, now + SimDuration::from_micros(1), 3);
            s.cl.reboot_device(2);
            let now = s.cl.resync_secondary(now, 0, 2);
            let now = s.cl.configure_replication(now, 0, &[1, 2]);
            let now = steady_traffic(&mut s, now, 3);
            s.observe("settle", now + SimDuration::from_millis(1));
            s.log
        });
        assert_matches_reference("primary dies", |cl| {
            let (mut s, t) = replicated(cl, 2);
            let now = steady_traffic(&mut s, t, 3);
            let now = s.write(now, 768);
            assert!(!s.cl.shadows.is_empty(), "runs in flight at the crash");
            s.cl.power_fail(0, now + SimDuration::from_nanos(700));
            // The secondaries keep reporting into a dead fabric.
            let mut now = now;
            for stride in [900, 5_000, 40_000] {
                now += SimDuration::from_nanos(stride);
                s.cl.advance(now);
                assert!(s.cl.shadows.is_empty(), "updates for a dead primary are dropped");
            }
            // Promote the first secondary.
            s.primary = 1;
            s.offset = s.cl.device(1).log_tail();
            let now = s.cl.configure_replication(now, 1, &[2]);
            let now = steady_traffic(&mut s, now, 3);
            s.observe("settle", now + SimDuration::from_millis(1));
            s.log
        });
    }

    // ---- the mirror flow against the per-TLP walk --------------------------
    //
    // The same reference flag makes a primary forward every TLP of a write
    // on its own (`NtbPort::forward_stream` with one TLP) and a secondary
    // take every TLP in through `CmbModule::ingest` — so every script above
    // also holds the cut-through runs against that walk, by what a host can
    // see. This one compares what it cannot: where each TLP lands.

    /// Each TLP's landing instant, from a queued mirror's runs.
    fn landings_of(m: &MirrorWrite) -> Vec<SimTime> {
        m.landings.iter().flat_map(|r| (0..r.count).map(|k| r.first + r.period * k)).collect()
    }

    #[test]
    fn mirror_runs_land_every_tlp_where_the_walk_does() {
        let (mut as_runs, mut walked) = (0, 0);
        for (armed, busy) in [(false, false), (false, true), (true, false), (true, true)] {
            let what = format!("faults {armed}, busy flow {busy}");
            let build = |reference: bool| {
                let mut cl = Cluster { per_cycle_reference: reference, ..Cluster::new() };
                let mut config = VillarsConfig::small();
                // One fast_write takes 16 KiB; no script fills the ring.
                config.cmb =
                    CmbConfig { size: 256 << 10, intake_queue_bytes: 32 << 10, ..config.cmb };
                for _ in 0..3 {
                    cl.add_device(config.clone());
                }
                let t = cl.configure_replication(SimTime::ZERO, 0, &[1, 2]);
                if armed {
                    cl.arm_faults(&FaultPlan {
                        seed: 0x3A11,
                        transport: TransportFaultConfig {
                            tlp_drop: 0.15,
                            replay_timeout: SimDuration::from_micros(10),
                        },
                        ..FaultPlan::disabled()
                    });
                }
                (cl, t)
            };
            let ((mut runs, t), (mut walk, _)) = (build(false), build(true));
            let mut rng = DetRng::new(0x7195 + u64::from(armed) * 2 + u64::from(busy));
            let (mut now, mut offset) = (t, 0u64);
            for i in 0..120 {
                // 8 B – 16 KiB in 8 B steps: lone partials, whole TLPs, both.
                let len = 8 * match rng.uniform(0, 3) {
                    0 => rng.uniform(1, 16),
                    1 => 8 * rng.uniform(1, 256),
                    _ => rng.uniform(1, 2048),
                };
                let mode = if len <= 256 && rng.chance(0.3) {
                    MmioMode::Uncached
                } else {
                    MmioMode::WriteCombining
                };
                let data: Vec<u8> = (0..len).map(|b| (b * 7 + i) as u8).collect();
                let mut issued = now;
                for cl in [&mut runs, &mut walk] {
                    cl.advance(now);
                    (issued, _) = cl.fast_write(0, now, offset, &data, mode).expect("fast_write");
                }
                let mut delivered = now;
                for dst in [1, 2] {
                    let queued = |cl: &Cluster| {
                        let mut at =
                            cl.mirrors.iter().filter(|(_, m)| m.dst == dst && m.offset == offset);
                        let (key, m) = at.next().expect("one entry per write per secondary");
                        assert!(at.next().is_none(), "{what}: a second entry for write {i}");
                        (key, m.landings.len(), landings_of(m))
                    };
                    let (got, want) = (queued(&runs), queued(&walk));
                    assert_eq!(
                        (got.0, &got.2),
                        (want.0, &want.2),
                        "{what}: write {i} ({len} B) to {dst}"
                    );
                    assert_eq!(
                        got.0,
                        *got.2.last().expect("non-empty"),
                        "keyed at the last landing"
                    );
                    let unit = if mode == MmioMode::Uncached { 8 } else { 64 };
                    assert_eq!(want.1 as u64, len.div_ceil(unit), "the walk forwards TLP by TLP");
                    as_runs += u64::from(got.1 < want.1);
                    walked += u64::from(got.1 > 2);
                    delivered = delivered.max(got.0);
                }
                offset += len;
                // Back to back on the host link, or from the delivery up to
                // 30 us later — there the drains it scheduled are still
                // pending: the same instants, to the nanosecond.
                now = issued;
                if !busy {
                    let scheduled = |cl: &mut Cluster| {
                        cl.advance(delivered);
                        [1, 2].map(|d| {
                            [offset, offset - len.min(64), offset - len / 2]
                                .map(|target| cl.device(d).credit_reaches(target))
                        })
                    };
                    let drains = scheduled(&mut runs);
                    assert_eq!(drains, scheduled(&mut walk), "{what}: drains of write {i}");
                    assert!(drains.iter().any(|d| d[0] > Some(delivered)), "{what}: all settled");
                    now = delivered + SimDuration::from_nanos(rng.uniform(0, 30_000));
                }
                // Where the secondaries stand mid-stream (a target whose
                // write has not been delivered has no instant in either).
                let target = rng.uniform(offset.saturating_sub(40_000), offset);
                let mid_stream = |cl: &mut Cluster| {
                    cl.advance(now);
                    [1, 2].map(|d| {
                        let credit = cl.device_mut(d).local_credit(now);
                        (credit, cl.device(d).credit_reaches(target), cl.device(d).log_tail())
                    })
                };
                assert_eq!(mid_stream(&mut runs), mid_stream(&mut walk), "{what}: after write {i}");
            }
            let end = now + SimDuration::from_millis(1);
            let state = |cl: &mut Cluster| {
                cl.advance(end);
                let mut reg = MetricsRegistry::new();
                reg.collect("cluster", &*cl);
                let secondaries: Vec<_> = [1, 2]
                    .map(|d| {
                        let dev = cl.device_mut(d);
                        let credit = dev.local_credit(end);
                        let stats = dev.cmb_stats();
                        let head = dev.log_head();
                        let live = dev.log_content(head, (dev.log_tail() - head) as usize);
                        (credit, dev.log_tail(), stats.chunks, stats.queue_high_water, live)
                    })
                    .into_iter()
                    .collect();
                (secondaries, reg.snapshot().metrics_json().to_string())
            };
            let (got, want) = (state(&mut runs), state(&mut walk));
            assert_eq!(got.0, want.0, "{what}: secondary logs");
            assert_eq!(got.1, want.1, "{what}: telemetry (NTB busy_ns, forwarded_tlps, ...)");
            assert_eq!(got.0[0].0, offset, "{what}: the secondary holds the whole log");
        }
        assert!(
            as_runs > 300 && walked > 10,
            "{as_runs} writes forwarded as runs, {walked} walked"
        );
    }

    #[test]
    fn commits_are_durable_at_the_reference_instants() {
        // `x_pwrite` + `x_fsync` cycles, think times over every phase of the
        // update period: the credit-aware sleep must find the same wakes
        // whether updates wait in the queue as runs or one entry per cycle.
        let commits = |cl: &mut Cluster, secondaries: usize, tlp_drop: f64| {
            let (mut s, mut now) = replicated(cl, secondaries);
            if tlp_drop > 0.0 {
                s.cl.arm_faults(&FaultPlan {
                    seed: 0xF5C,
                    transport: TransportFaultConfig {
                        tlp_drop,
                        replay_timeout: SimDuration::from_micros(10),
                    },
                    ..FaultPlan::disabled()
                });
            }
            let mut file = crate::api::XLogFile::open(0);
            for i in 0..40u64 {
                // Up to 9 KiB: some writes exceed the 4 KiB window.
                let data = vec![i as u8; 64 + 1_500 * (i as usize % 7)];
                let t0 = now + SimDuration::from_nanos(i * 137 % 1_600);
                let t1 = file.x_pwrite(s.cl, t0, &data).expect("x_pwrite");
                now = file.x_fsync(s.cl, t1).expect("x_fsync");
                let status = s.cl.device(0).transport().status_at(now);
                s.log.push(("durable", now, (t1, file.written()), None, status));
            }
            s.log
        };
        assert_matches_reference("x_fsync, 2 secondaries", |cl| commits(cl, 2, 0.0));
        assert_matches_reference("x_fsync, 3 secondaries", |cl| commits(cl, 3, 0.0));
        assert_matches_reference("x_fsync, tlp_drop 0.2", |cl| commits(cl, 2, 0.2));
    }

    // `drive_random_scenario`: the `core/tests/cluster_scenarios.rs`
    // generator (2–8 devices, random periods and policies, random fault
    // plans, link outages, crash / reboot / resync arcs).
    include!("../tests/common/random_scenario.rs");

    #[test]
    fn runs_match_the_reference_on_random_topologies() {
        for seed in [0xA11CE_u64, 0xB0B, 0xCAFE, 0xD00D, 0xE66, 0xF00D, 0x5EED, 7, 42] {
            assert_matches_reference(&format!("seed {seed:#x}"), |cl| {
                let mut log = Vec::new();
                let (_, now) = drive_random_scenario(cl, seed, |cl, now| {
                    observe_into(&mut log, cl, 0, "follow", now)
                });
                observe_into(&mut log, cl, 0, "settle", now + SimDuration::from_millis(1));
                log
            });
        }
    }
}
