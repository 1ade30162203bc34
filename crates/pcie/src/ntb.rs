//! Non-Transparent Bridging between PCIe fabrics.
//!
//! NTB interconnects the PCIe systems of different hosts (paper §2.3): a
//! write landing in a local NTB window is address-translated and re-emitted
//! on the peer fabric. The paper chose NTB over RDMA because forwarding TLPs
//! "involves very little additional effort, mainly address translations and
//! sometimes minor formatting" — which is exactly what this model costs:
//! a per-hop latency plus serialization on the inter-host link, with a small
//! translation-prefix overhead per TLP.

use crate::link::{Generation, LaneWidth, LinkConfig, LinkStats, PcieLink};
use crate::tlp::{BusAddr, Tlp};
use simkit::faults::{FaultHook, LinkDownWindow, TransportFaultConfig};
use simkit::{DetRng, Grant, SimDuration, SimTime};

/// Identifies a host/fabric connected by NTB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HostId(pub u16);

/// One address-translation window: `[local_base, local_base+len)` on the
/// local fabric forwards to `[remote_base, ...)` on `remote_host`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TranslationWindow {
    /// Window base on the local fabric.
    pub local_base: BusAddr,
    /// Window length.
    pub len: u64,
    /// Peer fabric.
    pub remote_host: HostId,
    /// Base address on the peer fabric.
    pub remote_base: BusAddr,
}

impl TranslationWindow {
    /// Translate a local address to the peer fabric. Returns `None` if the
    /// address is outside the window.
    pub fn translate(&self, addr: BusAddr) -> Option<(HostId, BusAddr)> {
        if addr >= self.local_base && addr - self.local_base < self.len {
            Some((self.remote_host, self.remote_base + (addr - self.local_base)))
        } else {
            None
        }
    }
}

/// The inter-host link of one flow. The paper daisy-chains Dolphin PXH830
/// adapters (§6); the effective per-flow share is ×4 Gen3 (~3.9 GB/s),
/// the EXPERIMENTS.md calibration row "NTB hop".
pub const NTB_LINK: LinkConfig = LinkConfig {
    generation: Generation::Gen3,
    lanes: LaneWidth::X4,
    propagation: SimDuration::from_nanos(0),
};

/// One-way latency the bridge pair adds (translation + retimers): the
/// application-level latency of a daisy-chained NTB path — adapter, cable
/// and intermediate switch hops — the 1.4 µs of the EXPERIMENTS.md
/// calibration row "NTB hop".
const HOP_LATENCY: SimDuration = SimDuration::from_nanos(1_400);

/// Extra bytes prepended per forwarded TLP (translation prefix / "minor
/// formatting", paper §2.3).
const TRANSLATION_OVERHEAD_BYTES: u64 = 4;

/// A point-to-point NTB connection from a local fabric to one peer fabric.
///
/// Each secondary gets its own `NtbPort` on the primary (one mirror flow per
/// secondary, paper §4.2), so per-secondary pacing is independent. The
/// adapters could multicast one ingress TLP to several peers in hardware;
/// the paper's prototype does not ("for simplicity we chose not to use
/// it"), and neither does this model.
#[derive(Debug, Clone)]
pub struct NtbPort {
    peer: HostId,
    windows: Vec<TranslationWindow>,
    wire: PcieLink,
    forwarded_tlps: u64,
    /// Fault injection (None = inert, the default).
    faults: Option<NtbFaults>,
}

/// Armed transport-fault state for one port (see [`NtbPort::arm_faults`]).
#[derive(Debug, Clone)]
struct NtbFaults {
    cfg: TransportFaultConfig,
    drop: FaultHook,
    /// Scheduled outages; traffic entering a window is parked until the
    /// link retrains at the window end, then replayed.
    link_down: Vec<LinkDownWindow>,
    replays: u64,
    deferrals: u64,
}

/// Fault counters for one NTB port.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NtbFaultStats {
    /// TLPs (or bursts) dropped and replayed after the replay timer.
    pub replays: u64,
    /// TLPs (or bursts) parked by a link-down window until retrain.
    pub deferrals: u64,
}

impl NtbPort {
    /// Open a port towards `peer`.
    pub fn new(peer: HostId) -> Self {
        let wire = PcieLink::new(NTB_LINK);
        NtbPort { peer, windows: Vec::new(), wire, forwarded_tlps: 0, faults: None }
    }

    /// Arm deterministic transport-fault injection: each forwarded TLP (or
    /// burst) is dropped with probability `cfg.tlp_drop` and redelivered
    /// after the replay timer — the PCIe data-link layer's ACK/NAK replay,
    /// so a drop is pure latency, never loss. `rng` should be forked from
    /// the fault plan's master seed. The unarmed port makes zero draws and
    /// behaves bit-identically.
    pub fn arm_faults(&mut self, cfg: TransportFaultConfig, rng: DetRng) {
        self.faults = Some(NtbFaults {
            drop: FaultHook::armed(rng, cfg.tlp_drop),
            cfg,
            link_down: Vec::new(),
            replays: 0,
            deferrals: 0,
        });
    }

    /// Schedule a link outage: traffic entering `[window.from, window.until)`
    /// is parked until the link retrains at `window.until`, then replayed.
    /// Arms the fault layer (at zero drop rate) if it was not armed yet.
    pub fn schedule_link_down(&mut self, window: LinkDownWindow) {
        let f = self.faults.get_or_insert_with(|| NtbFaults {
            cfg: TransportFaultConfig::default(),
            drop: FaultHook::disabled(),
            link_down: Vec::new(),
            replays: 0,
            deferrals: 0,
        });
        f.link_down.push(window);
    }

    /// Fault counters (zero when never armed).
    pub fn fault_stats(&self) -> NtbFaultStats {
        self.faults
            .as_ref()
            .map(|f| NtbFaultStats { replays: f.replays, deferrals: f.deferrals })
            .unwrap_or_default()
    }

    /// Extra delivery delay the fault layer imposes on traffic entering at
    /// `now`: time parked in a link-down window, plus the replay timer if
    /// the drop hook fires. Zero (and zero draws) when unarmed.
    pub fn fault_delay(&mut self, now: SimTime) -> SimDuration {
        let Some(f) = self.faults.as_mut() else {
            return SimDuration::ZERO;
        };
        let mut extra = SimDuration::ZERO;
        if let Some(w) = f.link_down.iter().find(|w| w.contains(now)) {
            // Parked until retrain, then the TLP goes out.
            extra += w.until.saturating_since(now);
            f.deferrals += 1;
        }
        if f.drop.fire() {
            extra += f.cfg.replay_timeout;
            f.replays += 1;
        }
        extra
    }

    /// The peer this port reaches.
    pub fn peer(&self) -> HostId {
        self.peer
    }

    /// Add a translation window. Windows must target this port's peer.
    pub fn add_window(&mut self, w: TranslationWindow) {
        assert_eq!(w.remote_host, self.peer, "window targets a different peer");
        self.windows.push(w);
    }

    /// Translate a local address through this port's windows.
    pub fn translate(&self, addr: BusAddr) -> Option<BusAddr> {
        self.windows.iter().find_map(|w| w.translate(addr).map(|(_, a)| a))
    }

    /// Where a TLP lands on the peer fabric, given its window on the wire:
    /// the hop latency plus the translation prefix, charged here for all.
    fn landed(&self, g: Grant) -> Grant {
        let prefix = NTB_LINK.bandwidth().transfer_time(TRANSLATION_OVERHEAD_BYTES);
        Grant { start: g.start, end: g.end + HOP_LATENCY + prefix }
    }

    /// Forward one TLP to the peer. Returns the translated packet and the
    /// window whose `end` is when it has fully arrived on the peer fabric.
    ///
    /// Returns `None` if no window covers the address (the bridge drops it,
    /// as real NTBs do for unmapped traffic).
    pub fn forward(&mut self, now: SimTime, tlp: &Tlp) -> Option<(Tlp, Grant)> {
        let remote = Tlp { addr: self.translate(tlp.addr)?, ..*tlp };
        let fault = self.fault_delay(now);
        let g = self.wire.send(now + fault, &remote);
        self.forwarded_tlps += 1;
        Some((remote, self.landed(g)))
    }

    /// Forward `n` copies of `tlp`, one every `period` starting at `first`
    /// (the shadow-counter flow over a horizon). Returns the first copy's
    /// window as [`NtbPort::forward`] would; copy `k` arrives `k·period`
    /// later. `None`, with the port untouched and no fault draw made, when
    /// a fault layer is armed (drops and link-down windows are decided per
    /// TLP), when no window covers the address, or when the wire cannot
    /// take the run without queueing ([`PcieLink::send_periodic`]) — the
    /// caller then forwards one TLP at a time.
    pub fn forward_periodic(
        &mut self,
        first: SimTime,
        tlp: &Tlp,
        period: SimDuration,
        n: u64,
    ) -> Option<Grant> {
        if self.faults.is_some() {
            return None;
        }
        let remote = Tlp { addr: self.translate(tlp.addr)?, ..*tlp };
        let g = self.wire.send_periodic(first, &remote, period, n)?;
        self.forwarded_tlps += n;
        Some(self.landed(g))
    }

    /// Forward a stream of `n` write TLPs of `payload` bytes into the window
    /// containing `addr`, TLP `k` entering the bridge at `first + k·period`
    /// — a write mirrored as its TLPs arrive off the host link, or, with a
    /// zero period, a buffer shipped back to back. No fault decision here:
    /// the sender makes one per write ([`NtbPort::fault_delay`]) and shifts
    /// `first`. Returns the first TLP's window and the spacing of the
    /// landings: `period` on a wire idle by `first`, one TLP's wire time
    /// when they enter faster than it drains. `None`, the port untouched,
    /// for an unmapped address or when the wire is still busy at `first` and
    /// the arrivals catch up with it mid-stream (uneven landings): the
    /// sender forwards one TLP at a time — `n == 1` always goes through.
    pub fn forward_stream(
        &mut self,
        first: SimTime,
        addr: BusAddr,
        payload: u32,
        period: SimDuration,
        n: u64,
    ) -> Option<(Grant, SimDuration)> {
        let remote = Tlp::write(self.translate(addr)?, payload);
        let (arrival, service) = self.wire.peek_write_burst(first, payload);
        let (g, spacing) = if n == 1 || period <= service {
            let burst = self.wire.send_write_burst(first, payload, n);
            (Grant { start: burst.start, end: arrival }, service)
        } else {
            (self.wire.send_periodic(first, &remote, period, n)?, period)
        };
        self.forwarded_tlps += n;
        Some((self.landed(g), spacing))
    }

    /// Number of TLPs forwarded so far.
    pub fn forwarded_tlps(&self) -> u64 {
        self.forwarded_tlps
    }

    /// Traffic statistics of the inter-host wire.
    pub fn stats(&self) -> LinkStats {
        self.wire.stats()
    }

    /// Wire utilization over `[0, horizon]`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        self.wire.utilization(horizon)
    }
}

impl simkit::Instrument for NtbPort {
    fn instrument(&self, out: &mut simkit::Scope<'_>) {
        out.counter("forwarded_tlps", self.forwarded_tlps);
        let faults = self.fault_stats();
        out.counter("retry.tlp_replays", faults.replays);
        out.counter("fault.link_down_deferrals", faults.deferrals);
        self.wire.instrument(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn port() -> NtbPort {
        let mut p = NtbPort::new(HostId(1));
        p.add_window(TranslationWindow {
            local_base: 0x8000_0000,
            len: 1 << 20,
            remote_host: HostId(1),
            remote_base: 0x4000_0000,
        });
        p
    }

    /// `tlps` full WC buffers shipped back to back under one fault decision,
    /// as the mirror flow sends a write. Returns the last one's landing.
    fn ship(p: &mut NtbPort, now: SimTime, tlps: u64) -> SimTime {
        let at = now + p.fault_delay(now);
        let (g, spacing) =
            p.forward_stream(at, 0x8000_0000, 64, SimDuration::ZERO, tlps).expect("mapped");
        g.end + spacing * (tlps - 1)
    }

    #[test]
    fn translation_maps_offsets() {
        let w = TranslationWindow {
            local_base: 0x1000,
            len: 0x100,
            remote_host: HostId(2),
            remote_base: 0x9000,
        };
        assert_eq!(w.translate(0x1080), Some((HostId(2), 0x9080)));
        assert_eq!(w.translate(0x1100), None);
        assert_eq!(w.translate(0x0FFF), None);
    }

    #[test]
    fn forward_translates_and_costs_hop() {
        let mut p = port();
        let (tlp, g) = p.forward(SimTime::ZERO, &Tlp::write(0x8000_0040, 64)).unwrap();
        assert_eq!(tlp.addr, 0x4000_0040);
        // Must include at least the hop latency.
        assert!(g.end.as_nanos() >= 900);
        assert_eq!(p.forwarded_tlps(), 1);
    }

    #[test]
    fn unmapped_traffic_is_dropped() {
        let mut p = port();
        assert!(p.forward(SimTime::ZERO, &Tlp::write(0x1234, 8)).is_none());
        assert_eq!(p.forwarded_tlps(), 0);
    }

    #[test]
    #[should_panic(expected = "different peer")]
    fn window_peer_mismatch_panics() {
        let mut p = NtbPort::new(HostId(1));
        p.add_window(TranslationWindow {
            local_base: 0,
            len: 4096,
            remote_host: HostId(9),
            remote_base: 0,
        });
    }

    #[test]
    fn burst_forwarding_queues_on_wire() {
        let mut p = port();
        let last1 = ship(&mut p, SimTime::ZERO, 100);
        let last2 = ship(&mut p, SimTime::ZERO, 100);
        assert!(last2 > last1, "second burst must queue behind the first");
        assert_eq!(p.forwarded_tlps(), 200);
    }

    /// A property of the link model: every cross-device delivery arrives
    /// at least `HOP_LATENCY` after its emission instant, no matter what
    /// faults or outages are armed — faults only ever *add* delay.
    #[test]
    fn every_delivery_takes_at_least_the_hop_latency() {
        let mut rng = DetRng::new(0x10C4_AEAD);
        let mut p = port();
        p.arm_faults(
            TransportFaultConfig { tlp_drop: 0.5, replay_timeout: SimDuration::from_micros(10) },
            DetRng::new(11),
        );
        p.schedule_link_down(LinkDownWindow {
            from: SimTime::from_micros(20),
            until: SimTime::from_micros(60),
        });
        let hop = HOP_LATENCY;
        let mut now = SimTime::ZERO;
        for i in 0..500u64 {
            now += SimDuration::from_nanos(rng.uniform(0, 300));
            let landed = if i % 3 == 0 {
                let at = now + p.fault_delay(now);
                let period = SimDuration::from_nanos(rng.uniform(0, 60));
                match p.forward_stream(at, 0x8000_0000, 64, period, rng.uniform(1, 5)) {
                    Some((g, _)) => g.end,
                    None => p.forward_stream(at, 0x8000_0000, 64, period, 1).unwrap().0.end,
                }
            } else {
                p.forward(now, &Tlp::write(0x8000_0040, 64)).unwrap().1.end
            };
            assert!(
                landed >= now + hop,
                "delivery at {landed} beat the hop-latency bound {} (sent {now}, step {i})",
                now + hop,
            );
        }
    }

    /// A write is one fault decision followed by its TLPs, each entering the
    /// wire at its own instant: with drops and a link-down window armed, the
    /// wire idle or busy at the first TLP, periods of zero (a buffer back to
    /// back), below and above one TLP's wire time, the closed form must make
    /// the same draws, land every TLP where the packet-by-packet walk does
    /// and leave the same counters — or refuse and touch nothing, which it
    /// may only do when the landings are not evenly spaced.
    #[test]
    fn burst_draws_one_fault_and_charges_every_tlp() {
        let arm = |p: &mut NtbPort| {
            p.arm_faults(
                TransportFaultConfig { tlp_drop: 0.2, replay_timeout: SimDuration::from_micros(7) },
                DetRng::new(21),
            );
            p.schedule_link_down(LinkDownWindow {
                from: SimTime::from_micros(30),
                until: SimTime::from_micros(55),
            });
        };
        let (mut stream, mut single) = (port(), port());
        arm(&mut stream);
        arm(&mut single);
        let mut rng = DetRng::new(0xB5_7E57);
        let mut now = SimTime::ZERO;
        let (mut periodic, mut back_to_back, mut refused) = (0, 0, 0);
        const WRITES: u64 = 2_000;
        for step in 0..WRITES {
            // From inside the previous write's tail to long idle.
            now += SimDuration::from_nanos(rng.uniform(0, 3_000));
            let payload = *rng.pick(&[8u32, 64, 64, 64, 36]);
            let period = SimDuration::from_nanos(*rng.pick(&[0, 5, 16, 44, 44, 44, 100]));
            let n = match rng.uniform(0, 2) {
                0 => 1,
                _ => rng.uniform(2, 256),
            };
            let first = now + stream.fault_delay(now);
            assert_eq!(first, now + single.fault_delay(now), "step {step}: the write's one draw");
            let busy = stream.wire.busy_until() > first;
            let state = |p: &NtbPort| (p.wire.busy_until(), p.forwarded_tlps(), p.stats().messages);
            let before = state(&stream);
            let walk: Vec<SimTime> = (0..n)
                .map(|k| {
                    let tlp = Tlp::write(0x4000_0000, payload);
                    let g = single.wire.send(first + period * k, &tlp);
                    single.forwarded_tlps += 1;
                    single.landed(g).end
                })
                .collect();
            let got: Vec<SimTime> =
                match stream.forward_stream(first, 0x8000_0000, payload, period, n) {
                    Some((g, spacing)) => {
                        if spacing == period && n > 1 {
                            periodic += 1;
                        } else {
                            back_to_back += 1;
                        }
                        (0..n).map(|k| g.end + spacing * k).collect()
                    }
                    None => {
                        refused += 1;
                        assert_eq!(
                            state(&stream),
                            before,
                            "step {step}: a refusal touched the port"
                        );
                        assert!(busy && n > 1, "step {step}: refused an evenly spaced stream");
                        // The sender's fallback: one TLP at a time.
                        (0..n)
                            .map(|k| {
                                let at = first + period * k;
                                let one =
                                    stream.forward_stream(at, 0x8000_0000, payload, period, 1);
                                one.expect("a lone TLP always goes through").0.end
                            })
                            .collect()
                    }
                };
            assert_eq!(got, walk, "step {step}: {n} x {payload} B every {period} from {first}");
            assert_eq!(state(&stream), state(&single), "step {step}");
            now += period * (n - 1);
        }
        assert!(
            periodic > 200 && back_to_back > 200 && refused > 20,
            "{periodic} periodic, {back_to_back} back to back, {refused} refused"
        );
        let faults = stream.fault_stats();
        assert_eq!(faults, single.fault_stats());
        assert!(faults.deferrals > 0 && faults.replays > 100 && faults.replays < WRITES / 2);
        let (a, b) = (stream.stats(), single.stats());
        assert_eq!(
            (a.payload_bytes, a.overhead_bytes, a.messages),
            (b.payload_bytes, b.overhead_bytes, b.messages)
        );
        let horizon = now + SimDuration::from_millis(1);
        assert_eq!(stream.utilization(horizon), single.utilization(horizon));
        assert!(stream.forward_stream(now, 0x1234, 64, SimDuration::ZERO, 4).is_none(), "unmapped");
    }

    /// A periodic run is `n` forwards on the cycle instants: same grants,
    /// same wire and port counters — or a refusal that touches nothing.
    #[test]
    fn periodic_run_equals_per_cycle_forwards() {
        let mut rng = DetRng::new(0x5AD0);
        let tlp = Tlp::write(0x8000_0000, 8);
        let (mut granted, mut refused) = (0, 0);
        let (mut run, mut single) = (port(), port());
        let mut now = SimTime::ZERO;
        for step in 0..600 {
            // Gaps from "inside the previous run's tail" to long idle.
            now += SimDuration::from_nanos(rng.uniform(0, 2_000));
            // A third of the periods undercut the 9 ns wire time of one TLP.
            let period = if rng.chance(0.3) { rng.uniform(1, 12) } else { rng.uniform(12, 1_600) };
            let period = SimDuration::from_nanos(period);
            let n = rng.uniform(1, 400);
            let before = (run.wire.busy_until(), run.forwarded_tlps(), run.stats().messages);
            match run.forward_periodic(now, &tlp, period, n) {
                Some(got) => {
                    granted += 1;
                    for k in 0..n {
                        let (_, g) = single.forward(now + period * k, &tlp).unwrap();
                        let want =
                            Grant { start: got.start + period * k, end: got.end + period * k };
                        assert_eq!(g, want, "step {step}: copy {k} of {n}, period {period}");
                    }
                    now += period * (n - 1);
                }
                None => {
                    refused += 1;
                    let after = (run.wire.busy_until(), run.forwarded_tlps(), run.stats().messages);
                    assert_eq!(after, before, "step {step}: refused run touched the port");
                    // The caller's fallback: one TLP.
                    let (_, a) = run.forward(now, &tlp).unwrap();
                    let (_, b) = single.forward(now, &tlp).unwrap();
                    assert_eq!(a, b, "step {step}");
                }
            }
            assert_eq!(run.wire.busy_until(), single.wire.busy_until(), "step {step}");
        }
        assert!(granted > 100 && refused > 20, "{granted} granted, {refused} refused");
        assert_eq!(run.forwarded_tlps(), single.forwarded_tlps());
        let (a, b) = (run.stats(), single.stats());
        assert_eq!(
            (a.payload_bytes, a.overhead_bytes, a.messages),
            (b.payload_bytes, b.overhead_bytes, b.messages)
        );
        let horizon = now + SimDuration::from_millis(1);
        assert_eq!(run.utilization(horizon), single.utilization(horizon));
        // Unmapped traffic is refused like `forward` refuses it.
        let cycle = SimDuration::from_nanos(800);
        assert!(run.forward_periodic(now, &Tlp::write(0x1234, 8), cycle, 4).is_none());
    }

    /// Drops and link-down windows are decided per TLP, so an armed port
    /// never batches — and refusing must not consume a fault draw.
    #[test]
    fn armed_port_refuses_periodic_runs_without_drawing() {
        let tlp = Tlp::write(0x8000_0000, 8);
        let cycle = SimDuration::from_nanos(800);
        let arm = |p: &mut NtbPort| {
            p.arm_faults(
                TransportFaultConfig {
                    tlp_drop: 0.3,
                    replay_timeout: SimDuration::from_micros(10),
                },
                DetRng::new(5),
            )
        };
        let (mut probed, mut plain) = (port(), port());
        arm(&mut probed);
        arm(&mut plain);
        for i in 0..200u64 {
            let at = SimTime::from_micros(i * 20);
            assert!(probed.forward_periodic(at, &tlp, cycle, 10).is_none());
            assert_eq!(probed.forward(at, &tlp), plain.forward(at, &tlp), "update {i}");
        }
        assert_eq!(probed.fault_stats(), plain.fault_stats());
        assert!(probed.fault_stats().replays > 0);
        // A link-down window alone (zero drop rate) arms the layer too.
        let mut parked = port();
        parked.schedule_link_down(LinkDownWindow {
            from: SimTime::from_micros(10),
            until: SimTime::from_micros(50),
        });
        assert!(parked.forward_periodic(SimTime::ZERO, &tlp, cycle, 100).is_none());
        assert_eq!(parked.forwarded_tlps(), 0);
    }

    #[test]
    fn tlp_drop_pays_replay_timer_not_loss() {
        let mut clean = port();
        let mut faulty = port();
        faulty.arm_faults(
            TransportFaultConfig { tlp_drop: 1.0, replay_timeout: SimDuration::from_micros(10) },
            DetRng::new(4),
        );
        let (_, gc) = clean.forward(SimTime::ZERO, &Tlp::write(0x8000_0000, 64)).unwrap();
        let (_, gf) = faulty.forward(SimTime::ZERO, &Tlp::write(0x8000_0000, 64)).unwrap();
        assert_eq!(
            gf.end.as_nanos(),
            gc.end.as_nanos() + 10_000,
            "a dropped TLP is delayed by exactly the replay timer, never lost"
        );
        assert_eq!(faulty.fault_stats().replays, 1);
        assert_eq!(faulty.forwarded_tlps(), 1);
    }

    #[test]
    fn link_down_window_parks_traffic_until_retrain() {
        let mut p = port();
        p.schedule_link_down(LinkDownWindow {
            from: SimTime::from_micros(10),
            until: SimTime::from_micros(50),
        });
        // Before the outage: normal latency.
        let l0 = ship(&mut p, SimTime::ZERO, 1);
        assert!(l0 < SimTime::from_micros(10));
        // Inside the outage: parked until retrain at 50us.
        let l1 = ship(&mut p, SimTime::from_micros(20), 1);
        assert!(l1 >= SimTime::from_micros(50), "parked until retrain: {l1:?}");
        // After the outage: normal again.
        let l2 = ship(&mut p, SimTime::from_micros(60), 1);
        assert!(l2 < SimTime::from_micros(62));
        assert_eq!(p.fault_stats().deferrals, 1);
    }

    #[test]
    fn fault_injection_is_deterministic() {
        fn run(seed: u64) -> Vec<u64> {
            let mut p = port();
            p.arm_faults(
                TransportFaultConfig { tlp_drop: 0.3, replay_timeout: SimDuration::from_micros(5) },
                DetRng::new(seed),
            );
            (0..50).map(|i| ship(&mut p, SimTime::from_micros(i * 10), 4).as_nanos()).collect()
        }
        assert_eq!(run(8), run(8));
        assert_ne!(run(8), run(9));
    }

    #[test]
    fn ntb_latency_is_microsecond_class() {
        // Sanity for Fig. 13 calibration: a single small write arrives in
        // ~1us, far below RDMA-style multi-us paths.
        let mut p = port();
        let (_, g) = p.forward(SimTime::ZERO, &Tlp::write(0x8000_0000, 8)).unwrap();
        let us = g.end.as_micros_f64();
        assert!(us > 0.5 && us < 2.0, "one-way {us}us");
    }
}
