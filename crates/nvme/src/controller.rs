//! The controller abstraction and the host-side driver.
//!
//! A device model implements [`NvmeController`] — accept a command, run
//! to an instant, post [`Completion`]s — and nothing else; the host wraps
//! it in an [`NvmeDriver`], which mints the CIDs, speaks [`IoPort`] to its
//! caller and provides the blocking submit-and-wait pattern the
//! OS path exhibits ("the application interacts with the OS via calls such
//! as pread() and pwrite()", paper §2.1), including the syscall overhead a
//! kernel round trip costs — the overhead the Villars user-level API
//! deliberately avoids (§5.1).

use crate::command::{Command, CommandId, CommandKind, Status};
use crate::namespace::Namespace;
use crate::port::{drive_to_completion, CmdTag, Completion, IoPort, PortAccounting};
use simkit::faults::NvmeFaultConfig;
use simkit::{DetRng, SimDuration, SimTime};
use std::collections::BTreeMap;

/// The device side of the NVMe contract.
pub trait NvmeController {
    /// Accept a command fetched from a submission queue at `now`.
    fn submit(&mut self, now: SimTime, cmd: Command);

    /// Run device-internal work up to and including instant `t`.
    fn advance_to(&mut self, t: SimTime);

    /// Append all completions posted at or before `t` to `out`, in
    /// completion order. Callers pass a buffer they reuse, so a drain
    /// allocates nothing once the buffer has grown.
    fn drain_completions_into(&mut self, t: SimTime, out: &mut Vec<Completion>);

    /// The earliest instant device work (a pending completion or internal
    /// event) is scheduled, if any — lets the driver jump virtual time
    /// instead of polling.
    fn next_event_at(&self) -> Option<SimTime>;

    /// The namespace this controller exposes.
    fn namespace(&self) -> Namespace;
}

/// Outcome of a blocking driver call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoResult {
    /// When the call returned to the application.
    pub completed_at: SimTime,
    /// Device status.
    pub status: Status,
}

/// The host driver: submit-and-wait over a controller.
///
/// The driver is itself an [`IoPort`] (submission pays the syscall cost,
/// completion delivery pays the interrupt cost); the blocking helpers are
/// a thin closed-loop adapter — [`crate::port::drive_to_completion`] —
/// over that port.
#[derive(Debug)]
pub struct NvmeDriver<C: NvmeController> {
    controller: C,
    port: PortAccounting,
    commands: u64,
    /// Reusable scratch for the blocking wait adapter.
    wait_buf: Vec<Completion>,
    /// Command-level fault injection (None = inert, the default).
    faults: Option<CmdFaults>,
}

/// Host cost of one kernel entry/exit plus the block-layer traversal that
/// `pwrite`/`pread`/`fsync` pay before a command reaches the submission
/// queue: an estimate of the Linux NVMe path, the paper gives no figure.
const SYSCALL: SimDuration = SimDuration::from_micros(2);
/// Host cost of interrupt handling plus completion processing, paid on each
/// delivered completion: an estimate, as for `SYSCALL`.
const INTERRUPT: SimDuration = SimDuration::from_micros(1);

/// How long the driver waits for a completion rolled as lost before it
/// declares the command timed out and aborts it. This and the two below
/// are the recovery path's constants in docs/ROBUSTNESS.md's `nvme` rows,
/// a model of a host driver's, not figures from the paper.
const FAULT_TIMEOUT: SimDuration = SimDuration::from_micros(500);
/// Driver retries per command; fate rolls stop once a command has consumed
/// them, so every command eventually succeeds.
const FAULT_MAX_RETRIES: u32 = 4;
/// First retry backoff; doubles per attempt.
const FAULT_BACKOFF_BASE: SimDuration = SimDuration::from_micros(10);

/// Driver-side command-fault state: per-command fate draws, retry budgets,
/// and abort deadlines. Armed via [`NvmeDriver::arm_faults`].
#[derive(Debug)]
struct CmdFaults {
    cfg: NvmeFaultConfig,
    rng: DetRng,
    /// Fate bookkeeping per live CID. BTreeMap so deadline processing
    /// iterates in a deterministic order.
    cmds: BTreeMap<CommandId, CmdFate>,
}

#[derive(Debug, Clone, Copy)]
struct CmdFate {
    kind: CommandKind,
    /// Retries consumed so far (fate rolls stop at the budget, so every
    /// command eventually succeeds).
    attempts: u32,
    /// The next completion carries an injected error status and is
    /// swallowed + retried by the driver.
    error_next: bool,
    /// The next completion is lost (CQE never posted to the host); the
    /// timeout → abort → retry path recovers it.
    drop_next: bool,
    /// Abort deadline armed when a completion was rolled as lost.
    deadline: Option<SimTime>,
    /// Completions from aborted attempts still in flight device-side;
    /// they arrive eventually and must be discarded, not delivered.
    swallow: u32,
}

impl CmdFaults {
    /// Roll the fate of a (re)submission issued at `issue_at`. Draws stop
    /// once the retry budget is consumed.
    fn roll(&mut self, fate: &mut CmdFate, issue_at: SimTime) {
        if fate.attempts >= FAULT_MAX_RETRIES {
            return;
        }
        if self.rng.chance(self.cfg.dropped_completion) {
            fate.drop_next = true;
            fate.deadline = Some(issue_at + FAULT_TIMEOUT);
        } else if self.rng.chance(self.cfg.error_completion) {
            fate.error_next = true;
        }
    }

    /// Exponential backoff for retry number `attempt` (1-based).
    fn backoff(&self, attempt: u32) -> SimDuration {
        FAULT_BACKOFF_BASE.saturating_mul(1u64 << (attempt - 1).min(16))
    }

    /// Apply `cid`'s rolled fate to the completion the device posted at
    /// `at`. Returns true when the host must not see it: it is stale, lost,
    /// or an injected error the driver retries here. A clean completion
    /// retires the fate and returns false.
    fn swallows<C: NvmeController>(
        &mut self,
        at: SimTime,
        cid: CommandId,
        syscall: SimDuration,
        port: &mut PortAccounting,
        controller: &mut C,
    ) -> bool {
        let Some(fate) = self.cmds.get_mut(&cid) else { return false };
        if fate.swallow > 0 {
            // Stale completion of an attempt the driver already aborted
            // and resubmitted.
            fate.swallow -= 1;
            return true;
        }
        if fate.drop_next {
            // The CQE for this attempt is lost; the abort deadline in
            // `poll` drives recovery.
            fate.drop_next = false;
            return true;
        }
        if fate.error_next {
            // Injected error completion: swallow it and retry the same CID
            // with exponential backoff (the caller's tag stays valid
            // across the retry).
            fate.error_next = false;
            fate.attempts += 1;
            port.record_error_completion();
            port.record_retry();
            let mut next = *fate;
            let issue_at = at + self.backoff(next.attempts) + syscall;
            self.roll(&mut next, issue_at);
            self.cmds.insert(cid, next);
            controller.submit(issue_at, Command { cid, kind: next.kind });
            return true;
        }
        self.cmds.remove(&cid);
        false
    }
}

impl<C: NvmeController> NvmeDriver<C> {
    /// Wrap a controller.
    pub fn new(controller: C) -> Self {
        NvmeDriver {
            controller,
            port: PortAccounting::new(),
            commands: 0,
            wait_buf: Vec::new(),
            faults: None,
        }
    }

    /// Arm deterministic command-level fault injection: each submission's
    /// fate (clean / error completion / lost completion) is drawn from
    /// `rng`; injected failures are recovered by the driver itself with
    /// bounded exponential-backoff retries, surfaced in
    /// [`NvmeDriver::port_stats`] (`retry.*` / `fault.*` counters). The
    /// unarmed driver makes zero draws and behaves bit-identically.
    pub fn arm_faults(&mut self, cfg: NvmeFaultConfig, rng: DetRng) {
        self.faults = Some(CmdFaults { cfg, rng, cmds: BTreeMap::new() });
    }

    /// Commands issued through this driver so far.
    pub fn commands_issued(&self) -> u64 {
        self.commands
    }

    /// Access the wrapped controller.
    pub fn controller(&self) -> &C {
        &self.controller
    }

    /// Mutable access to the wrapped controller (for vendor-level setup).
    pub fn controller_mut(&mut self) -> &mut C {
        &mut self.controller
    }

    /// The namespace exposed by the device.
    pub fn namespace(&self) -> Namespace {
        self.controller.namespace()
    }

    /// Per-port accounting: in-flight depth, CID liveness, and queue-depth
    /// telemetry. The driver's owner reports it (`NvmeLog`, under
    /// `db.log.port`).
    pub fn port_stats(&self) -> &PortAccounting {
        &self.port
    }

    /// Submit `kind` at `now` and block until its completion arrives.
    /// Models: syscall entry, command processing, interrupt, return.
    ///
    /// This is the closed-loop adapter over the driver's [`IoPort`]: one
    /// tagged submission, then [`crate::port::drive_to_completion`] jumps
    /// virtual time from device event to device event until the tag
    /// completes.
    pub fn execute_blocking(&mut self, now: SimTime, kind: CommandKind) -> IoResult {
        let tag = IoPort::submit(self, now, kind);
        let from = now + SYSCALL;
        let mut scratch = std::mem::take(&mut self.wait_buf);
        let done = drive_to_completion(self, from, tag, &mut scratch);
        self.wait_buf = scratch;
        IoResult { completed_at: done.at, status: done.entry.status }
    }

    /// Blocking write of `blocks` logical blocks at `lba`.
    pub fn write_blocking(&mut self, now: SimTime, lba: u64, blocks: u32) -> IoResult {
        self.execute_blocking(
            now,
            CommandKind::Io(crate::command::IoCommand::Write { lba, blocks }),
        )
    }

    /// Blocking read of `blocks` logical blocks at `lba`.
    pub fn read_blocking(&mut self, now: SimTime, lba: u64, blocks: u32) -> IoResult {
        self.execute_blocking(now, CommandKind::Io(crate::command::IoCommand::Read { lba, blocks }))
    }

    /// Blocking flush of the device write cache.
    pub fn flush_blocking(&mut self, now: SimTime) -> IoResult {
        self.execute_blocking(now, CommandKind::Io(crate::command::IoCommand::Flush))
    }
}

impl<C: NvmeController> IoPort for NvmeDriver<C> {
    fn submit(&mut self, now: SimTime, kind: CommandKind) -> CmdTag {
        let cid = self.port.begin();
        self.commands += 1;
        let issue_at = now + SYSCALL;
        if let Some(f) = self.faults.as_mut() {
            let mut fate = CmdFate {
                kind,
                attempts: 0,
                error_next: false,
                drop_next: false,
                deadline: None,
                swallow: 0,
            };
            f.roll(&mut fate, issue_at);
            f.cmds.insert(cid, fate);
        }
        // The device sees the command after the kernel round trip.
        self.controller.submit(issue_at, Command { cid, kind });
        CmdTag(cid)
    }

    fn poll(&mut self, now: SimTime) {
        // Abort commands whose completion deadline expired (their CQE was
        // rolled as lost) and resubmit with exponential backoff. BTreeMap
        // order keeps the RNG draw sequence deterministic.
        if let Some(f) = self.faults.as_mut() {
            let expired: Vec<_> = f
                .cmds
                .iter()
                .filter(|(_, fate)| fate.deadline.is_some_and(|d| d <= now))
                .map(|(&cid, _)| cid)
                .collect();
            for cid in expired {
                let mut fate = f.cmds.remove(&cid).expect("expired fate present");
                // If the aborted attempt's (lost) completion is still in
                // flight device-side, re-mark it stale so it is discarded
                // when it finally drains; if it already drained (consumed
                // by `drop_next`), there is nothing left to discard.
                if fate.drop_next {
                    fate.drop_next = false;
                    fate.swallow += 1;
                }
                fate.deadline = None;
                fate.attempts += 1;
                self.port.record_timeout();
                self.port.record_dropped_completion();
                self.port.record_retry();
                let issue_at = now + f.backoff(fate.attempts) + SYSCALL;
                f.roll(&mut fate, issue_at);
                f.cmds.insert(cid, fate);
                self.controller.submit(issue_at, Command { cid, kind: fate.kind });
            }
        }
        self.controller.advance_to(now);
    }

    fn completions_into(&mut self, now: SimTime, out: &mut Vec<Completion>) {
        let start = out.len();
        self.controller.drain_completions_into(now, out);
        // Filter what the device posted in place: `kept` trails `i`, so a
        // completion the fault layer swallows leaves no hole.
        let mut kept = start;
        for i in start..out.len() {
            let Completion { at, entry } = out[i];
            if let Some(f) = self.faults.as_mut() {
                if f.swallows(at, entry.cid, SYSCALL, &mut self.port, &mut self.controller) {
                    continue;
                }
            }
            self.port.finish(entry.cid);
            // Delivery to the application pays the interrupt cost.
            out[kept] = Completion { at: at + INTERRUPT, entry };
            kept += 1;
        }
        out.truncate(kept);
    }

    fn next_port_event_at(&self) -> Option<SimTime> {
        let device = self.controller.next_event_at();
        let deadline = self
            .faults
            .as_ref()
            .and_then(|f| f.cmds.values().filter_map(|fate| fate.deadline).min());
        SimTime::earliest(device, deadline)
    }

    fn in_flight(&self) -> usize {
        self.port.in_flight()
    }
}

impl<C: NvmeController + simkit::Instrument> simkit::Instrument for NvmeDriver<C> {
    fn instrument(&self, out: &mut simkit::Scope<'_>) {
        out.counter("commands", self.commands);
        self.controller.instrument(out);
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;
    use crate::command::{CompletionEntry, IoCommand};

    /// A controller that completes every command after a fixed delay.
    pub(crate) struct FixedDelay {
        delay: SimDuration,
        pending: Vec<Completion>,
        ns: Namespace,
    }

    impl FixedDelay {
        pub(crate) fn new(delay_us: u64) -> Self {
            FixedDelay {
                delay: SimDuration::from_micros(delay_us),
                pending: Vec::new(),
                ns: Namespace::new(1, 4096, 1 << 20),
            }
        }
    }

    impl NvmeController for FixedDelay {
        fn submit(&mut self, now: SimTime, cmd: Command) {
            let status = match cmd.kind {
                CommandKind::Io(IoCommand::Write { lba, blocks })
                | CommandKind::Io(IoCommand::Read { lba, blocks })
                    if !self.ns.range_ok(lba, blocks) =>
                {
                    Status::LbaOutOfRange
                }
                _ => Status::Success,
            };
            self.pending.push(Completion {
                at: now + self.delay,
                entry: CompletionEntry { cid: cmd.cid, status, result: 0 },
            });
        }

        fn advance_to(&mut self, _t: SimTime) {}

        fn drain_completions_into(&mut self, t: SimTime, out: &mut Vec<Completion>) {
            self.pending.retain(|&c| {
                let due = c.at <= t;
                if due {
                    out.push(c);
                }
                !due
            });
        }

        fn next_event_at(&self) -> Option<SimTime> {
            self.pending.iter().map(|c| c.at).min()
        }

        fn namespace(&self) -> Namespace {
            self.ns
        }
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::FixedDelay;
    use super::*;

    #[test]
    fn blocking_write_includes_all_costs() {
        let mut drv = NvmeDriver::new(FixedDelay::new(50));
        let r = drv.write_blocking(SimTime::ZERO, 0, 8);
        assert!(r.status.is_ok());
        // 2us syscall + 50us device + 1us interrupt.
        assert_eq!(r.completed_at.as_micros_f64(), 53.0);
    }

    #[test]
    fn out_of_range_write_fails() {
        let mut drv = NvmeDriver::new(FixedDelay::new(1));
        let r = drv.write_blocking(SimTime::ZERO, u64::MAX, 1);
        assert_eq!(r.status, Status::LbaOutOfRange);
    }

    #[test]
    fn sequential_blocking_calls_accumulate_time() {
        let mut drv = NvmeDriver::new(FixedDelay::new(10));
        let r1 = drv.write_blocking(SimTime::ZERO, 0, 1);
        let r2 = drv.write_blocking(r1.completed_at, 1, 1);
        assert!(r2.completed_at > r1.completed_at);
        assert_eq!(r2.completed_at.as_micros_f64(), 26.0);
    }

    #[test]
    fn flush_round_trip() {
        let mut drv = NvmeDriver::new(FixedDelay::new(5));
        let r = drv.flush_blocking(SimTime::ZERO);
        assert!(r.status.is_ok());
    }

    #[test]
    fn injected_error_completions_are_retried_transparently() {
        let mut drv = NvmeDriver::new(FixedDelay::new(10));
        drv.arm_faults(
            NvmeFaultConfig { error_completion: 0.4, ..Default::default() },
            DetRng::new(7),
        );
        let mut now = SimTime::ZERO;
        for i in 0..50 {
            let r = drv.write_blocking(now, i, 1);
            assert!(r.status.is_ok(), "retries keep the caller-visible status clean");
            now = r.completed_at;
        }
        let stats = drv.port_stats();
        assert!(stats.error_completions() > 0, "a 40% rate fires within 50 commands");
        assert_eq!(stats.retries(), stats.error_completions());
        assert_eq!(stats.completed(), 50);
        assert_eq!(drv.in_flight(), 0);
    }

    #[test]
    fn lost_completions_time_out_abort_and_retry() {
        let mut drv = NvmeDriver::new(FixedDelay::new(10));
        drv.arm_faults(
            NvmeFaultConfig { dropped_completion: 0.5, ..Default::default() },
            DetRng::new(3),
        );
        let mut now = SimTime::ZERO;
        for i in 0..40 {
            let r = drv.write_blocking(now, i, 1);
            assert!(r.status.is_ok());
            now = r.completed_at;
        }
        let stats = drv.port_stats();
        assert!(stats.timeouts() > 0, "a 50% drop rate forces timeouts");
        assert_eq!(stats.timeouts(), stats.dropped_completions());
        assert_eq!(stats.completed(), 40);
        assert_eq!(drv.in_flight(), 0);
        // A timed-out command pays at least the timeout before retrying.
        assert!(
            now > SimTime::from_micros(500),
            "timeout latency is visible in the virtual clock: {now:?}"
        );
    }

    #[test]
    fn fault_injection_is_deterministic() {
        fn run(seed: u64) -> (f64, u64, u64) {
            let mut drv = NvmeDriver::new(FixedDelay::new(10));
            drv.arm_faults(
                NvmeFaultConfig { error_completion: 0.2, dropped_completion: 0.2 },
                DetRng::new(seed),
            );
            let mut now = SimTime::ZERO;
            for i in 0..60 {
                now = drv.write_blocking(now, i, 1).completed_at;
            }
            (now.as_micros_f64(), drv.port_stats().retries(), drv.port_stats().timeouts())
        }
        assert_eq!(run(11), run(11), "same seed, same fault schedule, same clock");
        assert_ne!(run(11), run(12), "different seeds diverge");
    }

    #[test]
    fn armed_at_zero_rates_is_bit_identical_to_unarmed() {
        let mut plain = NvmeDriver::new(FixedDelay::new(10));
        let mut armed = NvmeDriver::new(FixedDelay::new(10));
        armed.arm_faults(NvmeFaultConfig::default(), DetRng::new(99));
        let mut t1 = SimTime::ZERO;
        let mut t2 = SimTime::ZERO;
        for i in 0..20 {
            t1 = plain.write_blocking(t1, i, 1).completed_at;
            t2 = armed.write_blocking(t2, i, 1).completed_at;
        }
        assert_eq!(t1, t2, "zero-rate fault layer adds no latency");
        assert_eq!(plain.port_stats().retries(), 0);
        assert_eq!(armed.port_stats().retries(), 0);
    }
}
