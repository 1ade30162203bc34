//! Primary-driven replica failover and re-sync (paper §7.1).
//!
//! When a secondary dies, its shadow-counter updates stop and the primary's
//! transport status register turns Degraded once the staleness window
//! elapses. The host then drives the recovery sequence the paper sketches:
//! detect via the status register, reconfigure replication around the dead
//! copy (so eager commits stop waiting on it), and — once the node is back —
//! re-ship the missed log suffix from the primary's surviving copy before
//! restoring it to the secondary set.

use nvme::{Status, VendorCommand};
use simkit::{SimDuration, SimTime};
use xssd_core::{vendor, Cluster};

/// What a failover round observed, for the recovery-stall assertions in the
/// chaos harness (`bench/src/bin/chaos_tpcc.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverReport {
    /// When the host started polling the status register.
    pub initiated_at: SimTime,
    /// When the register first read Degraded.
    pub detected_at: SimTime,
    /// When replication was reconfigured around the dead secondary.
    pub reconfigured_at: SimTime,
    /// Status-register polls issued before detection.
    pub status_polls: u64,
}

impl FailoverReport {
    /// End-to-end stall: from the first suspicion to the reconfigured
    /// replica set accepting commits again.
    pub fn stall(&self) -> SimDuration {
        self.reconfigured_at.saturating_since(self.initiated_at)
    }
}

/// Poll the primary's transport status register until it reads Degraded,
/// then reconfigure replication onto `survivors` (the secondary set minus
/// the dead device). Panics if the transport never degrades — the caller
/// asserts a real crash happened before initiating failover.
pub fn fail_over(
    cluster: &mut Cluster,
    now: SimTime,
    primary: usize,
    survivors: &[usize],
) -> FailoverReport {
    assert!(!survivors.is_empty(), "failover needs at least one surviving secondary");
    let poll_period = SimDuration::from_micros(10);
    let mut t = now;
    let mut polls = 0u64;
    let detected_at = loop {
        let (t2, e) = cluster.vendor_blocking(
            primary,
            t,
            VendorCommand::new(vendor::GET_TRANSPORT_STATUS, [0; 6]),
        );
        polls += 1;
        assert_eq!(e.status, Status::Success, "status register read failed");
        if e.result == 1 {
            break t2;
        }
        assert!(
            polls < 100_000,
            "transport never degraded after {polls} polls: was a secondary actually crashed?"
        );
        t = t2 + poll_period;
    };
    let reconfigured_at = cluster.configure_replication(detected_at, primary, survivors);
    FailoverReport { initiated_at: now, detected_at, reconfigured_at, status_polls: polls }
}

/// Restore a rebooted secondary: re-ship the log suffix it missed from the
/// primary's surviving copy ([`Cluster::resync_secondary`]), then
/// reconfigure replication to `secondaries` (the full set including
/// `target`). Returns the instant the new replica set is active.
///
/// The primary's destage ring is the only source of the gap: a suffix
/// that has fallen off it panics in `resync_secondary`, and the copy must
/// then be rebuilt from a snapshot instead.
pub fn rejoin_secondary(
    cluster: &mut Cluster,
    now: SimTime,
    primary: usize,
    target: usize,
    secondaries: &[usize],
) -> SimTime {
    assert!(secondaries.contains(&target), "the rejoined device must be in the new replica set");
    cluster.reboot_device(target);
    let resynced_at = cluster.resync_secondary(now, primary, target);
    cluster.configure_replication(resynced_at, primary, secondaries)
}

/// Read the durable log stream `[from, destaged frontier)` of `dev` — the
/// input `recover` replays after a crash, from offset 0 or from a restored
/// snapshot's log offset (the rescue destage of [`Cluster::power_fail`]
/// pushes every contiguously received byte below the frontier onto the
/// conventional side first).
///
/// Panics if `from` lies above the frontier (the snapshot claims log the
/// device never persisted) or below what the destage ring still holds.
pub fn durable_log_stream(cluster: &mut Cluster, now: SimTime, dev: usize, from: u64) -> Vec<u8> {
    cluster.advance(now);
    let upto = cluster.device(dev).destaged_upto();
    assert!(from <= upto, "log offset {from} ahead of device {dev}'s destaged frontier {upto}");
    let device = cluster.device_mut(dev);
    match device.read_destaged(now, 0, from, (upto - from) as usize) {
        Some((_ready, bytes)) => bytes,
        None => panic!(
            "durable log [{from}, {upto}) fell off device {dev}'s destage ring (readable from {:?})",
            device.destage_readable_from(0)
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::{encode_txn, recover};
    use crate::storage::Database;
    use xssd_core::{VillarsConfig, XLogFile};

    /// The full recovery arc in miniature: crash a secondary mid-stream,
    /// fail over to the survivor, keep committing, rejoin the crashed node
    /// with a re-sync, then lose the whole cluster and prove recovery from
    /// the rejoined copy alone loses no committed transaction.
    #[test]
    fn failover_resync_and_recovery_lose_nothing() {
        let mut cluster = Cluster::new();
        let p = cluster.add_device(VillarsConfig::small());
        let s1 = cluster.add_device(VillarsConfig::small());
        let s2 = cluster.add_device(VillarsConfig::small());
        let t0 = cluster.configure_replication(SimTime::ZERO, p, &[s1, s2]);

        let mut db = Database::new();
        let tab = db.create_table("t");
        let mut file = XLogFile::open(p);
        let mut now = t0;
        let commit = |db: &mut Database,
                      file: &mut XLogFile,
                      cluster: &mut Cluster,
                      now: SimTime,
                      i: u32|
         -> SimTime {
            let mut ctx = db.begin();
            db.insert(&mut ctx, tab, crate::storage::keys::composite(&[i]), vec![i as u8; 48]);
            let recs = db.commit(ctx).expect("commit");
            let bytes = encode_txn(&recs);
            let t = file.x_pwrite(cluster, now, &bytes).expect("x_pwrite");
            file.x_fsync(cluster, t).expect("x_fsync")
        };

        for i in 0..8u32 {
            now = commit(&mut db, &mut file, &mut cluster, now, i);
        }
        // Crash s2; the primary notices via staleness and fails over.
        cluster.power_fail(s2, now);
        let report = fail_over(&mut cluster, now, p, &[s1]);
        assert!(report.detected_at > now, "detection takes at least one staleness window");
        assert!(
            report.stall() < SimDuration::from_millis(5),
            "failover stall bounded: {:?}",
            report.stall()
        );
        now = report.reconfigured_at;
        // Commits continue against the surviving pair.
        for i in 8..16u32 {
            now = commit(&mut db, &mut file, &mut cluster, now, i);
        }
        // Rejoin s2: reboot, re-sync the missed suffix, restore the set.
        now = rejoin_secondary(&mut cluster, now, p, s2, &[s1, s2]);
        assert_eq!(
            cluster.device(s2).log_tail(),
            cluster.device(p).log_tail(),
            "re-sync caught the rejoined copy up to the primary's tail"
        );
        for i in 16..20u32 {
            now = commit(&mut db, &mut file, &mut cluster, now, i);
        }
        // Total cluster loss: every copy crash-destages its residue.
        let settle = now + SimDuration::from_millis(2);
        cluster.advance(settle);
        cluster.power_fail(p, settle);
        cluster.power_fail(s1, settle);
        cluster.power_fail(s2, settle);
        cluster.reboot_device(s2);
        // Recover from the *rejoined* copy: it must hold every commit.
        let stream = durable_log_stream(&mut cluster, settle, s2, 0);
        let mut recovered = Database::new();
        recovered.create_table("t");
        let rep = recover(&mut recovered, &stream);
        assert_eq!(rep.txns_committed, 20, "every committed transaction survives");
        assert_eq!(recovered.fingerprint(), db.fingerprint());
    }

    /// A secondary that stays down while the primary writes more than its
    /// destage ring retains cannot be resynced from live device state: the
    /// range it missed has been recycled, and the rejoin refuses to bring
    /// back a copy with a hole in its log.
    #[test]
    #[should_panic(expected = "fell off the primary's destage ring")]
    fn rejoin_past_the_primarys_ring_panics() {
        let mut cluster = Cluster::new();
        let p = cluster.add_device(VillarsConfig::small());
        let s1 = cluster.add_device(VillarsConfig::small());
        let s2 = cluster.add_device(VillarsConfig::small());
        let mut now = cluster.configure_replication(SimTime::ZERO, p, &[s1, s2]);
        let mut file = XLogFile::open(p);
        // The log's content does not matter here, only how far it runs.
        let mut commit = |cluster: &mut Cluster, now: SimTime, i: u32| -> SimTime {
            let t = file.x_pwrite(cluster, now, &[i as u8; 200]).expect("x_pwrite");
            file.x_fsync(cluster, t).expect("x_fsync")
        };

        for i in 0..8u32 {
            now = commit(&mut cluster, now, i);
        }
        cluster.power_fail(s2, now);
        let tail_at_crash = cluster.device(s2).log_tail();
        now = fail_over(&mut cluster, now, p, &[s1]).reconfigured_at;
        // Write far more than the small destage ring (64 LBAs) retains.
        for i in 8..2000u32 {
            now = commit(&mut cluster, now, i);
        }
        let settle = now + SimDuration::from_millis(2);
        cluster.advance(settle);
        let readable_from = cluster.device(p).destage_readable_from(0).expect("primary destaged");
        assert!(
            readable_from > tail_at_crash,
            "test premise: the range s2 missed ({tail_at_crash}..) must have fallen off \
             the primary's ring (oldest readable {readable_from})"
        );
        rejoin_secondary(&mut cluster, settle, p, s2, &[s1, s2]);
    }

    /// A checkpoint never blocks a rejoin that the primary's ring still
    /// serves: a secondary that was down while the primary checkpointed
    /// past its tail comes back level with the primary, because the gap is
    /// read from the primary's destage ring, not from a host copy that the
    /// checkpoint could have retired.
    #[test]
    fn a_checkpoint_never_blocks_a_rejoin_the_primarys_ring_serves() {
        use crate::backend::XssdLog;
        use crate::checkpoint::Checkpointer;
        use crate::wal::{WalConfig, WalManager};

        let mut cluster = Cluster::new();
        let p = cluster.add_device(VillarsConfig::small());
        let s1 = cluster.add_device(VillarsConfig::small());
        let s2 = cluster.add_device(VillarsConfig::small());
        let mut now = cluster.configure_replication(SimTime::ZERO, p, &[s1, s2]);
        let mut wal = WalManager::new(XssdLog::new(cluster, p, "villars"), WalConfig::default());
        let mut db = Database::new();
        let tab = db.create_table("t");
        // One transaction per group, durable on every live copy.
        let commit = |db: &mut Database, wal: &mut WalManager<XssdLog>, now, i: u32| {
            let mut ctx = db.begin();
            db.insert(&mut ctx, tab, crate::storage::keys::composite(&[i]), vec![i as u8; 160]);
            wal.append_records(now, &db.commit(ctx).expect("commit"));
            wal.flush(now).at
        };

        for i in 0..8u32 {
            now = commit(&mut db, &mut wal, now, i);
        }
        let cluster = wal.backend_mut().cluster_mut();
        cluster.power_fail(s2, now);
        let tail_at_crash = cluster.device(s2).log_tail();
        now = fail_over(cluster, now, p, &[s1]).reconfigured_at;
        for i in 8..40u32 {
            now = commit(&mut db, &mut wal, now, i);
        }
        // Checkpoint everything durable, past the down copy's tail.
        let durable = wal.durable_upto();
        assert!(durable.0 > tail_at_crash, "test premise: the checkpoint passes s2's tail");
        let mut ck = Checkpointer::new(p, 128, 16);
        let (t, _meta) = ck.checkpoint(wal.backend_mut().cluster_mut(), now, &db, durable.0);
        now = t;

        let cluster = wal.backend_mut().cluster_mut();
        cluster.advance(now);
        assert!(
            cluster.device(p).destage_readable_from(0).is_some_and(|from| from <= tail_at_crash),
            "test premise: the primary's ring still serves the range s2 missed"
        );
        rejoin_secondary(cluster, now, p, s2, &[s1, s2]);
        assert_eq!(cluster.device(s2).log_tail(), cluster.device(p).log_tail());
    }
}
