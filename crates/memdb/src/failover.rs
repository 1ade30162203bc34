//! Primary-driven replica failover and re-sync (paper §7.1).
//!
//! When a secondary dies, its shadow-counter updates stop and the primary's
//! transport status register turns Degraded once the staleness window
//! elapses. The host then drives the recovery sequence the paper sketches:
//! detect via the status register, reconfigure replication around the dead
//! copy (so eager commits stop waiting on it), and — once the node is back —
//! re-ship the missed log suffix from the primary's surviving copy before
//! restoring it to the secondary set.

use crate::segment::SegmentView;
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
/// This is [`rejoin_secondary_from_archive`] with an empty archive: with
/// nothing to stream it goes straight to the live resync (the `advance(now)`
/// it makes first is the call `resync_secondary` begins with, so the
/// schedule is the same).
pub fn rejoin_secondary(
    cluster: &mut Cluster,
    now: SimTime,
    primary: usize,
    target: usize,
    secondaries: &[usize],
) -> SimTime {
    rejoin_secondary_from_archive(cluster, now, primary, target, secondaries, &[]).active_at
}

/// What a rejoin-from-archive round did: how much of the catch-up came
/// from the host's sealed-segment archive versus live device state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RejoinReport {
    /// The rejoining copy's durable tail at reboot.
    pub tail_at_reboot: u64,
    /// Bytes streamed from the archived segments.
    pub archived_bytes: u64,
    /// When the archive leg finished (live resync starts here).
    pub archive_done: SimTime,
    /// When the live three-zone resync caught the copy up to the
    /// primary's tail.
    pub resynced_at: SimTime,
    /// When the reconfigured replica set went active.
    pub active_at: SimTime,
}

/// Restore a rebooted secondary whose missed suffix may have fallen off
/// the primary's destage ring: first stream the sealed segments the host
/// archive retained for the gap (each verified against its seal CRC),
/// then hand off to the live three-zone resync
/// ([`Cluster::resync_secondary`]) for whatever the primary still serves,
/// and finally reconfigure replication to `secondaries`.
///
/// The archive is the rejoining copy's only source for ranges the
/// primary has recycled, so a segment failing its CRC — or an archive
/// truncated past the target's tail — panics rather than rejoining a
/// copy with a hole in its log.
pub fn rejoin_secondary_from_archive(
    cluster: &mut Cluster,
    now: SimTime,
    primary: usize,
    target: usize,
    secondaries: &[usize],
    archive: &[SegmentView<'_>],
) -> RejoinReport {
    assert!(secondaries.contains(&target), "the rejoined device must be in the new replica set");
    cluster.reboot_device(target);
    cluster.advance(now);
    let tail_at_reboot = cluster.device(target).log_tail();
    let mut t = now;
    for seg in archive {
        if seg.base_lsn + seg.bytes.len() as u64 <= tail_at_reboot {
            continue; // the target already holds this segment
        }
        assert!(
            seg.verify(),
            "archived segment at LSN {} failed its seal CRC during rejoin",
            seg.base_lsn
        );
        t = cluster.deliver_archived(t, target, seg.base_lsn, seg.bytes);
    }
    let archived_bytes = cluster.device(target).log_tail() - tail_at_reboot;
    let archive_done = t;
    let resynced_at = cluster.resync_secondary(t, primary, target);
    let active_at = cluster.configure_replication(resynced_at, primary, secondaries);
    RejoinReport { tail_at_reboot, archived_bytes, archive_done, resynced_at, active_at }
}

/// Read the full durable log stream `[0, destaged frontier)` of `dev` —
/// the input `recover` replays after a crash (the rescue destage of
/// [`Cluster::power_fail`] pushes every contiguously received byte below
/// the frontier onto the conventional side first).
pub fn durable_log_stream(cluster: &mut Cluster, now: SimTime, dev: usize) -> Vec<u8> {
    cluster.advance(now);
    let upto = cluster.device(dev).destaged_upto();
    if upto == 0 {
        return Vec::new();
    }
    cluster
        .device_mut(dev)
        .read_destaged(now, 0, 0, upto as usize)
        .map(|(_ready, bytes)| bytes)
        .expect("durable log stream readable from offset 0 (destage ring not yet recycled)")
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
        let stream = durable_log_stream(&mut cluster, settle, s2);
        let mut recovered = Database::new();
        recovered.create_table("t");
        let rep = recover(&mut recovered, &stream);
        assert_eq!(rep.txns_committed, 20, "every committed transaction survives");
        assert_eq!(recovered.fingerprint(), db.fingerprint());
    }

    /// A secondary that stays down while the primary writes more than its
    /// destage ring retains cannot be resynced from live device state —
    /// the missed range has been recycled. The sealed-segment archive
    /// fills the gap: rejoin streams archived segments first, then hands
    /// off to the live three-zone resync, and a subsequent full-cluster
    /// crash recovered from the rejoined copy alone loses nothing.
    #[test]
    fn rejoin_from_archive_after_the_ring_recycles() {
        use crate::segment::{SegmentConfig, SegmentedLog};
        let mut cluster = Cluster::new();
        let p = cluster.add_device(VillarsConfig::small());
        let s1 = cluster.add_device(VillarsConfig::small());
        let s2 = cluster.add_device(VillarsConfig::small());
        let t0 = cluster.configure_replication(SimTime::ZERO, p, &[s1, s2]);

        let mut db = Database::new();
        let tab = db.create_table("t");
        let mut file = XLogFile::open(p);
        let mut seg = SegmentedLog::new(SegmentConfig { segment_bytes: 16 << 10 });
        let mut now = t0;
        let commit = |db: &mut Database,
                      seg: &mut SegmentedLog,
                      cluster: &mut Cluster,
                      file: &mut XLogFile,
                      now: SimTime,
                      i: u32|
         -> SimTime {
            let mut ctx = db.begin();
            db.insert(&mut ctx, tab, crate::storage::keys::composite(&[i]), vec![i as u8; 160]);
            let recs = db.commit(ctx).expect("commit");
            let mut bytes = Vec::new();
            for r in &recs {
                let start = bytes.len();
                r.encode_into(&mut bytes);
                seg.append_record_bytes(&bytes[start..]);
            }
            let t = file.x_pwrite(cluster, now, &bytes).expect("x_pwrite");
            file.x_fsync(cluster, t).expect("x_fsync")
        };

        for i in 0..8u32 {
            now = commit(&mut db, &mut seg, &mut cluster, &mut file, now, i);
        }
        cluster.power_fail(s2, now);
        let tail_at_crash = cluster.device(s2).log_tail();
        let report = fail_over(&mut cluster, now, p, &[s1]);
        now = report.reconfigured_at;
        // Write far more than the small destage ring (64 LBAs) retains.
        for i in 8..2000u32 {
            now = commit(&mut db, &mut seg, &mut cluster, &mut file, now, i);
        }
        let settle = now + SimDuration::from_millis(2);
        cluster.advance(settle);
        let recycled_from = cluster.device(p).destage_readable_from(0).expect("primary destaged");
        assert!(
            recycled_from > tail_at_crash,
            "test premise: the range s2 missed ({tail_at_crash}..) must have fallen off \
             the primary's ring (oldest readable {recycled_from})"
        );

        let rejoin =
            rejoin_secondary_from_archive(&mut cluster, settle, p, s2, &[s1, s2], &seg.views());
        assert_eq!(rejoin.tail_at_reboot, tail_at_crash);
        assert!(rejoin.archived_bytes > 0, "the archive leg must have shipped the gap");
        assert!(rejoin.archive_done <= rejoin.resynced_at);
        assert_eq!(
            cluster.device(s2).log_tail(),
            cluster.device(p).log_tail(),
            "archive + live resync caught the rejoined copy up to the primary's tail"
        );

        // Total cluster loss: recovery from the rejoined copy's durable
        // state alone must reproduce every committed transaction the ring
        // still serves — nothing the archive delivered was corrupted.
        let end = rejoin.active_at + SimDuration::from_millis(2);
        cluster.advance(end);
        cluster.power_fail(p, end);
        cluster.power_fail(s1, end);
        cluster.power_fail(s2, end);
        cluster.reboot_device(s2);
        let from = cluster.device(s2).destage_readable_from(0).expect("rejoined copy destaged");
        let upto = cluster.device(s2).destaged_upto();
        let (_ready, bytes) = cluster
            .device_mut(s2)
            .read_destaged(end, 0, from, (upto - from) as usize)
            .expect("suffix readable");
        let mut recovered = Database::new();
        recovered.create_table("t");
        // Bootstrap from the primary's log prefix (stands in for a
        // snapshot), then replay the rejoined copy's readable suffix.
        let mut prefix = Vec::new();
        for v in seg.views() {
            let end_lsn = v.base_lsn + v.bytes.len() as u64;
            if end_lsn <= from {
                prefix.extend_from_slice(v.bytes);
            } else if v.base_lsn < from {
                prefix.extend_from_slice(&v.bytes[..(from - v.base_lsn) as usize]);
            }
        }
        prefix.extend_from_slice(&bytes);
        recover(&mut recovered, &prefix);
        assert_eq!(recovered.fingerprint(), db.fingerprint());
    }
}
