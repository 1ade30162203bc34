//! Hot-standby replica apply over a Villars secondary.
//!
//! The secondary *server* reads the shipped log from its own Villars
//! device's destage ring (paper Fig. 1 right, step (3): "the update of the
//! remote memory is done by the remote Database") and replays it into its
//! in-memory tables — the log-shipping consumer side.

use crate::log::{decode_one, DecodeError, LogOp};
use crate::segment::SegmentView;
use crate::storage::Database;
use simkit::SimTime;
use xssd_core::Cluster;

/// A replica database fed from a secondary device's destaged log.
pub struct Replica {
    /// The replica's in-memory state.
    pub db: Database,
    dev: usize,
    /// Log byte offset consumed so far.
    cursor: u64,
    /// Carry buffer for a record split across reads.
    carry: Vec<u8>,
    txns_applied: u64,
    /// Records of transactions whose commit marker has not yet arrived.
    staged: Vec<crate::log::LogRecord>,
}

impl std::fmt::Debug for Replica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replica")
            .field("cursor", &self.cursor)
            .field("txns_applied", &self.txns_applied)
            .finish()
    }
}

impl Replica {
    /// A replica reading from device `dev` (a Villars secondary) in
    /// `cluster`. The schema (`tables`) must match the primary's catalog
    /// order.
    pub fn new(dev: usize, tables: &[&str]) -> Self {
        let mut db = Database::new();
        for t in tables {
            db.create_table(t);
        }
        Replica { db, dev, cursor: 0, carry: Vec::new(), txns_applied: 0, staged: Vec::new() }
    }

    /// A replica resuming from a restored snapshot: `db` is the decoded
    /// snapshot state and `log_offset` its log offset — apply continues
    /// from there instead of replaying total history. The lifecycle
    /// counterpart of [`Replica::new`]: a standby that was down long
    /// enough to need a snapshot bootstraps here, then consumes the
    /// archive ([`Replica::apply_archived`]) and the live stream
    /// ([`Replica::catch_up`]).
    pub fn from_snapshot(dev: usize, db: Database, log_offset: u64) -> Self {
        Replica {
            db,
            dev,
            cursor: log_offset,
            carry: Vec::new(),
            txns_applied: 0,
            staged: Vec::new(),
        }
    }

    /// Apply host-archived segments from the replica's cursor onward —
    /// the catch-up source for ranges the secondary device's destage ring
    /// has already recycled. Sealed segments are verified against their
    /// seal CRC; a gap between the cursor and the archive panics (the
    /// archive was truncated past what this replica needs). Returns the
    /// number of transactions applied.
    pub fn apply_archived(&mut self, segments: &[SegmentView<'_>]) -> u64 {
        let before = self.txns_applied;
        for seg in segments {
            let end = seg.base_lsn + seg.bytes.len() as u64;
            if end <= self.cursor {
                continue; // already consumed
            }
            assert!(
                seg.base_lsn <= self.cursor,
                "archive gap: segment starts at LSN {} but the replica cursor is {}",
                seg.base_lsn,
                self.cursor
            );
            assert!(seg.verify(), "archived segment at LSN {} failed its seal CRC", seg.base_lsn);
            let start = (self.cursor - seg.base_lsn) as usize;
            self.carry.extend_from_slice(&seg.bytes[start..]);
            self.cursor = end;
            self.drain_carry();
        }
        self.txns_applied - before
    }

    /// Transactions fully applied.
    pub fn txns_applied(&self) -> u64 {
        self.txns_applied
    }

    /// Log bytes consumed.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Pull everything the secondary device has destaged and apply the
    /// complete transactions found. Returns the number of transactions
    /// applied in this pass.
    pub fn catch_up(&mut self, cluster: &mut Cluster, now: SimTime) -> u64 {
        cluster.advance(now);
        let destaged = cluster.device(self.dev).destaged_upto();
        if destaged <= self.cursor {
            return 0;
        }
        let want = (destaged - self.cursor) as usize;
        let Some((_ready, bytes)) =
            cluster.device_mut(self.dev).read_destaged(now, 0, self.cursor, want)
        else {
            return 0;
        };
        self.cursor += bytes.len() as u64;
        self.carry.extend_from_slice(&bytes);
        let before = self.txns_applied;
        self.drain_carry();
        self.txns_applied - before
    }

    /// Decode complete records from the carry buffer, applying each
    /// transaction when its commit marker arrives (so the replica is always
    /// transaction-consistent).
    fn drain_carry(&mut self) {
        let mut consumed = 0usize;
        loop {
            match decode_one(&self.carry[consumed..]) {
                Ok((rec, used)) => {
                    consumed += used;
                    if rec.op == LogOp::Commit {
                        let txn = rec.txn_id;
                        for r in self.staged.iter().filter(|r| r.txn_id == txn) {
                            self.db.apply_record(r);
                        }
                        self.staged.retain(|r| r.txn_id != txn);
                        self.txns_applied += 1;
                    } else {
                        self.staged.push(rec);
                    }
                }
                Err(DecodeError::Truncated) => break,
                Err(_) => break, // filler or corruption: wait for more context
            }
        }
        self.carry.drain(..consumed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::encode_txn;
    use crate::storage::Database;
    use simkit::{SimDuration, SimTime};
    use xssd_core::{VillarsConfig, XLogFile};

    /// Primary writes through the fast side; replica tail-reads the
    /// secondary device and converges to the same fingerprint.
    #[test]
    fn replica_converges_to_primary_state() {
        let mut cluster = Cluster::new();
        let p = cluster.add_device(VillarsConfig::small());
        let s = cluster.add_device(VillarsConfig::small());
        let t0 = cluster.configure_replication(SimTime::ZERO, p, &[s]);

        let mut primary = Database::new();
        let tab = primary.create_table("accounts");
        let mut file = XLogFile::open(p);
        let mut replica = Replica::new(s, &["accounts"]);

        let mut now = t0;
        for i in 0..20u32 {
            let mut ctx = primary.begin();
            primary.insert(&mut ctx, tab, crate::storage::keys::composite(&[i]), vec![i as u8; 64]);
            let recs = primary.commit(ctx).unwrap();
            let bytes = encode_txn(&recs);
            now = file.x_pwrite(&mut cluster, now, &bytes).unwrap();
        }
        now = file.x_fsync(&mut cluster, now).unwrap();
        // Wait past the destage latency threshold so the tail page lands on
        // both devices' conventional sides.
        let settle = now + SimDuration::from_millis(2);
        cluster.advance(settle);
        let applied = replica.catch_up(&mut cluster, settle);
        assert_eq!(applied, 20, "all transactions shipped and applied");
        assert_eq!(replica.db.fingerprint(), primary.fingerprint());
    }

    /// A standby bootstrapped from a snapshot converges by consuming the
    /// sealed-segment archive alone — no live device needed for ranges
    /// the destage ring has recycled.
    #[test]
    fn replica_applies_archived_segments_from_a_snapshot() {
        use crate::segment::{SegmentConfig, SegmentedLog};
        let mut primary = Database::new();
        let tab = primary.create_table("t");
        let mut seg = SegmentedLog::new(SegmentConfig { segment_bytes: 128 });
        let mut stream = Vec::new();
        let mut boundaries = Vec::new();
        for i in 0..20u32 {
            let mut ctx = primary.begin();
            primary.insert(&mut ctx, tab, crate::storage::keys::composite(&[i]), vec![i as u8; 24]);
            for r in primary.commit(ctx).unwrap() {
                let start = stream.len();
                r.encode_into(&mut stream);
                seg.append_record_bytes(&stream[start..]);
            }
            boundaries.push(stream.len() as u64);
        }
        // Snapshot after the 8th transaction; retention retires the
        // archive below it.
        let snap_offset = boundaries[7];
        let mut snap_db = Database::new();
        snap_db.create_table("t");
        crate::recovery::recover(&mut snap_db, &stream[..snap_offset as usize]);
        seg.truncate_below(snap_offset.min(seg.end_lsn()));

        let mut replica = Replica::from_snapshot(0, snap_db, snap_offset);
        let applied = replica.apply_archived(&seg.views());
        assert_eq!(applied, 12, "the 12 post-snapshot transactions apply");
        assert_eq!(replica.cursor(), seg.end_lsn());
        assert_eq!(replica.db.fingerprint(), primary.fingerprint());
        // Idempotent: a second pass over the same archive applies nothing.
        assert_eq!(replica.apply_archived(&seg.views()), 0);
    }

    /// Partial shipping: a transaction whose commit marker has not arrived
    /// must not be visible on the replica.
    #[test]
    fn replica_stays_transaction_consistent() {
        let mut cluster = Cluster::new();
        let p = cluster.add_device(VillarsConfig::small());
        let s = cluster.add_device(VillarsConfig::small());
        let t0 = cluster.configure_replication(SimTime::ZERO, p, &[s]);

        let mut primary = Database::new();
        let tab = primary.create_table("t");
        let mut file = XLogFile::open(p);
        let mut replica = Replica::new(s, &["t"]);

        let mut ctx = primary.begin();
        primary.insert(&mut ctx, tab, b"k".to_vec(), b"v".to_vec());
        let recs = primary.commit(ctx).unwrap();
        let bytes = encode_txn(&recs);
        // Ship only the first record, withholding the commit marker.
        let split = recs[0].encoded_len();
        let mut now = file.x_pwrite(&mut cluster, t0, &bytes[..split]).unwrap();
        now = file.x_fsync(&mut cluster, now).unwrap();
        let settle = now + SimDuration::from_millis(2);
        cluster.advance(settle);
        let applied = replica.catch_up(&mut cluster, settle);
        assert_eq!(applied, 0);
        assert!(replica.db.peek(tab, b"k").is_none(), "uncommitted row invisible");

        // Ship the rest; the transaction becomes visible.
        let mut now2 = file.x_pwrite(&mut cluster, settle, &bytes[split..]).unwrap();
        now2 = file.x_fsync(&mut cluster, now2).unwrap();
        let settle2 = now2 + SimDuration::from_millis(2);
        cluster.advance(settle2);
        let applied2 = replica.catch_up(&mut cluster, settle2);
        assert_eq!(applied2, 1);
        assert_eq!(replica.db.peek(tab, b"k").unwrap(), b"v");
    }
}
