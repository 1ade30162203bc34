//! Hot-standby replica apply over a Villars secondary.
//!
//! The secondary *server* reads the shipped log from its own Villars
//! device's destage ring (paper Fig. 1 right, step (3): "the update of the
//! remote memory is done by the remote Database") and replays it into its
//! in-memory tables — the log-shipping consumer side.

use crate::log::{decode_one, DecodeError, LogOp};
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
    ///
    /// Panics if the device's destage ring has recycled past the cursor:
    /// the standby fell behind by more than the ring holds and can never
    /// catch up from it.
    pub fn catch_up(&mut self, cluster: &mut Cluster, now: SimTime) -> u64 {
        cluster.advance(now);
        let destaged = cluster.device(self.dev).destaged_upto();
        if destaged <= self.cursor {
            return 0;
        }
        let want = (destaged - self.cursor) as usize;
        let device = cluster.device_mut(self.dev);
        let Some((_ready, bytes)) = device.read_destaged(now, 0, self.cursor, want) else {
            panic!(
                "replica cursor {} fell off device {}'s destage ring (readable from {:?}, \
                 destaged up to {destaged})",
                self.cursor,
                self.dev,
                device.destage_readable_from(0)
            )
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

    /// A standby that falls behind by more than its device's destage ring
    /// holds stops with the cursor and the ring's readable start named,
    /// instead of returning 0 on every call and never advancing.
    #[test]
    #[should_panic(expected = "replica cursor 0 fell off device 1's destage ring")]
    fn a_replica_behind_the_ring_panics() {
        let mut cluster = Cluster::new();
        let p = cluster.add_device(VillarsConfig::small());
        let s = cluster.add_device(VillarsConfig::small());
        let mut now = cluster.configure_replication(SimTime::ZERO, p, &[s]);
        let mut file = XLogFile::open(p);
        let mut replica = Replica::new(s, &["t"]);
        // Far more than the small destage ring (64 LBAs) retains, with no
        // catch-up in between.
        for i in 0..2000u32 {
            now = file.x_pwrite(&mut cluster, now, &[i as u8; 200]).unwrap();
            now = file.x_fsync(&mut cluster, now).unwrap();
        }
        let settle = now + SimDuration::from_millis(2);
        replica.catch_up(&mut cluster, settle);
    }
}
