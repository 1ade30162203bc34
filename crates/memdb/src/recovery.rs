//! Crash recovery from the destaged log.
//!
//! After a power failure, the Villars device's crash protocol guarantees
//! that everything the credit counter covered is on the conventional side
//! (paper §4.1). Recovery tail-reads the destage ring, decodes the record
//! stream, and redoes transactions that reached their commit marker —
//! a compact analysis+redo pass in the ARIES spirit (undo is unnecessary:
//! uncommitted transactions never install state in a main-memory engine
//! whose checkpoint is the log itself).
//!
//! A checkpointed database recovers in the same one pass: restore the
//! newest snapshot ([`crate::checkpoint::Checkpointer::restore`]), read the
//! destaged log from the snapshot's offset
//! ([`crate::failover::durable_log_stream`]), and [`recover`] over it. Replay
//! cost is therefore a function of the checkpoint interval, never of total
//! history.

use crate::log::{decode_stream, LogOp, LogRecord};
use crate::storage::Database;
use std::collections::HashSet;

/// What a recovery pass found and applied.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Records decoded from the durable log stream.
    pub records_scanned: usize,
    /// Distinct transactions with a commit marker.
    pub txns_committed: usize,
    /// Records belonging to transactions without a commit marker (dropped).
    pub records_uncommitted: usize,
    /// Bytes of the stream consumed before the first undecodable byte.
    pub bytes_consumed: usize,
    /// Bytes after the last whole record (a torn tail, or everything from
    /// the first record that fails its checksum).
    pub torn_bytes: usize,
}

/// Replay a durable log byte stream into `db`.
///
/// Two passes: (1) analysis — find transactions whose commit marker made it
/// to durable storage; (2) redo — apply exactly those transactions' records
/// in log order.
pub fn recover(db: &mut Database, log_stream: &[u8]) -> RecoveryReport {
    let (records, bytes_consumed) = decode_stream(log_stream);
    let committed: HashSet<u64> =
        records.iter().filter(|r| r.op == LogOp::Commit).map(|r| r.txn_id).collect();
    let mut records_uncommitted = 0usize;
    for rec in records.iter().filter(|r| r.op != LogOp::Commit) {
        if committed.contains(&rec.txn_id) {
            db.apply_record(rec);
        } else {
            records_uncommitted += 1;
        }
    }
    RecoveryReport {
        records_scanned: records.len(),
        txns_committed: committed.len(),
        records_uncommitted,
        bytes_consumed,
        torn_bytes: log_stream.len() - bytes_consumed,
    }
}

impl simkit::Instrument for RecoveryReport {
    fn instrument(&self, out: &mut simkit::Scope<'_>) {
        out.counter("recovery.replay_records", self.records_scanned as u64);
        out.counter("recovery.replay_bytes", self.bytes_consumed as u64);
        out.counter("recovery.txns_committed", self.txns_committed as u64);
        out.counter("recovery.torn_bytes", self.torn_bytes as u64);
    }
}

/// Encode a transaction's records (ending in its commit marker) — test and
/// replica helper.
pub fn encode_txn(records: &[LogRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in records {
        r.encode_into(&mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::Database;

    fn committed_txn(db: &mut Database, t: u16, key: &[u8], val: &[u8]) -> Vec<u8> {
        let mut ctx = db.begin();
        db.insert(&mut ctx, t, key.to_vec(), val.to_vec());
        encode_txn(&db.commit(ctx).unwrap())
    }

    #[test]
    fn committed_txns_replay() {
        let mut primary = Database::new();
        let t = primary.create_table("t");
        let mut stream = Vec::new();
        stream.extend(committed_txn(&mut primary, t, b"a", b"1"));
        stream.extend(committed_txn(&mut primary, t, b"b", b"2"));

        let mut recovered = Database::new();
        recovered.create_table("t");
        let report = recover(&mut recovered, &stream);
        assert_eq!(report.txns_committed, 2);
        assert_eq!(report.records_uncommitted, 0);
        assert_eq!(recovered.fingerprint(), primary.fingerprint());
    }

    #[test]
    fn uncommitted_tail_dropped() {
        let mut primary = Database::new();
        let t = primary.create_table("t");
        let mut stream = Vec::new();
        stream.extend(committed_txn(&mut primary, t, b"a", b"1"));
        // A transaction whose commit marker never made it: records only.
        let orphan = crate::log::LogRecord {
            txn_id: 999,
            op: LogOp::Insert,
            table: t,
            key: b"ghost".to_vec().into(),
            value: b"x".to_vec().into(),
        };
        stream.extend(orphan.encode());

        let mut recovered = Database::new();
        recovered.create_table("t");
        let report = recover(&mut recovered, &stream);
        assert_eq!(report.txns_committed, 1);
        assert_eq!(report.records_uncommitted, 1);
        assert!(recovered.peek(t, b"ghost").is_none());
        assert_eq!(recovered.peek(t, b"a").unwrap(), b"1");
    }

    #[test]
    fn torn_tail_stops_cleanly() {
        let mut primary = Database::new();
        let t = primary.create_table("t");
        let mut stream = Vec::new();
        stream.extend(committed_txn(&mut primary, t, b"a", b"1"));
        let clean_len = stream.len();
        let second = committed_txn(&mut primary, t, b"b", b"2");
        stream.extend(&second[..second.len() / 2]); // torn

        let mut recovered = Database::new();
        recovered.create_table("t");
        let report = recover(&mut recovered, &stream);
        assert_eq!((report.bytes_consumed, report.torn_bytes), (clean_len, second.len() / 2));
        assert_eq!(report.txns_committed, 1);
        assert!(recovered.peek(t, b"b").is_none());
    }

    #[test]
    fn filler_after_records_is_ignored() {
        let mut primary = Database::new();
        let t = primary.create_table("t");
        let mut stream = Vec::new();
        stream.extend(committed_txn(&mut primary, t, b"a", b"1"));
        stream.extend(std::iter::repeat_n(0u8, 4096)); // destage filler

        let mut recovered = Database::new();
        recovered.create_table("t");
        let report = recover(&mut recovered, &stream);
        assert_eq!(report.txns_committed, 1);
        assert_eq!(recovered.peek(t, b"a").unwrap(), b"1");
    }

    #[test]
    fn suffix_replay_after_a_snapshot_matches_full_recovery() {
        let mut primary = Database::new();
        let t = primary.create_table("t");
        let mut stream = Vec::new();
        let mut boundaries = Vec::new();
        for i in 0..30usize {
            let key = format!("k{i:04}");
            stream.extend(committed_txn(
                &mut primary,
                t,
                key.as_bytes(),
                &vec![i as u8; 5 + i % 17],
            ));
            boundaries.push(stream.len());
        }
        // Snapshot after the 11th transaction: restore = replay of the
        // prefix, then the suffix from the snapshot's offset only.
        let snap = boundaries[10];
        let mut restored = Database::new();
        restored.create_table("t");
        recover(&mut restored, &stream[..snap]);
        let report = recover(&mut restored, &stream[snap..]);
        assert_eq!(restored.fingerprint(), primary.fingerprint());
        assert_eq!((report.txns_committed, report.bytes_consumed), (19, stream.len() - snap));
        assert_eq!(report.torn_bytes, 0);
    }

    #[test]
    fn deletes_replay() {
        let mut primary = Database::new();
        let t = primary.create_table("t");
        let mut stream = Vec::new();
        stream.extend(committed_txn(&mut primary, t, b"a", b"1"));
        let mut ctx = primary.begin();
        primary.delete(&mut ctx, t, b"a".to_vec());
        stream.extend(encode_txn(&primary.commit(ctx).unwrap()));

        let mut recovered = Database::new();
        recovered.create_table("t");
        recover(&mut recovered, &stream);
        assert!(recovered.peek(t, b"a").is_none());
        assert_eq!(recovered.fingerprint(), primary.fingerprint());
    }
}
