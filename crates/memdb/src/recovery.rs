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
//! With the segmented lifecycle (`crate::segment`) the same pass runs
//! bounded: [`replay_segments`] starts at the latest snapshot's log
//! offset and replays only the retained segments after it — sealed
//! segments verified by their whole-segment CRC, the durable tail
//! validated per record and truncated at the last valid CRC. Replay cost
//! is therefore a function of the checkpoint interval, never of total
//! history.

use crate::log::{decode_stream, LogOp, LogRecord};
use crate::segment::SegmentView;
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
}

/// The analysis + redo pass both entry points share: find the transactions
/// whose commit marker is among `records`, apply exactly their records in log
/// order, and return `(transactions committed, records dropped)`.
fn redo_committed(db: &mut Database, records: &[LogRecord]) -> (usize, usize) {
    let committed: HashSet<u64> =
        records.iter().filter(|r| r.op == LogOp::Commit).map(|r| r.txn_id).collect();
    let mut dropped = 0usize;
    for rec in records.iter().filter(|r| r.op != LogOp::Commit) {
        if committed.contains(&rec.txn_id) {
            db.apply_record(rec);
        } else {
            dropped += 1;
        }
    }
    (committed.len(), dropped)
}

/// Replay a durable log byte stream into `db`.
///
/// Two passes: (1) analysis — find transactions whose commit marker made it
/// to durable storage; (2) redo — apply exactly those transactions' records
/// in log order.
pub fn recover(db: &mut Database, log_stream: &[u8]) -> RecoveryReport {
    let (records, bytes_consumed) = decode_stream(log_stream);
    let (txns_committed, records_uncommitted) = redo_committed(db, &records);
    RecoveryReport {
        records_scanned: records.len(),
        txns_committed,
        records_uncommitted,
        bytes_consumed,
    }
}

/// What a segment-bounded replay found and applied.
#[derive(Debug, Clone, Default)]
pub struct SegmentReplayReport {
    /// Records decoded from the replayed segment range.
    pub records_scanned: usize,
    /// Distinct transactions with a commit marker in that range.
    pub txns_committed: usize,
    /// Records of transactions without a durable commit marker (dropped).
    pub records_uncommitted: usize,
    /// Bytes decoded and considered for redo (snapshot offset → last
    /// valid record at or below the durable frontier).
    pub replay_bytes: u64,
    /// Segments that contributed at least one replayed byte.
    pub segments_replayed: usize,
    /// Durable-range bytes discarded past the last valid record (torn
    /// tail, or everything after a sealed segment that failed its CRC).
    pub torn_bytes: u64,
}

/// Replay *latest snapshot + subsequent segments* into `db`.
///
/// `segments` are the retained segments in LSN order (e.g.
/// [`crate::segment::SegmentedLog::views`]); `snapshot_offset` is the
/// restored checkpoint's log offset (always a record boundary — flushes
/// carry whole records); `durable_upto` clamps replay to what the log
/// device actually persisted before the crash — bytes beyond it never
/// left the host and must not be resurrected.
///
/// Sealed segments (those carrying a CRC) that are fully durable are
/// verified wholesale; a mismatch stops replay there, discarding the rest
/// of the durable range. The tail segment is validated per record, and
/// replay truncates at the last record whose CRC checks out. The
/// analysis pass then redoes exactly the transactions whose commit marker
/// survived those cuts.
///
/// Panics if the archive has a gap, or was truncated past
/// `snapshot_offset` (retention retired a segment the snapshot still
/// needed — a lifecycle protocol violation, not a recoverable state).
pub fn replay_segments(
    db: &mut Database,
    snapshot_offset: u64,
    segments: &[SegmentView<'_>],
    durable_upto: u64,
) -> SegmentReplayReport {
    assert!(
        snapshot_offset <= durable_upto,
        "snapshot offset {snapshot_offset} ahead of the durable frontier {durable_upto}"
    );
    let mut report = SegmentReplayReport::default();
    if segments.is_empty() {
        return report;
    }
    assert!(
        segments[0].base_lsn <= snapshot_offset,
        "archive truncated past the snapshot: oldest retained byte {} > snapshot offset {}",
        segments[0].base_lsn,
        snapshot_offset
    );
    for w in segments.windows(2) {
        assert_eq!(
            w[0].base_lsn + w[0].bytes.len() as u64,
            w[1].base_lsn,
            "segment archive has a gap"
        );
    }

    let mut records = Vec::new();
    let mut stopped = false;
    for seg in segments {
        let len = seg.bytes.len() as u64;
        let start = snapshot_offset.saturating_sub(seg.base_lsn).min(len);
        let end = durable_upto.saturating_sub(seg.base_lsn).min(len);
        if end <= start {
            continue; // entirely below the snapshot or beyond durability
        }
        if stopped {
            report.torn_bytes += end - start;
            continue;
        }
        let fully_durable = seg.base_lsn + len <= durable_upto;
        if fully_durable && !seg.verify() {
            report.torn_bytes += end - start;
            stopped = true;
            continue;
        }
        let region = &seg.bytes[start as usize..end as usize];
        let (mut recs, consumed) = decode_stream(region);
        if consumed > 0 {
            report.segments_replayed += 1;
        }
        report.replay_bytes += consumed as u64;
        records.append(&mut recs);
        if consumed < region.len() {
            report.torn_bytes += (region.len() - consumed) as u64;
            stopped = true;
        }
    }

    (report.txns_committed, report.records_uncommitted) = redo_committed(db, &records);
    report.records_scanned = records.len();
    report
}

impl simkit::Instrument for SegmentReplayReport {
    fn instrument(&self, out: &mut simkit::Scope<'_>) {
        out.counter("recovery.replay_records", self.records_scanned as u64);
        out.counter("recovery.replay_bytes", self.replay_bytes);
        out.counter("recovery.segments_replayed", self.segments_replayed as u64);
        out.counter("recovery.txns_committed", self.txns_committed as u64);
        out.counter("recovery.torn_bytes", self.torn_bytes);
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
        assert_eq!(report.bytes_consumed, clean_len);
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

    /// A primary, its flat log stream, a parallel [`SegmentedLog`], and
    /// the record-boundary offset after each committed transaction.
    fn segmented_history(
        txns: usize,
        segment_bytes: u64,
    ) -> (Database, Vec<u8>, crate::segment::SegmentedLog, Vec<u64>) {
        let mut primary = Database::new();
        let t = primary.create_table("t");
        let mut seg =
            crate::segment::SegmentedLog::new(crate::segment::SegmentConfig { segment_bytes });
        let mut stream = Vec::new();
        let mut boundaries = Vec::new();
        for i in 0..txns {
            let mut ctx = primary.begin();
            primary.insert(&mut ctx, t, format!("k{i:04}").into_bytes(), vec![i as u8; 5 + i % 17]);
            for r in primary.commit(ctx).unwrap() {
                let start = stream.len();
                r.encode_into(&mut stream);
                seg.append_record_bytes(&stream[start..]);
            }
            boundaries.push(stream.len() as u64);
        }
        (primary, stream, seg, boundaries)
    }

    fn fresh_like(primary: &Database) -> Database {
        let mut db = Database::new();
        db.create_table("t");
        let _ = primary; // same catalog by construction
        db
    }

    #[test]
    fn segment_replay_matches_full_recovery() {
        let (primary, stream, seg, boundaries) = segmented_history(30, 96);
        let durable = stream.len() as u64;
        // Snapshot after the 11th transaction: restore = replay of the
        // prefix, then segment replay of the suffix only.
        let snap = boundaries[10];
        let mut via_segments = fresh_like(&primary);
        recover(&mut via_segments, &stream[..snap as usize]);
        let report = replay_segments(&mut via_segments, snap, &seg.views(), durable);
        assert_eq!(via_segments.fingerprint(), primary.fingerprint());
        assert_eq!(report.replay_bytes, durable - snap);
        assert_eq!(report.torn_bytes, 0);
        assert!(report.segments_replayed > 1, "96-byte segments must have rotated");
    }

    #[test]
    fn segment_replay_survives_truncation_to_the_snapshot() {
        let (primary, stream, mut seg, boundaries) = segmented_history(30, 96);
        let durable = stream.len() as u64;
        let snap = boundaries[14];
        let retired = seg.truncate_below(snap);
        assert!(retired > 0);
        let mut db = fresh_like(&primary);
        recover(&mut db, &stream[..snap as usize]);
        replay_segments(&mut db, snap, &seg.views(), durable);
        assert_eq!(db.fingerprint(), primary.fingerprint());
    }

    #[test]
    #[should_panic(expected = "archive truncated past the snapshot")]
    fn replay_rejects_an_archive_truncated_past_the_snapshot() {
        let (primary, _stream, mut seg, boundaries) = segmented_history(30, 96);
        // Horizon well past the snapshot we then try to replay from.
        seg.truncate_below(boundaries[20]);
        let mut db = fresh_like(&primary);
        replay_segments(&mut db, boundaries[2], &seg.views(), boundaries[29]);
    }

    #[test]
    fn segment_replay_clamps_at_the_durable_frontier() {
        let (primary, stream, seg, boundaries) = segmented_history(30, 96);
        // Crash with the tail only partially durable: mid-record.
        let durable = boundaries[22] + 7;
        let mut via_segments = fresh_like(&primary);
        let report = replay_segments(&mut via_segments, 0, &seg.views(), durable);
        assert!(report.torn_bytes > 0, "mid-record clamp leaves a torn tail");
        // Oracle: the legacy pass over exactly the durable prefix.
        let mut oracle = fresh_like(&primary);
        recover(&mut oracle, &stream[..durable as usize]);
        assert_eq!(via_segments.fingerprint(), oracle.fingerprint());
        assert_ne!(via_segments.fingerprint(), primary.fingerprint());
    }

    #[test]
    fn corrupt_sealed_segment_stops_replay() {
        let (primary, _stream, seg, _boundaries) = segmented_history(30, 96);
        let durable = seg.end_lsn();
        let mut owned: Vec<(u64, Vec<u8>, Option<u32>)> =
            seg.views().iter().map(|v| (v.base_lsn, v.bytes.to_vec(), v.crc)).collect();
        assert!(owned.len() > 3);
        owned[1].1[5] ^= 0xFF; // corrupt the second sealed segment
        let views: Vec<crate::segment::SegmentView<'_>> = owned
            .iter()
            .map(|(base, bytes, crc)| crate::segment::SegmentView {
                base_lsn: *base,
                bytes,
                crc: *crc,
            })
            .collect();
        let mut db = fresh_like(&primary);
        let report = replay_segments(&mut db, 0, &views, durable);
        // Replay stopped at the bad segment: only segment 0 applied, the
        // corrupt segment and everything after counted as torn.
        assert_eq!(report.segments_replayed, 1);
        assert_eq!(report.replay_bytes + report.torn_bytes, durable);
        assert_ne!(db.fingerprint(), primary.fingerprint());
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
