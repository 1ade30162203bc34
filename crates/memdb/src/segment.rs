//! Segmented WAL lifecycle: sealed segments, archive retention, and
//! checkpoint-anchored truncation.
//!
//! The Starcounter retention model: the log is written as fixed-size
//! *segments* in the contiguous LSN byte space. The active segment seals
//! (a whole-segment CRC is stamped and the segment moves to the archive)
//! when the next record would not fit — records never span segments — and
//! a completed checkpoint advances the *truncation horizon*, retiring
//! every archived segment that ends at or below it. Recovery is therefore
//! always bounded: latest snapshot + the segments after its log offset,
//! never total history.
//!
//! Segmentation is host-side bookkeeping over the same byte stream the
//! backend persists — enabling it changes nothing about what is written
//! to the device, only what the host retains for replay and rejoin.

use crate::log::checksum;
use std::collections::VecDeque;

/// Segmented-log configuration.
#[derive(Debug, Clone, Copy)]
pub struct SegmentConfig {
    /// Segment capacity in bytes. A record longer than this cannot be
    /// appended (the WAL panics rather than silently spanning segments).
    pub segment_bytes: u64,
}

impl Default for SegmentConfig {
    fn default() -> Self {
        // Small relative to real systems on purpose: simulated runs are
        // short, and rotation only exercises anything if it happens.
        SegmentConfig { segment_bytes: 64 << 10 }
    }
}

/// A sealed (immutable, archived) log segment.
#[derive(Debug, Clone)]
pub struct SealedSegment {
    /// Sequence number (0-based, monotonic across the log's lifetime).
    pub seq: u64,
    /// LSN of the segment's first byte.
    pub base_lsn: u64,
    /// The segment's record bytes (whole records only).
    pub bytes: Vec<u8>,
    /// The log's [`checksum`] over `bytes`, stamped at seal time.
    pub crc: u32,
}

impl SealedSegment {
    /// LSN one past the segment's last byte.
    pub fn end_lsn(&self) -> u64 {
        self.base_lsn + self.bytes.len() as u64
    }

    /// Whether the stored CRC matches the bytes.
    pub fn verify(&self) -> bool {
        checksum(&self.bytes) == self.crc
    }
}

/// A borrowed view of one segment for replay: archived segments carry
/// their seal CRC; the active tail does not (its durable prefix is
/// validated per-record instead).
#[derive(Debug, Clone, Copy)]
pub struct SegmentView<'a> {
    /// LSN of the first byte.
    pub base_lsn: u64,
    /// The segment bytes.
    pub bytes: &'a [u8],
    /// Whole-segment CRC (sealed segments only).
    pub crc: Option<u32>,
}

impl SegmentView<'_> {
    /// Whether the bytes match the seal CRC (vacuously true for the
    /// unsealed tail, which carries none).
    pub fn verify(&self) -> bool {
        self.crc.is_none_or(|crc| checksum(self.bytes) == crc)
    }
}

/// The segmented log: an active segment plus the sealed archive.
#[derive(Debug, Default)]
pub struct SegmentedLog {
    config: SegmentConfig,
    /// Bytes of the active (unsealed) segment.
    active: Vec<u8>,
    /// LSN of the active segment's first byte.
    active_base: u64,
    /// Sealed segments not yet retired, oldest first.
    sealed: VecDeque<SealedSegment>,
    /// Next seal's sequence number.
    next_seq: u64,
    /// Truncation horizon: everything below is covered by a completed
    /// checkpoint and no longer needed for recovery.
    horizon: u64,
    seals: u64,
    retired_segments: u64,
    retired_bytes: u64,
}

impl SegmentedLog {
    /// An empty segmented log.
    pub fn new(config: SegmentConfig) -> Self {
        assert!(config.segment_bytes > 0, "segment_bytes must be positive");
        SegmentedLog { config, ..Default::default() }
    }

    /// The configuration.
    pub fn config(&self) -> &SegmentConfig {
        &self.config
    }

    /// Append one encoded record. Seals the active segment first if the
    /// record would not fit (records never span segments), and seals
    /// again immediately if the record lands exactly on the boundary.
    ///
    /// Panics if a single record exceeds the segment capacity — the
    /// unbounded-growth hazard this subsystem exists to remove would
    /// otherwise silently re-open as cross-segment spill.
    pub fn append_record_bytes(&mut self, record: &[u8]) {
        let len = record.len() as u64;
        assert!(
            len <= self.config.segment_bytes,
            "record of {len} bytes exceeds the {}-byte segment capacity",
            self.config.segment_bytes
        );
        if self.active.len() as u64 + len > self.config.segment_bytes {
            self.seal();
        }
        self.active.extend_from_slice(record);
        if self.active.len() as u64 == self.config.segment_bytes {
            self.seal();
        }
    }

    /// Seal the active segment (no-op when empty): stamp its CRC and move
    /// it to the archive.
    pub fn seal(&mut self) {
        if self.active.is_empty() {
            return;
        }
        let bytes = std::mem::take(&mut self.active);
        let crc = checksum(&bytes);
        let base_lsn = self.active_base;
        self.active_base += bytes.len() as u64;
        self.sealed.push_back(SealedSegment { seq: self.next_seq, base_lsn, bytes, crc });
        self.next_seq += 1;
        self.seals += 1;
    }

    /// Advance the truncation horizon to `horizon` (a completed
    /// checkpoint's log offset) and retire every sealed segment that ends
    /// at or below it. Returns how many segments were retired. A horizon
    /// behind the current one is a no-op (checkpoints only move forward).
    pub fn truncate_below(&mut self, horizon: u64) -> usize {
        if horizon <= self.horizon {
            return 0;
        }
        self.horizon = horizon;
        let mut retired = 0;
        while let Some(front) = self.sealed.front() {
            if front.end_lsn() > horizon {
                break;
            }
            let seg = self.sealed.pop_front().expect("front exists");
            self.retired_bytes += seg.bytes.len() as u64;
            self.retired_segments += 1;
            retired += 1;
        }
        retired
    }

    /// The truncation horizon.
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// LSN of the oldest retained byte (archive start); everything below
    /// has been retired and can only be recovered via a snapshot.
    pub fn retained_from(&self) -> u64 {
        self.sealed.front().map_or(self.active_base, |s| s.base_lsn)
    }

    /// LSN one past the last appended byte.
    pub fn end_lsn(&self) -> u64 {
        self.active_base + self.active.len() as u64
    }

    /// Sealed segments currently retained, oldest first.
    pub fn sealed(&self) -> impl Iterator<Item = &SealedSegment> {
        self.sealed.iter()
    }

    /// Retained segment count (sealed + the active segment if non-empty).
    pub fn segment_count(&self) -> usize {
        self.sealed.len() + usize::from(!self.active.is_empty())
    }

    /// Bytes retained in the sealed archive.
    pub fn archived_bytes(&self) -> u64 {
        self.sealed.iter().map(|s| s.bytes.len() as u64).sum()
    }

    /// Seals performed over the log's lifetime.
    pub fn seals(&self) -> u64 {
        self.seals
    }

    /// Segments retired by truncation over the log's lifetime.
    pub fn retired_segments(&self) -> u64 {
        self.retired_segments
    }

    /// Bytes retired by truncation over the log's lifetime.
    pub fn retired_bytes(&self) -> u64 {
        self.retired_bytes
    }

    /// Borrowed views of every retained segment in LSN order — the sealed
    /// archive (with CRCs) followed by the active tail (without). This is
    /// the replay input for [`crate::recovery::replay_segments`].
    pub fn views(&self) -> Vec<SegmentView<'_>> {
        let mut out: Vec<SegmentView<'_>> = self
            .sealed
            .iter()
            .map(|s| SegmentView { base_lsn: s.base_lsn, bytes: &s.bytes, crc: Some(s.crc) })
            .collect();
        if !self.active.is_empty() {
            out.push(SegmentView { base_lsn: self.active_base, bytes: &self.active, crc: None });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push(seg: &mut SegmentedLog, n: usize) {
        seg.append_record_bytes(&vec![0xA5u8; n]);
    }

    #[test]
    fn seals_rotate_when_full() {
        let mut seg = SegmentedLog::new(SegmentConfig { segment_bytes: 100 });
        push(&mut seg, 60);
        assert_eq!(seg.segment_count(), 1);
        // 60 + 60 > 100: seal early, never span.
        push(&mut seg, 60);
        assert_eq!(seg.seals(), 1);
        let first = seg.sealed().next().unwrap();
        assert_eq!(first.base_lsn, 0);
        assert_eq!(first.bytes.len(), 60);
        assert!(first.verify());
        assert_eq!(seg.end_lsn(), 120);
    }

    #[test]
    fn exact_boundary_seals_immediately() {
        let mut seg = SegmentedLog::new(SegmentConfig { segment_bytes: 100 });
        push(&mut seg, 40);
        push(&mut seg, 60); // lands exactly on the boundary
        assert_eq!(seg.seals(), 1);
        assert_eq!(seg.sealed().next().unwrap().bytes.len(), 100);
        assert_eq!(seg.segment_count(), 1, "active is empty after an exact fill");
        push(&mut seg, 10);
        assert_eq!(seg.views().last().unwrap().base_lsn, 100);
    }

    #[test]
    #[should_panic(expected = "exceeds the 100-byte segment capacity")]
    fn oversized_record_panics_instead_of_spanning() {
        let mut seg = SegmentedLog::new(SegmentConfig { segment_bytes: 100 });
        push(&mut seg, 101);
    }

    #[test]
    fn truncation_retires_covered_segments_only() {
        let mut seg = SegmentedLog::new(SegmentConfig { segment_bytes: 10 });
        for _ in 0..5 {
            push(&mut seg, 10); // five sealed segments, bases 0..50
        }
        push(&mut seg, 3); // active tail at 50
        assert_eq!(seg.segment_count(), 6);
        // Horizon mid-segment: only fully covered segments retire.
        assert_eq!(seg.truncate_below(25), 2);
        assert_eq!(seg.retained_from(), 20);
        assert_eq!(seg.retired_bytes(), 20);
        // Moving the horizon backwards is a no-op.
        assert_eq!(seg.truncate_below(10), 0);
        assert_eq!(seg.retained_from(), 20);
        // Horizon past everything sealed retires the rest of the archive
        // but never the active tail.
        assert_eq!(seg.truncate_below(53), 3);
        assert_eq!(seg.segment_count(), 1);
        assert_eq!(seg.retained_from(), 50);
        assert_eq!(seg.end_lsn(), 53);
    }

    #[test]
    fn views_cover_the_retained_range_contiguously() {
        let mut seg = SegmentedLog::new(SegmentConfig { segment_bytes: 32 });
        for i in 0..20 {
            push(&mut seg, 7 + (i % 5));
        }
        seg.truncate_below(40);
        let views = seg.views();
        assert!(!views.is_empty());
        assert_eq!(views[0].base_lsn, seg.retained_from());
        let mut expect = views[0].base_lsn;
        for v in &views {
            assert_eq!(v.base_lsn, expect, "contiguous");
            expect += v.bytes.len() as u64;
        }
        assert_eq!(expect, seg.end_lsn());
    }
}
