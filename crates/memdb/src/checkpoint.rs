//! Checkpointing: bounding recovery when the destage ring wraps.
//!
//! A Villars destage ring is finite — the paper sizes it "much larger than
//! the one on the fast side" (Fig. 3), but it still wraps, and log data
//! beyond the ring is gone. A database that runs longer than one ring's
//! worth of log therefore checkpoints: it serializes its tables through the
//! *conventional* block interface (the same device, the workload isolation
//! of §6.4 applies) and records the log offset the snapshot covers.
//! Recovery = load the newest valid snapshot + replay the log suffix from
//! its offset.
//!
//! Snapshots are written ping-pong into two slots so a crash mid-checkpoint
//! always leaves the previous one intact.

use crate::log::checksum;
use crate::storage::Database;
use simkit::SimTime;
use xssd_core::{Cluster, DeviceIndex};

/// Snapshot framing errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Magic bytes missing (slot never written or torn header).
    BadMagic,
    /// Checksum mismatch (torn or corrupt snapshot).
    BadChecksum,
    /// Structurally truncated image.
    Truncated,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => f.write_str("snapshot magic missing"),
            SnapshotError::BadChecksum => f.write_str("snapshot checksum mismatch"),
            SnapshotError::Truncated => f.write_str("snapshot truncated"),
        }
    }
}

impl std::error::Error for SnapshotError {}

const SNAP_MAGIC: &[u8; 8] = b"XSSDSNAP";

/// Metadata describing one checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// Monotonically increasing checkpoint generation.
    pub generation: u64,
    /// The snapshot reflects every log byte below this offset; recovery
    /// replays from here.
    pub log_offset: u64,
    /// Serialized snapshot length in bytes.
    pub bytes: u64,
}

/// Serialize the full database (catalog + rows) into a self-validating
/// image.
pub fn encode_snapshot(db: &Database, generation: u64, log_offset: u64) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(SNAP_MAGIC);
    // Total image length (filled in at the end): lets a reader working over
    // page-padded media find the exact image boundary.
    out.extend_from_slice(&0u64.to_le_bytes());
    out.extend_from_slice(&generation.to_le_bytes());
    out.extend_from_slice(&log_offset.to_le_bytes());
    let names = db.table_names();
    out.extend_from_slice(&(names.len() as u32).to_le_bytes());
    for (tid, name) in names.iter().enumerate() {
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        let rows = db.table(tid as u16).map(|t| t.len()).unwrap_or(0) as u64;
        out.extend_from_slice(&rows.to_le_bytes());
        db.for_each_row(tid as u16, |k, v| {
            out.extend_from_slice(&(k.len() as u32).to_le_bytes());
            out.extend_from_slice(&(v.len() as u32).to_le_bytes());
            out.extend_from_slice(k);
            out.extend_from_slice(v);
        });
    }
    let total = (out.len() + 4) as u64;
    out[8..16].copy_from_slice(&total.to_le_bytes());
    let sum = checksum(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// The exact image length framed in a snapshot header, if the prefix is
/// long enough and carries the magic. Trailing page padding is ignored.
pub fn framed_len(bytes: &[u8]) -> Result<usize, SnapshotError> {
    if bytes.len() < 16 {
        return Err(SnapshotError::Truncated);
    }
    if &bytes[..8] != SNAP_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    Ok(u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")) as usize)
}

/// Reconstruct a database from a snapshot image. Trailing bytes beyond the
/// framed length (page padding, stale data from an older, larger snapshot in
/// the same slot) are ignored.
pub fn decode_snapshot(bytes: &[u8]) -> Result<(CheckpointMeta, Database), SnapshotError> {
    let total = framed_len(bytes)?;
    if total < 16 + 8 + 8 + 4 + 4 || bytes.len() < total {
        return Err(SnapshotError::Truncated);
    }
    let bytes = &bytes[..total];
    let body = &bytes[..total - 4];
    let stored = u32::from_le_bytes(bytes[total - 4..].try_into().expect("4 bytes"));
    if checksum(body) != stored {
        return Err(SnapshotError::BadChecksum);
    }
    let mut pos = 16usize;
    let mut take = |n: usize| -> Result<&[u8], SnapshotError> {
        if pos + n > body.len() {
            return Err(SnapshotError::Truncated);
        }
        let s = &body[pos..pos + n];
        pos += n;
        Ok(s)
    };
    let generation = u64::from_le_bytes(take(8)?.try_into().expect("8"));
    let log_offset = u64::from_le_bytes(take(8)?.try_into().expect("8"));
    let tables = u32::from_le_bytes(take(4)?.try_into().expect("4")) as usize;
    let mut db = Database::new();
    for _ in 0..tables {
        let nlen = u16::from_le_bytes(take(2)?.try_into().expect("2")) as usize;
        let name = String::from_utf8_lossy(take(nlen)?).into_owned();
        let tid = db.create_table(&name);
        let rows = u64::from_le_bytes(take(8)?.try_into().expect("8"));
        for _ in 0..rows {
            let klen = u32::from_le_bytes(take(4)?.try_into().expect("4")) as usize;
            let vlen = u32::from_le_bytes(take(4)?.try_into().expect("4")) as usize;
            let key = take(klen)?.to_vec();
            let val = take(vlen)?.to_vec();
            db.install_row(tid, key, val);
        }
    }
    Ok((CheckpointMeta { generation, log_offset, bytes: total as u64 }, db))
}

/// Ping-pong checkpoint storage on a Villars conventional side.
#[derive(Debug)]
pub struct Checkpointer {
    dev: DeviceIndex,
    /// First LBA of slot 0; slot 1 follows at `base + slot_lbas`.
    base_lba: u64,
    /// LBAs reserved per slot.
    slot_lbas: u64,
    generation: u64,
}

impl Checkpointer {
    /// A checkpointer over device `dev`, using `2 * slot_lbas` blocks from
    /// `base_lba` (keep this range disjoint from the destage ring).
    pub fn new(dev: DeviceIndex, base_lba: u64, slot_lbas: u64) -> Self {
        assert!(slot_lbas > 0);
        Checkpointer { dev, base_lba, slot_lbas, generation: 0 }
    }

    fn slot_base(&self, slot: u64) -> u64 {
        self.base_lba + slot * self.slot_lbas
    }

    /// A snapshot may only claim log the device has made durable: its
    /// credit counter must have reached `log_offset` by `now`. Answered
    /// from the drains already scheduled, without advancing the device.
    fn assert_anchored(&self, cl: &Cluster, now: SimTime, log_offset: u64) {
        let reached = cl.device(self.dev).credit_reaches(log_offset);
        assert!(
            reached.is_some_and(|at| at <= now),
            "checkpoint log offset {log_offset} ahead of durable frontier at {now}: \
             device {}'s credit reaches it at {reached:?}",
            self.dev
        );
    }

    /// Write a checkpoint of `db` covering the log below `log_offset`.
    /// Returns the completion instant and the metadata. The write goes
    /// through the conventional block interface (Conventional-class flash
    /// traffic) and is durable (flushed) when this returns.
    ///
    /// Panics if `log_offset` is ahead of the device's durable credit at
    /// `now`: recovery would replay from an offset the log never reached.
    pub fn checkpoint(
        &mut self,
        cl: &mut Cluster,
        now: SimTime,
        db: &Database,
        log_offset: u64,
    ) -> (SimTime, CheckpointMeta) {
        self.write_slot(cl, now, db, log_offset, usize::MAX)
    }

    /// Crash-injection helper: begin a checkpoint of `db` but tear it —
    /// only the first `keep` bytes of the image reach the slot before the
    /// power cut. The generation is consumed (the slot this wrote into is
    /// the one the torn checkpoint was claiming), exactly as a real
    /// mid-checkpoint crash leaves things; [`Checkpointer::restore`] must
    /// then fall back to the surviving slot's previous generation.
    /// Returns the instant the torn prefix was durable and the metadata
    /// the checkpoint *would* have carried.
    pub fn checkpoint_partial(
        &mut self,
        cl: &mut Cluster,
        now: SimTime,
        db: &Database,
        log_offset: u64,
        keep: usize,
    ) -> (SimTime, CheckpointMeta) {
        self.write_slot(cl, now, db, log_offset, keep)
    }

    /// Take the next generation, encode `db`'s image and write its first
    /// `keep` bytes (all of it when `keep` reaches past the end) into the
    /// generation's slot: staged page by page, one ranged block write, then
    /// a flush.
    fn write_slot(
        &mut self,
        cl: &mut Cluster,
        now: SimTime,
        db: &Database,
        log_offset: u64,
        keep: usize,
    ) -> (SimTime, CheckpointMeta) {
        self.assert_anchored(cl, now, log_offset);
        self.generation += 1;
        let image = encode_snapshot(db, self.generation, log_offset);
        let meta =
            CheckpointMeta { generation: self.generation, log_offset, bytes: image.len() as u64 };
        let written = &image[..keep.min(image.len())];
        if written.is_empty() {
            return (now, meta);
        }
        let page = cl.device(self.dev).config().conventional.geometry.page_bytes as usize;
        let blocks = written.len().div_ceil(page) as u64;
        assert!(
            blocks <= self.slot_lbas,
            "{} B of a {}-byte snapshot exceed the checkpoint slot ({} LBAs of {page} B)",
            written.len(),
            image.len(),
            self.slot_lbas
        );
        let base = self.slot_base(self.generation % 2);
        for (i, chunk) in written.chunks(page).enumerate() {
            cl.device_mut(self.dev)
                .conventional_mut()
                .stage_write_data(base + i as u64, simkit::bytes::Bytes::copy_from_slice(chunk));
        }
        let t = cl.block_write_blocking(self.dev, now, base, blocks as u32);
        let t = cl.block_flush_blocking(self.dev, t);
        (t, meta)
    }

    /// Load the newest valid checkpoint from either slot, driving the
    /// device for the read timing. Returns `None` when no valid snapshot
    /// exists.
    pub fn restore(
        &self,
        cl: &mut Cluster,
        now: SimTime,
    ) -> Option<(SimTime, CheckpointMeta, Database)> {
        let page = cl.device(self.dev).config().conventional.geometry.page_bytes as usize;
        let mut best: Option<(SimTime, CheckpointMeta, Database)> = None;
        for slot in 0..2u64 {
            let base = self.slot_base(slot);
            // Read pages until the framed image length is covered (the
            // header tells us exactly where the image ends, so stale tail
            // pages from an older, larger snapshot in this slot are
            // ignored).
            let mut image = Vec::new();
            for i in 0..self.slot_lbas {
                match cl.device(self.dev).conventional().media_content(base + i) {
                    Some(b) => image.extend_from_slice(&b),
                    None => break,
                }
                if let Ok(total) = framed_len(&image) {
                    if image.len() >= total {
                        break;
                    }
                }
            }
            if let Ok((meta, db)) = decode_snapshot(&image) {
                // Timing: one block read per page actually used.
                let blocks = meta.bytes.div_ceil(page as u64) as u32;
                let t = cl.block_read_blocking(self.dev, now, base, blocks);
                if best.as_ref().is_none_or(|(_, m, _)| meta.generation > m.generation) {
                    best = Some((t, meta, db));
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xssd_core::{VillarsConfig, XLogFile};

    /// A device whose log holds `bytes` durable bytes, and the instant they
    /// became durable: a snapshot may claim any offset up to there.
    fn logged_device(bytes: usize) -> (Cluster, DeviceIndex, SimTime) {
        let mut cl = Cluster::new();
        let dev = cl.add_device(VillarsConfig::small());
        let mut file = XLogFile::open(dev);
        let t = file.x_pwrite(&mut cl, SimTime::ZERO, &vec![0xAB; bytes]).unwrap();
        let t = file.x_fsync(&mut cl, t).unwrap();
        (cl, dev, t)
    }

    fn sample_db() -> Database {
        let mut db = Database::new();
        let a = db.create_table("alpha");
        let b = db.create_table("beta");
        let mut ctx = db.begin();
        for i in 0..50u32 {
            db.insert(&mut ctx, a, crate::storage::keys::composite(&[i]), vec![i as u8; 40]);
        }
        db.insert(&mut ctx, b, b"solo".to_vec(), b"row".to_vec());
        db.commit(ctx).unwrap();
        db
    }

    #[test]
    fn snapshot_round_trip() {
        let db = sample_db();
        let image = encode_snapshot(&db, 3, 12345);
        let (meta, restored) = decode_snapshot(&image).unwrap();
        assert_eq!(meta.generation, 3);
        assert_eq!(meta.log_offset, 12345);
        assert_eq!(restored.fingerprint(), db.fingerprint());
        assert_eq!(restored.table_id("beta"), db.table_id("beta"));
    }

    #[test]
    fn snapshot_detects_corruption() {
        let db = sample_db();
        let mut image = encode_snapshot(&db, 1, 0);
        let mid = image.len() / 2;
        image[mid] ^= 0x40;
        assert_eq!(decode_snapshot(&image).err(), Some(SnapshotError::BadChecksum));
        assert_eq!(decode_snapshot(&image[..10]).err(), Some(SnapshotError::Truncated));
        let mut bad_magic = encode_snapshot(&db, 1, 0);
        bad_magic[0] = b'Y';
        assert_eq!(decode_snapshot(&bad_magic).err(), Some(SnapshotError::BadMagic));
    }

    #[test]
    fn checkpoint_restore_round_trip_through_device() {
        let (mut cl, dev, t0) = logged_device(1024);
        let db = sample_db();
        // Keep the slot range clear of the small destage ring (64 LBAs).
        let mut ck = Checkpointer::new(dev, 128, 16);
        let (t1, meta) = ck.checkpoint(&mut cl, t0, &db, 777);
        assert!(t1 > t0);
        assert_eq!(meta.generation, 1);
        let (t2, meta2, restored) = ck.restore(&mut cl, t1).expect("snapshot present");
        assert!(t2 > t1);
        assert_eq!(meta2.log_offset, 777);
        assert_eq!(restored.fingerprint(), db.fingerprint());
    }

    #[test]
    fn ping_pong_keeps_previous_generation() {
        let (mut cl, dev, t0) = logged_device(1024);
        let mut ck = Checkpointer::new(dev, 128, 16);
        let db1 = sample_db();
        let (t1, _) = ck.checkpoint(&mut cl, t0, &db1, 100);
        // Mutate and checkpoint again (other slot).
        let mut db2 = sample_db();
        let t = db2.table_id("alpha").unwrap();
        let mut ctx = db2.begin();
        db2.insert(&mut ctx, t, b"extra".to_vec(), b"row".to_vec());
        db2.commit(ctx).unwrap();
        let (t2, meta2) = ck.checkpoint(&mut cl, t1, &db2, 200);
        assert_eq!(meta2.generation, 2);
        // Restore returns the NEWEST.
        let (_t3, meta3, restored) = ck.restore(&mut cl, t2).expect("snapshot");
        assert_eq!(meta3.generation, 2);
        assert_eq!(restored.fingerprint(), db2.fingerprint());
    }

    #[test]
    fn shrinking_snapshot_in_reused_slot_still_restores() {
        // Regression: generation 3 writes a SMALLER image into the slot
        // generation 1 used; the stale non-zero tail pages of generation 1
        // must not confuse the reader (the framed length bounds the image).
        let (mut cl, dev, t0) = logged_device(1024);
        let mut ck = Checkpointer::new(dev, 128, 32);
        let big = sample_db(); // ~50 rows
        let mut small = Database::new();
        let t = small.create_table("alpha");
        small.create_table("beta");
        let mut ctx = small.begin();
        small.insert(&mut ctx, t, b"only".to_vec(), b"row".to_vec());
        small.commit(ctx).unwrap();

        let (t1, m1) = ck.checkpoint(&mut cl, t0, &big, 10); // slot 1
        let (t2, _m2) = ck.checkpoint(&mut cl, t1, &big, 20); // slot 0
        let (t3, m3) = ck.checkpoint(&mut cl, t2, &small, 30); // slot 1 again, smaller
        assert!(m3.bytes < m1.bytes, "test needs a shrinking image");
        let (_t, meta, restored) = ck.restore(&mut cl, t3).expect("restores");
        assert_eq!(meta.generation, 3, "newest generation wins");
        assert_eq!(restored.fingerprint(), small.fingerprint());
    }

    #[test]
    fn checkpoint_survives_power_failure() {
        let (mut cl, dev, t0) = logged_device(1024);
        let mut ck = Checkpointer::new(dev, 128, 16);
        let db = sample_db();
        let (t1, _) = ck.checkpoint(&mut cl, t0, &db, 42);
        cl.power_fail(dev, t1);
        cl.reboot_device(dev);
        let (_t, meta, restored) = ck.restore(&mut cl, t1).expect("flushed checkpoint survives");
        assert_eq!(meta.log_offset, 42);
        assert_eq!(restored.fingerprint(), db.fingerprint());
    }

    #[test]
    fn torn_checkpoint_restores_the_surviving_slot() {
        let (mut cl, dev, t0) = logged_device(1024);
        let mut ck = Checkpointer::new(dev, 128, 16);
        let db1 = sample_db();
        let (t1, m1) = ck.checkpoint(&mut cl, t0, &db1, 100);
        // Generation 2 tears mid-image; the crash lands before the slot
        // is complete.
        let mut db2 = sample_db();
        let tab = db2.table_id("alpha").unwrap();
        let mut ctx = db2.begin();
        db2.insert(&mut ctx, tab, b"post-snap".to_vec(), b"row".to_vec());
        db2.commit(ctx).unwrap();
        let (t2, m2) = ck.checkpoint_partial(&mut cl, t1, &db2, 200, m1.bytes as usize / 2);
        cl.power_fail(dev, t2);
        cl.reboot_device(dev);
        // The surviving generation-1 snapshot wins.
        let (_t, meta, restored) = ck.restore(&mut cl, t2).expect("survivor slot valid");
        assert_eq!(meta.generation, 1);
        assert_eq!(meta.log_offset, 100);
        assert_eq!(restored.fingerprint(), db1.fingerprint());
        assert_eq!(m2.generation, 2, "the torn generation was consumed");
        // The next full checkpoint (generation 3) lands in the other slot
        // and takes over cleanly.
        let (t3, m3) = ck.checkpoint(&mut cl, t2, &db2, 200);
        assert_eq!(m3.generation, 3);
        let (_t, meta3, restored3) = ck.restore(&mut cl, t3).expect("snapshot");
        assert_eq!(meta3.generation, 3);
        assert_eq!(restored3.fingerprint(), db2.fingerprint());
    }

    #[test]
    fn a_partial_checkpoint_of_the_whole_image_is_a_checkpoint() {
        let db = sample_db();
        let mut restored = Vec::new();
        for partial in [false, true] {
            let (mut cl, dev, t0) = logged_device(1024);
            let mut ck = Checkpointer::new(dev, 128, 16);
            let (t1, meta) = if partial {
                // `keep` covers the whole image of generation 1.
                let len = encode_snapshot(&db, 1, 300).len();
                ck.checkpoint_partial(&mut cl, t0, &db, 300, len)
            } else {
                ck.checkpoint(&mut cl, t0, &db, 300)
            };
            let (_t, back, got) = ck.restore(&mut cl, t1).expect("snapshot present");
            assert_eq!(back, meta);
            restored.push((t1, back, got.fingerprint()));
        }
        assert_eq!(restored[0], restored[1]);
        assert_eq!(restored[0].1.generation, 1);
        assert_eq!(restored[0].2, db.fingerprint());
    }

    #[test]
    #[should_panic(expected = "checkpoint log offset 1025 ahead of durable frontier")]
    fn a_checkpoint_cannot_outrun_durability() {
        let (mut cl, dev, t0) = logged_device(1024);
        let mut ck = Checkpointer::new(dev, 128, 16);
        // One byte past the durable log: recovery would replay from an
        // offset the log never reached.
        ck.checkpoint(&mut cl, t0, &sample_db(), 1025);
    }

    #[test]
    fn empty_device_restores_nothing() {
        let mut cl = Cluster::new();
        let dev = cl.add_device(VillarsConfig::small());
        let ck = Checkpointer::new(dev, 128, 16);
        assert!(ck.restore(&mut cl, SimTime::ZERO).is_none());
    }
}
