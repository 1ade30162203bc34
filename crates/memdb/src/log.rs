//! Write-ahead-log records and their wire encoding.
//!
//! The encoding is self-framing (magic + lengths + checksum) so a recovery
//! scan over the destaged log stream can detect a torn tail — even though a
//! Villars device's crash semantics should never produce one (paper §4.1),
//! the database verifies rather than trusts.

use crate::key::SmallKey;
use simkit::Bytes;

/// Table identifier within the catalog.
pub type TableId = u16;

/// What a record does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogOp {
    /// Insert a new row.
    Insert,
    /// Replace an existing row.
    Update,
    /// Remove a row.
    Delete,
    /// Transaction commit marker: everything for `txn_id` before this
    /// record is atomic.
    Commit,
}

impl LogOp {
    fn code(self) -> u8 {
        match self {
            LogOp::Insert => 1,
            LogOp::Update => 2,
            LogOp::Delete => 3,
            LogOp::Commit => 4,
        }
    }

    fn from_code(c: u8) -> Option<Self> {
        match c {
            1 => Some(LogOp::Insert),
            2 => Some(LogOp::Update),
            3 => Some(LogOp::Delete),
            4 => Some(LogOp::Commit),
            _ => None,
        }
    }
}

/// One WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// Owning transaction.
    pub txn_id: u64,
    /// Operation.
    pub op: LogOp,
    /// Target table (0 for commit markers).
    pub table: TableId,
    /// Row key (empty for commit markers; inline, no heap for ≤ 24 B).
    pub key: SmallKey,
    /// Row image (empty for deletes/commits; refcounted). The record owns
    /// the image it was built from; the table stores a copy of its own.
    pub value: Bytes,
}

impl LogRecord {
    /// A commit marker for `txn_id`.
    pub fn commit(txn_id: u64) -> Self {
        LogRecord { txn_id, op: LogOp::Commit, table: 0, key: SmallKey::new(), value: Bytes::new() }
    }

    /// Encoded length in bytes.
    pub fn encoded_len(&self) -> usize {
        HEADER_LEN + self.key.len() + self.value.len() + 4
    }

    /// Append the wire encoding to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.push(MAGIC);
        out.push(self.op.code());
        out.extend_from_slice(&self.txn_id.to_le_bytes());
        out.extend_from_slice(&self.table.to_le_bytes());
        out.extend_from_slice(&(self.key.len() as u16).to_le_bytes());
        out.extend_from_slice(&(self.value.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.key);
        out.extend_from_slice(&self.value);
        let sum = checksum(&out[start..]);
        out.extend_from_slice(&sum.to_le_bytes());
    }

    /// Encode to a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }
}

const MAGIC: u8 = 0xD6;
/// magic + op + txn(8) + table(2) + klen(2) + vlen(4).
const HEADER_LEN: usize = 1 + 1 + 8 + 2 + 2 + 4;

/// Decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Not enough bytes for a full record (clean end of stream if at a
    /// record boundary, torn tail otherwise).
    Truncated,
    /// First byte is not the record magic (filler or corruption).
    BadMagic(u8),
    /// Unknown op code.
    BadOp(u8),
    /// Checksum mismatch (torn or corrupt record).
    BadChecksum,
}

/// Decode one record from the front of `buf`. Returns the record and the
/// bytes consumed.
pub fn decode_one(buf: &[u8]) -> Result<(LogRecord, usize), DecodeError> {
    if buf.len() < HEADER_LEN {
        return Err(DecodeError::Truncated);
    }
    if buf[0] != MAGIC {
        return Err(DecodeError::BadMagic(buf[0]));
    }
    let op = LogOp::from_code(buf[1]).ok_or(DecodeError::BadOp(buf[1]))?;
    let txn_id = u64::from_le_bytes(buf[2..10].try_into().expect("8 bytes"));
    let table = u16::from_le_bytes(buf[10..12].try_into().expect("2 bytes"));
    let klen = u16::from_le_bytes(buf[12..14].try_into().expect("2 bytes")) as usize;
    let vlen = u32::from_le_bytes(buf[14..18].try_into().expect("4 bytes")) as usize;
    let total = HEADER_LEN + klen + vlen + 4;
    if buf.len() < total {
        return Err(DecodeError::Truncated);
    }
    let stored = u32::from_le_bytes(buf[total - 4..total].try_into().expect("4 bytes"));
    if checksum(&buf[..total - 4]) != stored {
        return Err(DecodeError::BadChecksum);
    }
    let key = SmallKey::from_slice(&buf[HEADER_LEN..HEADER_LEN + klen]);
    let value = Bytes::copy_from_slice(&buf[HEADER_LEN + klen..HEADER_LEN + klen + vlen]);
    Ok((LogRecord { txn_id, op, table, key, value }, total))
}

/// Decode a whole stream; stops cleanly at the end or at the first
/// truncated/corrupt record (returning what was recovered and how many
/// bytes were consumed).
pub fn decode_stream(buf: &[u8]) -> (Vec<LogRecord>, usize) {
    let mut out = Vec::new();
    let mut cursor = 0usize;
    while cursor < buf.len() {
        match decode_one(&buf[cursor..]) {
            Ok((rec, used)) => {
                out.push(rec);
                cursor += used;
            }
            Err(_) => break,
        }
    }
    (out, cursor)
}

/// The log's one checksum: record framing and snapshot framing
/// ([`crate::checkpoint`]).
///
/// Reads `data` as 8-byte little-endian words (the tail zero-padded) and
/// folds each into a 64-bit state with an invertible step — xor, multiply
/// by an odd constant, rotate — so a change confined to one word always
/// changes the state; the length is folded in last, so zero bytes cut from
/// the end are seen too. The state is then avalanched down to 32 bits.
pub fn checksum(data: &[u8]) -> u32 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mix = |h: u64, word: u64| (h ^ word).wrapping_mul(K).rotate_left(29);
    let mut words = data.chunks_exact(8);
    let mut h = 0x243F_6A88_85A3_08D3;
    for w in &mut words {
        h = mix(h, u64::from_le_bytes(w.try_into().expect("8 bytes")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = mix(h, u64::from_le_bytes(last));
    }
    h = mix(h, data.len() as u64);
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    (h ^ (h >> 33)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LogRecord {
        LogRecord {
            txn_id: 42,
            op: LogOp::Update,
            table: 3,
            key: vec![1, 2, 3].into(),
            value: vec![9; 100].into(),
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let rec = sample();
        let buf = rec.encode();
        assert_eq!(buf.len(), rec.encoded_len());
        let (dec, used) = decode_one(&buf).unwrap();
        assert_eq!(dec, rec);
        assert_eq!(used, buf.len());
    }

    #[test]
    fn commit_marker_round_trip() {
        let rec = LogRecord::commit(77);
        let (dec, _) = decode_one(&rec.encode()).unwrap();
        assert_eq!(dec.op, LogOp::Commit);
        assert_eq!(dec.txn_id, 77);
    }

    #[test]
    fn stream_decoding_stops_at_filler() {
        let mut buf = Vec::new();
        sample().encode_into(&mut buf);
        LogRecord::commit(42).encode_into(&mut buf);
        let records_end = buf.len();
        buf.extend_from_slice(&[0u8; 64]); // zero filler
        let (recs, used) = decode_stream(&buf);
        assert_eq!(recs.len(), 2);
        assert_eq!(used, records_end);
    }

    #[test]
    fn torn_tail_detected() {
        let buf = sample().encode();
        let torn = &buf[..buf.len() - 2];
        assert_eq!(decode_one(torn), Err(DecodeError::Truncated));
        let (recs, _) = decode_stream(torn);
        assert!(recs.is_empty());
    }

    #[test]
    fn corruption_detected() {
        let mut buf = sample().encode();
        let mid = buf.len() / 2;
        buf[mid] ^= 0xFF;
        assert!(matches!(decode_one(&buf), Err(DecodeError::BadChecksum)));
    }

    #[test]
    fn checksum_sees_every_bit_and_the_length() {
        let data: Vec<u8> = (0..37u8).map(|i| i.wrapping_mul(97)).collect();
        let sum = checksum(&data);
        for i in 0..data.len() * 8 {
            let mut flipped = data.clone();
            flipped[i / 8] ^= 1 << (i % 8);
            assert_ne!(checksum(&flipped), sum, "bit {i}");
        }
        // Zero bytes appended at the end, and the empty input.
        let mut seen = std::collections::HashSet::from([sum]);
        let mut longer = data.clone();
        for _ in 0..9 {
            longer.push(0);
            assert!(seen.insert(checksum(&longer)), "{} bytes", longer.len());
        }
        assert!(seen.insert(checksum(&[0; 8])) && seen.insert(checksum(&[])));
    }

    #[test]
    fn bad_magic_detected() {
        let mut buf = sample().encode();
        buf[0] = 0x00;
        assert_eq!(decode_one(&buf), Err(DecodeError::BadMagic(0)));
    }

    #[test]
    fn bad_op_detected() {
        let mut buf = sample().encode();
        buf[1] = 99;
        assert_eq!(decode_one(&buf), Err(DecodeError::BadOp(99)));
    }

    #[test]
    fn random_round_trips() {
        // Seeded random codec round-trips (replayable by seed).
        for seed in 0..64u64 {
            let mut rng = simkit::DetRng::new(0x0106_0000 + seed);
            let key: Vec<u8> = (0..rng.uniform(0, 64)).map(|_| rng.uniform(0, 256) as u8).collect();
            let value: Vec<u8> =
                (0..rng.uniform(0, 512)).map(|_| rng.uniform(0, 256) as u8).collect();
            let rec = LogRecord {
                txn_id: rng.next_u64(),
                op: LogOp::Insert,
                table: rng.uniform(0, u16::MAX as u64 + 1) as u16,
                key: key.into(),
                value: value.into(),
            };
            let (dec, used) = decode_one(&rec.encode()).unwrap();
            assert_eq!(dec, rec, "seed {seed}");
            assert_eq!(used, rec.encoded_len(), "seed {seed}");
        }
    }

    #[test]
    fn random_stream_concatenation() {
        for seed in 0..32u64 {
            let mut rng = simkit::DetRng::new(0x0057_2EA0 + seed);
            let n = rng.uniform(1, 20) as usize;
            let base = rng.next_u64();
            let mut buf = Vec::new();
            let mut expect = Vec::new();
            for i in 0..n {
                let rec = LogRecord {
                    txn_id: base.wrapping_add(i as u64),
                    op: if i % 2 == 0 { LogOp::Insert } else { LogOp::Update },
                    table: (i % 7) as u16,
                    key: vec![i as u8; i % 16].into(),
                    value: vec![(i * 3) as u8; (i * 13) % 200].into(),
                };
                rec.encode_into(&mut buf);
                expect.push(rec);
            }
            let (recs, used) = decode_stream(&buf);
            assert_eq!(recs, expect, "seed {seed}");
            assert_eq!(used, buf.len(), "seed {seed}");
        }
    }
}
