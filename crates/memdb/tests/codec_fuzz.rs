//! Byte-mutation fuzz loop over the log's two framings: WAL record
//! streams and checkpoint snapshots (docs/ROBUSTNESS.md, "Log lifecycle").
//! On a seeded corpus every byte is flipped under several xor masks and
//! every prefix is cut off. The laws:
//!
//! - `decode_one`, `decode_stream` and `decode_snapshot` never panic;
//! - a mutated record never decodes, so a stream decodes to exactly the
//!   records before it, and a cut stream to exactly the whole records
//!   before the cut;
//! - a mutated or cut snapshot is always rejected;
//! - garbage — random bytes, and a stream with a random tail — decodes
//!   under every mutation to a prefix that re-encodes to exactly the bytes
//!   `decode_stream` consumed.
//!
//! The corpus is small on purpose: the whole loop runs in well under a
//! second in a debug build.

use memdb::{
    decode_one, decode_snapshot, decode_stream, encode_snapshot, Database, LogOp, LogRecord,
};
use simkit::DetRng;

const MASKS: [u8; 3] = [0x01, 0x80, 0xFF];

/// A seeded record with a key that is sometimes past the inline width and
/// a value that is sometimes empty.
fn record(rng: &mut DetRng, txn_id: u64) -> LogRecord {
    let op = *rng.pick(&[LogOp::Insert, LogOp::Update, LogOp::Delete, LogOp::Commit]);
    if op == LogOp::Commit {
        return LogRecord::commit(txn_id);
    }
    let key: Vec<u8> = (0..rng.uniform(1, 30)).map(|_| rng.uniform(0, 255) as u8).collect();
    let len = if op == LogOp::Delete { 0 } else { rng.uniform(0, 48) };
    let value: Vec<u8> = (0..len).map(|_| rng.uniform(0, 255) as u8).collect();
    LogRecord { txn_id, op, table: rng.uniform(0, 3) as u16, key: key.into(), value: value.into() }
}

/// A seeded stream: its records, their encoding, and each record's end
/// offset.
fn stream(seed: u64) -> (Vec<LogRecord>, Vec<u8>, Vec<usize>) {
    let mut rng = DetRng::new(seed);
    let records: Vec<LogRecord> = (0..6).map(|i| record(&mut rng, 100 + i)).collect();
    let mut buf = Vec::new();
    let ends = records
        .iter()
        .map(|r| {
            r.encode_into(&mut buf);
            buf.len()
        })
        .collect();
    (records, buf, ends)
}

/// Every single-byte xor mutation of `bytes`, as (offset, mutated copy).
fn mutations(bytes: &[u8]) -> impl Iterator<Item = (usize, Vec<u8>)> + '_ {
    (0..bytes.len()).flat_map(move |i| {
        MASKS.iter().map(move |m| {
            let mut out = bytes.to_vec();
            out[i] ^= m;
            (i, out)
        })
    })
}

#[test]
fn a_mutated_record_never_decodes_and_the_stream_stops_before_it() {
    for seed in 0..8 {
        let (records, buf, ends) = stream(0xF022_0000 + seed);
        for (i, mutated) in mutations(&buf) {
            // The mutated byte lies in record `j`; everything before it is
            // intact, and record `j` itself must not decode.
            let j = ends.partition_point(|end| *end <= i);
            let start = if j == 0 { 0 } else { ends[j - 1] };
            assert!(decode_one(&mutated[start..]).is_err(), "seed {seed}, byte {i}");
            let (decoded, used) = decode_stream(&mutated);
            assert_eq!(decoded, records[..j], "seed {seed}, byte {i}");
            assert_eq!(used, start, "seed {seed}, byte {i}");
        }
        for cut in 0..buf.len() {
            let whole = ends.partition_point(|end| *end <= cut);
            let (decoded, used) = decode_stream(&buf[..cut]);
            assert_eq!(decoded, records[..whole], "seed {seed}, cut {cut}");
            assert_eq!(used, if whole == 0 { 0 } else { ends[whole - 1] });
        }
    }
}

#[test]
fn garbage_decodes_to_a_prefix_that_re_encodes_to_the_bytes_consumed() {
    for seed in 0..8 {
        let mut rng = DetRng::new(0x0BAD_F00D + seed);
        let noise: Vec<u8> = (0..rng.uniform(0, 512)).map(|_| rng.uniform(0, 255) as u8).collect();
        let (_, mut tailed, _) = stream(0xF022_0000 + seed);
        tailed.extend_from_slice(&noise[..noise.len().min(64)]);
        for bytes in [noise, tailed] {
            for (i, mutated) in mutations(&bytes) {
                let (decoded, used) = decode_stream(&mutated);
                let mut re = Vec::new();
                for r in &decoded {
                    r.encode_into(&mut re);
                }
                assert_eq!(re, mutated[..used], "seed {seed}, byte {i}");
            }
        }
    }
}

#[test]
fn a_mutated_or_cut_snapshot_is_always_rejected() {
    for seed in 0..3 {
        let mut rng = DetRng::new(0x5A95_0000 + seed);
        let mut db = Database::new();
        let tables = [db.create_table("alpha"), db.create_table("beta")];
        for _ in 0..16 {
            let key: Vec<u8> = (0..rng.uniform(1, 28)).map(|_| rng.uniform(0, 255) as u8).collect();
            let row: Vec<u8> = (0..rng.uniform(0, 24)).map(|_| rng.uniform(0, 255) as u8).collect();
            db.install_row(*rng.pick(&tables), key, row);
        }
        let image = encode_snapshot(&db, 3, rng.next_u64());
        let (_, restored) = decode_snapshot(&image).expect("the intact image decodes");
        assert_eq!(restored.fingerprint(), db.fingerprint());
        for (i, mutated) in mutations(&image) {
            assert!(decode_snapshot(&mutated).is_err(), "seed {seed}, byte {i}");
        }
        for cut in 0..image.len() {
            assert!(decode_snapshot(&image[..cut]).is_err(), "seed {seed}, cut {cut}");
        }
    }
}
