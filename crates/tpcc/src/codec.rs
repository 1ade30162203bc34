//! Compact row codecs for the TPC-C schema.
//!
//! Rows are flat little-endian field sequences with fixed-width strings —
//! realistic record sizes (what the log path sees) without a serialization
//! dependency. Money is i64 cents.

/// Field writer.
#[derive(Debug, Default)]
pub struct RowWriter {
    buf: Vec<u8>,
}

impl RowWriter {
    /// Writer with a capacity hint.
    pub fn new(capacity: usize) -> Self {
        RowWriter { buf: Vec::with_capacity(capacity) }
    }

    /// Append a u32.
    pub fn u32(mut self, v: u32) -> Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a u64.
    pub fn u64(mut self, v: u64) -> Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append an i64 (money in cents).
    pub fn money(mut self, v: i64) -> Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a fixed-width string (truncated / zero-padded).
    pub fn str(mut self, s: &str, width: usize) -> Self {
        let bytes = s.as_bytes();
        let take = bytes.len().min(width);
        self.buf.extend_from_slice(&bytes[..take]);
        self.buf.extend(std::iter::repeat_n(0u8, width - take));
        self
    }

    /// Finish the row.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Field writer over a borrowed scratch buffer: the hot path builds every
/// row into the workload's reusable `Vec<u8>` and pays exactly one
/// allocation per written row (the image its log record carries; the table
/// copies it into its arena), instead of a `RowWriter` `Vec` plus
/// per-field `String`s.
#[derive(Debug)]
pub struct RowBuf<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> RowBuf<'a> {
    /// A writer over `buf`, cleared first (capacity kept).
    pub fn new(buf: &'a mut Vec<u8>) -> Self {
        buf.clear();
        RowBuf { buf }
    }

    /// Append a u32.
    pub fn u32(self, v: u32) -> Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a u64.
    pub fn u64(self, v: u64) -> Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append an i64 (money in cents).
    pub fn money(self, v: i64) -> Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a fixed-width field from raw bytes (truncated / zero-padded).
    /// Copying a field read with [`RowReader::raw`] reproduces its stored
    /// bytes exactly.
    pub fn bytes(self, src: &[u8], width: usize) -> Self {
        let take = src.len().min(width);
        self.buf.extend_from_slice(&src[..take]);
        self.buf.extend(std::iter::repeat_n(0u8, width - take));
        self
    }

    /// Freeze the scratch contents into the row image a write hands the
    /// database and its log record keeps.
    pub fn finish(self) -> simkit::Bytes {
        simkit::Bytes::copy_from_slice(self.buf)
    }
}

/// Read a little-endian u32 at `off` (in-place row patching).
pub fn get_u32(row: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(row[off..off + 4].try_into().expect("4 bytes"))
}

/// Read money (i64 cents) at `off`.
pub fn get_money(row: &[u8], off: usize) -> i64 {
    i64::from_le_bytes(row[off..off + 8].try_into().expect("8 bytes"))
}

/// Overwrite a little-endian u32 at `off`.
pub fn put_u32(row: &mut [u8], off: usize, v: u32) {
    row[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

/// Overwrite a little-endian u64 at `off`.
pub fn put_u64(row: &mut [u8], off: usize, v: u64) {
    row[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

/// Overwrite money (i64 cents) at `off`.
pub fn put_money(row: &mut [u8], off: usize, v: i64) {
    row[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

/// Field reader over a row image.
#[derive(Debug)]
pub struct RowReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> RowReader<'a> {
    /// Reader at the row start.
    pub fn new(buf: &'a [u8]) -> Self {
        RowReader { buf, pos: 0 }
    }

    /// Read a u32.
    pub fn u32(&mut self) -> u32 {
        let v = u32::from_le_bytes(self.buf[self.pos..self.pos + 4].try_into().expect("4 bytes"));
        self.pos += 4;
        v
    }

    /// Read a u64.
    pub fn u64(&mut self) -> u64 {
        let v = u64::from_le_bytes(self.buf[self.pos..self.pos + 8].try_into().expect("8 bytes"));
        self.pos += 8;
        v
    }

    /// Read money (i64 cents).
    pub fn money(&mut self) -> i64 {
        let v = i64::from_le_bytes(self.buf[self.pos..self.pos + 8].try_into().expect("8 bytes"));
        self.pos += 8;
        v
    }

    /// Read a fixed-width string (trailing zeros trimmed). Allocates; kept
    /// for tests and display — hot paths use
    /// [`str_bytes`](RowReader::str_bytes).
    pub fn str(&mut self, width: usize) -> String {
        String::from_utf8_lossy(self.str_bytes(width)).into_owned()
    }

    /// Read a fixed-width string field as its trimmed bytes, borrowing the
    /// row (no allocation). Comparisons and copy-throughs want bytes, not
    /// `String`s.
    pub fn str_bytes(&mut self, width: usize) -> &'a [u8] {
        let raw = self.raw(width);
        let end = raw.iter().position(|b| *b == 0).unwrap_or(width);
        &raw[..end]
    }

    /// Read a fixed-width field's raw bytes, padding included. Replaying
    /// them through [`RowBuf::bytes`] with the same width reproduces the
    /// stored encoding byte for byte.
    pub fn raw(&mut self, width: usize) -> &'a [u8] {
        let raw = &self.buf[self.pos..self.pos + width];
        self.pos += width;
        raw
    }

    /// Skip `n` bytes.
    pub fn skip(&mut self, n: usize) {
        self.pos += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_mixed_fields() {
        let row = RowWriter::new(64).u32(7).money(-1234).str("BAROUGHTABLE", 16).u64(99).finish();
        let mut r = RowReader::new(&row);
        assert_eq!(r.u32(), 7);
        assert_eq!(r.money(), -1234);
        assert_eq!(r.str(16), "BAROUGHTABLE");
        assert_eq!(r.u64(), 99);
    }

    #[test]
    fn strings_truncate_and_pad() {
        let row = RowWriter::new(8).str("toolongvalue", 4).finish();
        assert_eq!(row.len(), 4);
        let mut r = RowReader::new(&row);
        assert_eq!(r.str(4), "tool");
        let padded = RowWriter::new(8).str("ab", 6).finish();
        assert_eq!(padded.len(), 6);
        let mut r2 = RowReader::new(&padded);
        assert_eq!(r2.str(6), "ab");
    }

    #[test]
    fn skip_moves_cursor() {
        let row = RowWriter::new(16).u32(1).u32(2).u32(3).finish();
        let mut r = RowReader::new(&row);
        r.skip(4);
        assert_eq!(r.u32(), 2);
    }
}
