//! Cheaply cloneable, immutable byte buffers.
//!
//! A minimal stand-in for the `bytes` crate's `Bytes`: payloads staged in
//! the simulated device data-path are shared by reference count, so cloning
//! a page through buffer → FTL → media costs an `Arc` bump, not a memcpy.
//! Only the surface the workspace actually uses is provided.

use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// An immutable, reference-counted byte buffer.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Bytes {
    data: Arc<[u8]>,
}

/// The shared zero-length buffer: empties are an `Arc` bump, never an
/// allocation (the database hot path builds empty rows and commit-marker
/// payloads constantly).
fn empty_arc() -> Arc<[u8]> {
    static EMPTY: OnceLock<Arc<[u8]>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::from(&[][..])).clone()
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes { data: empty_arc() }
    }

    /// Copy `src` into a new buffer.
    pub fn copy_from_slice(src: &[u8]) -> Self {
        if src.is_empty() {
            return Bytes::new();
        }
        Bytes { data: Arc::from(src) }
    }

    /// A buffer of `len` bytes holding `parts` back to back and zeros after
    /// them: one allocation, each source byte copied once. Panics if the
    /// parts are longer than `len`.
    pub fn concat_zero_padded(parts: &[&[u8]], len: usize) -> Self {
        let mut data: Arc<[u8]> = std::iter::repeat_n(0u8, len).collect();
        let buf = Arc::get_mut(&mut data).expect("freshly built, not yet shared");
        let mut at = 0;
        for part in parts {
            buf[at..at + part.len()].copy_from_slice(part);
            at += part.len();
        }
        Bytes { data }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the contents as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        if v.is_empty() {
            return Bytes::new();
        }
        Bytes { data: Arc::from(v) }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl<const N: usize> From<[u8; N]> for Bytes {
    fn from(v: [u8; N]) -> Self {
        Bytes::copy_from_slice(&v)
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes({} B)", self.data.len())
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_storage() {
        let a = Bytes::from(vec![1, 2, 3]);
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(a.as_slice().as_ptr(), b.as_slice().as_ptr());
    }

    #[test]
    fn copy_from_slice_copies() {
        let v = [9u8; 16];
        let b = Bytes::copy_from_slice(&v);
        assert_eq!(b.len(), 16);
        assert_eq!(&b[..4], &[9, 9, 9, 9]);
    }

    #[test]
    fn concat_zero_padded_places_parts_then_zeros() {
        let b = Bytes::concat_zero_padded(&[&[1, 2], &[], &[3]], 6);
        assert_eq!(b.as_slice(), &[1, 2, 3, 0, 0, 0]);
        assert_eq!(Bytes::concat_zero_padded(&[&[9; 4]], 4).as_slice(), &[9; 4]);
        assert!(Bytes::concat_zero_padded(&[], 0).is_empty());
    }

    #[test]
    #[should_panic]
    fn concat_zero_padded_rejects_parts_longer_than_the_buffer() {
        let _ = Bytes::concat_zero_padded(&[&[1, 2, 3]], 2);
    }

    #[test]
    fn empty_default() {
        assert!(Bytes::new().is_empty());
        assert_eq!(Bytes::default().len(), 0);
    }
}
