//! Cheaply cloneable, immutable byte buffers.
//!
//! A minimal stand-in for the `bytes` crate's `Bytes`: payloads staged in
//! the simulated device data-path are shared by reference count, so cloning
//! a page through buffer → FTL → media costs a count bump, not a memcpy.
//! Only the surface the workspace actually uses is provided.
//!
//! A `Bytes` is an `Arc<[u8]>`: one allocation holding the two counts and
//! the data, and a 16-byte handle (pointer and length). It stays a type of
//! its own for two rules an alias could not keep: every buffer is built
//! through the constructors here, and an empty one is `Arc::default()`,
//! which allocates nothing.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, reference-counted byte buffer. Equal and hashed by
/// content, like the slices.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct Bytes(Arc<[u8]>);

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Copy `src` into a new buffer.
    pub fn copy_from_slice(src: &[u8]) -> Self {
        if src.is_empty() {
            return Bytes::new();
        }
        Bytes(Arc::from(src))
    }

    /// A buffer of `len` bytes holding `parts` back to back and zeros after
    /// them, in one allocation. Panics if the parts are longer than `len`.
    pub fn concat_zero_padded(parts: &[&[u8]], len: usize) -> Self {
        let filled = parts.iter().try_fold(0usize, |n, part| n.checked_add(part.len()));
        assert!(
            filled.is_some_and(|n| n <= len),
            "parts of {filled:?} B do not fit a {len}-byte buffer"
        );
        if len == 0 {
            return Bytes::new();
        }
        // An exact-length iterator collects into one allocation.
        let mut buf: Arc<[u8]> = std::iter::repeat_n(0, len).collect();
        let data = Arc::get_mut(&mut buf).expect("a new buffer has one handle");
        let mut at = 0;
        for part in parts {
            data[at..at + part.len()].copy_from_slice(part);
            at += part.len();
        }
        Bytes(buf)
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Borrow the contents as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes::copy_from_slice(&v)
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
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes({} B)", self.len())
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
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

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
        assert_ne!(b.as_slice().as_ptr(), v.as_ptr());
    }

    #[test]
    fn concat_zero_padded_places_parts_then_zeros() {
        let b = Bytes::concat_zero_padded(&[&[1, 2], &[], &[3]], 6);
        assert_eq!(b.as_slice(), &[1, 2, 3, 0, 0, 0]);
        assert_eq!(Bytes::concat_zero_padded(&[&[9; 4]], 4).as_slice(), &[9; 4]);
        assert!(Bytes::concat_zero_padded(&[], 0).is_empty());
        assert_eq!(Bytes::concat_zero_padded(&[], 3).as_slice(), &[0; 3]);
    }

    #[test]
    #[should_panic]
    fn concat_zero_padded_rejects_parts_longer_than_the_buffer() {
        let _ = Bytes::concat_zero_padded(&[&[1, 2, 3]], 2);
    }

    #[test]
    #[should_panic]
    fn concat_zero_padded_rejects_parts_into_an_empty_buffer() {
        let _ = Bytes::concat_zero_padded(&[&[1]], 0);
    }

    #[test]
    fn empty_default() {
        assert!(Bytes::new().is_empty());
        assert_eq!(Bytes::default().len(), 0);
    }

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn equality_and_hash_go_by_content() {
        let a = Bytes::from(vec![1, 2, 3]);
        let b = Bytes::copy_from_slice(&[1, 2, 3]);
        assert_ne!(a.as_slice().as_ptr(), b.as_slice().as_ptr());
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
        assert_eq!(hash_of(&a), hash_of(&[1u8, 2, 3][..]));
        assert_ne!(a, Bytes::from(vec![1, 2]));
        assert_ne!(a, Bytes::from(vec![1, 2, 4]));
        assert_eq!(hash_of(&Bytes::new()), hash_of(&[] as &[u8]));
        assert!(a == [1u8, 2, 3][..] && a == vec![1u8, 2, 3]);
    }

    #[test]
    fn handles_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Bytes>();
        let a = Bytes::copy_from_slice(b"shared");
        std::thread::scope(|s| {
            s.spawn(|| assert_eq!(a.clone().as_slice(), b"shared"));
            s.spawn(|| assert_eq!(a.as_slice(), b"shared"));
        });
    }
}
