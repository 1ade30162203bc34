//! Cheaply cloneable, immutable byte buffers.
//!
//! A minimal stand-in for the `bytes` crate's `Bytes`: payloads staged in
//! the simulated device data-path are shared by reference count, so cloning
//! a page through buffer → FTL → media costs a count bump, not a memcpy.
//! Only the surface the workspace actually uses is provided.
//!
//! A `Bytes` is one pointer wide (8 bytes, and `Option<Bytes>` too): it
//! points at a single allocation holding a `Header` — the reference count
//! and the length — followed by the data. That is the allocation an
//! `Arc<[u8]>` makes, without the fat pointer's length word beside every
//! handle; a database table keeps one handle per stored row, so the word
//! is 8 bytes of every index entry. The empty buffer is one shared static
//! that is never counted or freed.
//!
//! This file holds the workspace's only `unsafe` code; `scripts/check.sh`
//! fails on `unsafe` anywhere else under `crates/*/src`, and on an
//! `unsafe` block or impl here without a `// SAFETY:` comment above it.

use std::alloc::{self, Layout};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::mem::{align_of, size_of};
use std::ops::Deref;
use std::ptr::NonNull;
use std::sync::atomic::{self, AtomicUsize, Ordering};

/// What precedes the data in a buffer's allocation.
struct Header {
    refs: AtomicUsize,
    len: usize,
}

/// Offset of the data in an allocation: right after the header (whose
/// alignment, 8, is a multiple of the data's, 1).
const DATA: usize = size_of::<Header>();

/// The one empty buffer. Its count is never touched: clones and drops of a
/// zero-length `Bytes` skip the header.
static EMPTY: Header = Header { refs: AtomicUsize::new(1), len: 0 };

/// The allocation of a `len`-byte buffer: header, then data.
fn layout(len: usize) -> Layout {
    // `saturating_add` so a length near `usize::MAX` is refused here rather
    // than wrapping to a small allocation.
    Layout::from_size_align(DATA.saturating_add(len), align_of::<Header>())
        .expect("buffer length overflows isize")
}

/// An immutable, reference-counted byte buffer.
pub struct Bytes {
    /// `&EMPTY` when the length is 0, else a live allocation of
    /// `layout(len)` whose count includes this handle.
    ptr: NonNull<Header>,
}

// The handle is one pointer, and the niche of `NonNull` keeps `Option` at
// one pointer too.
const _: () = assert!(size_of::<Bytes>() == 8 && size_of::<Option<Bytes>>() == 8);

// SAFETY: the one field, `ptr`, owns a share of an allocation whose data
// is written only before the first handle exists (`concat_zero_padded`)
// and whose count is atomic, so a handle may move to another thread and
// be dropped there, as an `Arc<[u8]>` may.
unsafe impl Send for Bytes {}
// SAFETY: through `&Bytes` the one field, `ptr`, is only read, and what it
// points at is read too, except the count, which is atomic.
unsafe impl Sync for Bytes {}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes { ptr: NonNull::from(&EMPTY) }
    }

    /// Copy `src` into a new buffer.
    pub fn copy_from_slice(src: &[u8]) -> Self {
        Bytes::concat_zero_padded(&[src], src.len())
    }

    /// A buffer of `len` bytes holding `parts` back to back and zeros after
    /// them: one allocation, each source byte copied once and each filler
    /// byte written once. Panics if the parts are longer than `len`. Every
    /// buffer is built here.
    pub fn concat_zero_padded(parts: &[&[u8]], len: usize) -> Self {
        let filled = parts.iter().try_fold(0usize, |n, part| n.checked_add(part.len()));
        assert!(
            filled.is_some_and(|n| n <= len),
            "parts of {filled:?} B do not fit a {len}-byte buffer"
        );
        if len == 0 {
            return Bytes::new();
        }
        let layout = layout(len);
        // SAFETY: `layout` has a non-zero size (the header alone is 16 B).
        let raw = unsafe { alloc::alloc(layout) };
        let Some(ptr) = NonNull::new(raw.cast::<Header>()) else {
            alloc::handle_alloc_error(layout)
        };
        // SAFETY: `raw` is a fresh allocation of `layout` that nothing else
        // refers to: aligned for a `Header` at 0, with `len` bytes at `DATA`.
        // The parts fill the first `filled <= len` of them (checked above)
        // and the rest are zeroed, so every byte is written exactly once.
        unsafe {
            ptr.as_ptr().write(Header { refs: AtomicUsize::new(1), len });
            let data = raw.add(DATA);
            let mut at = 0;
            for part in parts {
                std::ptr::copy_nonoverlapping(part.as_ptr(), data.add(at), part.len());
                at += part.len();
            }
            data.add(at).write_bytes(0, len - at);
        }
        Bytes { ptr }
    }

    fn header(&self) -> &Header {
        // SAFETY: `ptr` points at `EMPTY` or at an allocation this handle's
        // count keeps alive; only the atomic count changes after the build.
        unsafe { self.ptr.as_ref() }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.header().len
    }

    /// True if the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrow the contents as a slice.
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: `len` initialized bytes follow the header in an allocation
        // this handle keeps alive, and no one writes them while it is shared.
        // For `EMPTY` the pointer is one past the static: valid for 0 bytes.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr().cast::<u8>().add(DATA), self.len()) }
    }
}

impl Clone for Bytes {
    fn clone(&self) -> Self {
        if !self.is_empty() {
            // Relaxed, as in `Arc::clone`: a new handle is made from an
            // existing one, which already keeps the allocation alive.
            let old = self.header().refs.fetch_add(1, Ordering::Relaxed);
            if old > isize::MAX as usize {
                // Billions of leaked clones: stop before the count wraps.
                std::process::abort();
            }
        }
        Bytes { ptr: self.ptr }
    }
}

impl Drop for Bytes {
    fn drop(&mut self) {
        if self.is_empty() {
            return;
        }
        let len = self.len();
        if self.header().refs.fetch_sub(1, Ordering::Release) != 1 {
            return;
        }
        // Every other handle's last use happens before the free (the
        // Release/Acquire pairing `Arc` uses).
        atomic::fence(Ordering::Acquire);
        // SAFETY: this was the last handle, so nothing refers to the
        // allocation, which `concat_zero_padded` made with `layout(len)`.
        unsafe { alloc::dealloc(self.ptr.as_ptr().cast::<u8>(), layout(len)) }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
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

/// Equal by content, like the slices.
impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

/// Hashes as the byte slice does, so a map keyed by `Bytes` orders its
/// buckets as one keyed by the content.
impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
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

    #[test]
    fn clone_shares_storage() {
        let a = Bytes::from(vec![1, 2, 3]);
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(a.as_slice().as_ptr(), b.as_slice().as_ptr());
    }

    #[test]
    fn clones_count_and_the_last_drop_frees() {
        let a = Bytes::copy_from_slice(&[5; 40]);
        let refs = |b: &Bytes| b.header().refs.load(Ordering::Relaxed);
        assert_eq!(refs(&a), 1);
        let b = a.clone();
        let c = b.clone();
        assert_eq!(refs(&a), 3);
        drop(b);
        assert_eq!(refs(&c), 2);
        drop(a);
        assert_eq!((refs(&c), c.as_slice()), (1, &[5u8; 40][..]));
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

    #[test]
    fn every_empty_buffer_is_the_shared_static() {
        let empties = [
            Bytes::new(),
            Bytes::default(),
            Bytes::from(Vec::new()),
            Bytes::copy_from_slice(&[]),
            Bytes::from([0u8; 0]),
            Bytes::concat_zero_padded(&[&[], &[]], 0),
        ];
        for e in &empties {
            assert_eq!(e.ptr, NonNull::from(&EMPTY));
            assert_eq!(e.as_slice(), &[] as &[u8]);
            drop(e.clone());
        }
        drop(empties);
        assert_eq!(EMPTY.refs.load(Ordering::Relaxed), 1, "the static is never counted");
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
