//! Inline, order-preserving keys.
//!
//! Every hot-path TPC-C/YCSB key is a short big-endian composite (4–16
//! bytes). Storing them as `Vec<u8>` costs a heap allocation per stored row
//! and per lookup probe. [`SmallKey`] keeps up to [`SmallKey::INLINE`]
//! (22) bytes inline and spills to a boxed slice only beyond that, while
//! comparing and hashing exactly like the underlying byte slice — so
//! `BTreeMap<SmallKey, _>` keeps its order-preserving semantics. The key is
//! 24 bytes (a tag, a length byte and the 22 inline bytes; or the tag and
//! a boxed slice), so a table entry with its 8-byte place in the table's
//! row arena is 32 bytes. The keys that spill are TPC-C's
//! customer-name index entry (28 bytes), its 24-byte scan prefix and that
//! prefix's successor: load-time and by-name paths only.
//!
//! Two inline keys compare as three big-endian `u64` words plus a
//! tie-break on length, not through `memcmp`; the third word reads bytes
//! 16..22 followed by two zero bytes. That equals slice order **because
//! the inline bytes beyond `len` are always zero**: every constructor and
//! mutator keeps that invariant and `debug_assert`s it. Ordered maps are
//! therefore probed with a `SmallKey` (a 24-byte stack copy of the
//! caller's slice), never with a borrowed `&[u8]`, so every comparison of a
//! descent takes the word path.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

#[derive(Clone)]
enum Repr {
    /// Up to `INLINE` bytes stored in place.
    Inline { len: u8, buf: [u8; SmallKey::INLINE] },
    /// Longer keys spill to the heap (load-time name-index entries only).
    Spill(Box<[u8]>),
}

/// An encoded, order-preserving key with inline small-key storage.
#[derive(Clone)]
pub struct SmallKey(Repr);

impl SmallKey {
    /// Bytes stored without a heap allocation.
    pub const INLINE: usize = 22;

    /// An empty key.
    pub fn new() -> Self {
        SmallKey(Repr::Inline { len: 0, buf: [0; Self::INLINE] })
    }

    /// A key holding a copy of `src`.
    pub fn from_slice(src: &[u8]) -> Self {
        if src.len() <= Self::INLINE {
            let mut buf = [0u8; Self::INLINE];
            buf[..src.len()].copy_from_slice(src);
            let key = SmallKey(Repr::Inline { len: src.len() as u8, buf });
            key.debug_assert_zero_tail();
            key
        } else {
            SmallKey(Repr::Spill(src.into()))
        }
    }

    /// Borrow the key bytes.
    pub fn as_slice(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Spill(b) => b,
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Spill(b) => b.len(),
        }
    }

    /// True when the key holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append raw bytes, spilling to the heap if the inline buffer fills.
    pub fn push_bytes(&mut self, src: &[u8]) {
        match &mut self.0 {
            Repr::Inline { len, buf } => {
                let l = *len as usize;
                if l + src.len() <= Self::INLINE {
                    buf[l..l + src.len()].copy_from_slice(src);
                    *len = (l + src.len()) as u8;
                } else {
                    let mut v = Vec::with_capacity(l + src.len());
                    v.extend_from_slice(&buf[..l]);
                    v.extend_from_slice(src);
                    self.0 = Repr::Spill(v.into_boxed_slice());
                }
            }
            Repr::Spill(b) => {
                let mut v = Vec::with_capacity(b.len() + src.len());
                v.extend_from_slice(b);
                v.extend_from_slice(src);
                self.0 = Repr::Spill(v.into_boxed_slice());
            }
        }
        self.debug_assert_zero_tail();
    }

    /// Append a `u32` big-endian component.
    pub fn push_u32(&mut self, v: u32) {
        self.push_bytes(&v.to_be_bytes());
    }

    /// Append a `u64` big-endian component.
    pub fn push_u64(&mut self, v: u64) {
        self.push_bytes(&v.to_be_bytes());
    }

    /// Append a fixed-width, zero-padded string component.
    pub fn push_str(&mut self, s: &str, width: usize) {
        let bytes = s.as_bytes();
        let take = bytes.len().min(width);
        self.push_bytes(&bytes[..take]);
        for _ in take..width {
            self.push_bytes(&[0]);
        }
    }

    /// The stored bytes, mutable in place. The inline tail beyond `len` is
    /// out of the returned slice's reach, so it stays zero.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [u8] {
        self.debug_assert_zero_tail();
        match &mut self.0 {
            Repr::Inline { len, buf } => &mut buf[..*len as usize],
            Repr::Spill(b) => b,
        }
    }

    /// The invariant the word compare in `Ord`/`Eq` rests on: inline bytes
    /// beyond `len` are zero.
    fn debug_assert_zero_tail(&self) {
        if let Repr::Inline { len, buf } = &self.0 {
            debug_assert!(
                buf[*len as usize..].iter().all(|b| *b == 0),
                "inline key tail beyond len must stay zero: {buf:?} (len {len})"
            );
        }
    }
}

// A tag, a length byte and the inline bytes; or the tag and a boxed slice.
const _: () = assert!(std::mem::size_of::<SmallKey>() == 24);

/// Word `i` (of three) of an inline buffer, big-endian, so integer order is
/// byte-lexicographic order. The last word holds bytes 16..22 and two zero
/// bytes after them.
#[inline(always)]
fn be_word(buf: &[u8; SmallKey::INLINE], i: usize) -> u64 {
    let mut word = [0u8; 8];
    let bytes = &buf[i * 8..SmallKey::INLINE.min(i * 8 + 8)];
    word[..bytes.len()].copy_from_slice(bytes);
    u64::from_be_bytes(word)
}

impl Default for SmallKey {
    fn default() -> Self {
        SmallKey::new()
    }
}

impl Deref for SmallKey {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for SmallKey {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<&[u8]> for SmallKey {
    fn from(v: &[u8]) -> Self {
        SmallKey::from_slice(v)
    }
}

impl From<Vec<u8>> for SmallKey {
    fn from(v: Vec<u8>) -> Self {
        SmallKey::from_slice(&v)
    }
}

impl From<&Vec<u8>> for SmallKey {
    fn from(v: &Vec<u8>) -> Self {
        SmallKey::from_slice(v)
    }
}

impl<const N: usize> From<[u8; N]> for SmallKey {
    fn from(v: [u8; N]) -> Self {
        SmallKey::from_slice(&v)
    }
}

impl<const N: usize> From<&[u8; N]> for SmallKey {
    fn from(v: &[u8; N]) -> Self {
        SmallKey::from_slice(v)
    }
}

// Eq/Ord/Hash agree with the byte slice's. Two inline keys take the word
// path, which is slice order given the zero tail (see the module doc): the
// first differing byte decides in both, and when one key is a prefix of the
// other the longer one's extra bytes are either non-zero (it is greater in
// the padded compare too) or all zero (padded buffers tie, length decides).
impl PartialEq for SmallKey {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (Repr::Inline { len: la, buf: a }, Repr::Inline { len: lb, buf: b }) => {
                la == lb && a == b
            }
            _ => self.as_slice() == other.as_slice(),
        }
    }
}

impl Eq for SmallKey {}

impl PartialOrd for SmallKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SmallKey {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        match (&self.0, &other.0) {
            (Repr::Inline { len: la, buf: a }, Repr::Inline { len: lb, buf: b }) => {
                for i in 0..3 {
                    let (x, y) = (be_word(a, i), be_word(b, i));
                    if x != y {
                        return x.cmp(&y);
                    }
                }
                la.cmp(lb)
            }
            _ => self.as_slice().cmp(other.as_slice()),
        }
    }
}

impl Hash for SmallKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

impl PartialEq<[u8]> for SmallKey {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for SmallKey {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for SmallKey {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialOrd<Vec<u8>> for SmallKey {
    fn partial_cmp(&self, other: &Vec<u8>) -> Option<Ordering> {
        Some(self.as_slice().cmp(other.as_slice()))
    }
}

impl<const N: usize> PartialEq<[u8; N]> for SmallKey {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl fmt::Debug for SmallKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::BTreeMap;

    #[test]
    fn inline_and_spill_round_trip() {
        for n in 0..=64usize {
            let src: Vec<u8> = (0..n as u8).collect();
            let k = SmallKey::from_slice(&src);
            assert_eq!(k.as_slice(), src.as_slice());
            assert_eq!(k.len(), n);
            assert_eq!(k.is_empty(), n == 0);
        }
    }

    #[test]
    fn inline_up_to_22_bytes_then_spill() {
        let spills = |k: &SmallKey| matches!(k.0, Repr::Spill(_));
        assert!(!spills(&SmallKey::from_slice(&[7; 22])));
        assert!(spills(&SmallKey::from_slice(&[7; 23])));
        let mut k = SmallKey::from_slice(&[7; 20]);
        k.push_bytes(&[8, 9]);
        assert!(!spills(&k));
        k.push_bytes(&[0]);
        assert!(spills(&k));
        assert_eq!(k.as_slice(), [&[7; 20][..], &[8, 9, 0]].concat());
    }

    fn slice_hash<T: Hash + ?Sized>(v: &T) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    fn zero_tail(k: &SmallKey) -> bool {
        match &k.0 {
            Repr::Inline { len, buf } => buf[*len as usize..].iter().all(|b| *b == 0),
            Repr::Spill(_) => true,
        }
    }

    /// Every byte string of length 0–3 over the bytes where signed/unsigned
    /// and zero-padding mistakes show, plus seeded random strings of 0–40
    /// bytes with their zero-extended and truncated relatives, plus 21-,
    /// 22- and 23-byte keys around the inline/spill boundary, among them
    /// keys that differ only in a trailing zero, so the boundary and pairs
    /// like `[1]` vs `[1, 0]` are crossed.
    fn ordering_samples() -> Vec<Vec<u8>> {
        const ALPHABET: [u8; 5] = [0x00, 0x01, 0x7F, 0x80, 0xFF];
        let mut samples: Vec<Vec<u8>> = vec![vec![]];
        let mut last: Vec<Vec<u8>> = vec![vec![]];
        for _ in 0..3 {
            last = last
                .iter()
                .flat_map(|p| ALPHABET.iter().map(move |b| [p.as_slice(), &[*b]].concat()))
                .collect();
            samples.extend(last.iter().cloned());
        }
        samples.extend([vec![0xFF; 22], vec![0xFF; 23], (0..30).collect()]);
        // Around the boundary: a 21-byte base, then with one and two more
        // bytes, each either zero (a key and itself plus a trailing zero)
        // or not, and the same with the last word's bytes (16..22) varied.
        for base in [vec![0x00; 21], vec![0x7F; 21], (1..22).collect::<Vec<u8>>()] {
            for last in [0x00, 0x01, 0xFF] {
                let mut varied = base.clone();
                varied[16] = last;
                for b in [base.clone(), varied] {
                    samples.push([b.as_slice(), &[last]].concat());
                    samples.push([b.as_slice(), &[last, 0x00]].concat());
                    samples.push([b.as_slice(), &[0x00, last]].concat());
                    samples.push(b);
                }
            }
        }
        let mut rng = simkit::DetRng::new(0x5EED_4B65);
        for _ in 0..60 {
            let len = rng.uniform(0, 40) as usize;
            let base: Vec<u8> = (0..len).map(|_| *rng.pick(&ALPHABET)).collect();
            let cut = rng.uniform(0, len as u64) as usize;
            let zeros = rng.uniform(1, 3) as usize;
            samples.push(base[..cut].to_vec());
            samples.push([&base[..cut], &vec![0u8; zeros][..]].concat());
            samples.push([base.as_slice(), &vec![0u8; zeros][..]].concat());
            samples.push(base);
        }
        samples
    }

    #[test]
    fn ordering_matches_slices() {
        let samples = ordering_samples();
        let keys: Vec<SmallKey> = samples.iter().map(|s| SmallKey::from_slice(s)).collect();
        for (a, ka) in samples.iter().zip(&keys) {
            assert!(zero_tail(ka));
            assert_eq!(slice_hash(ka), slice_hash(a.as_slice()), "{a:?}");
            for (b, kb) in samples.iter().zip(&keys) {
                assert_eq!(ka.cmp(kb), a.as_slice().cmp(b.as_slice()), "{a:?} vs {b:?}");
                assert_eq!(ka == kb, a == b, "{a:?} vs {b:?}");
            }
        }

        // After every mutator the inline tail beyond `len` is still zero.
        use crate::storage::keys::successor;
        let mut rng = simkit::DetRng::new(0x7A11);
        for s in samples {
            // The same bytes pushed in pieces: equal to the one-shot key in
            // every way the word compare can see.
            let mut pushed = SmallKey::new();
            let mut rest = s.as_slice();
            while !rest.is_empty() {
                let (head, tail) = rest.split_at(rng.uniform(1, rest.len() as u64) as usize);
                pushed.push_bytes(head);
                assert!(zero_tail(&pushed));
                rest = tail;
            }
            let whole = SmallKey::from_slice(&s);
            assert_eq!(pushed.as_slice(), s.as_slice());
            assert_eq!(pushed.cmp(&whole), Ordering::Equal);
            assert!(pushed == whole);

            let mut k = whole.clone();
            k.push_u32(rng.next_u64() as u32);
            assert!(zero_tail(&k));
            k.push_u64(rng.next_u64());
            assert!(zero_tail(&k));
            let mut k = whole.clone();
            k.push_str("ab", rng.uniform(0, 6) as usize);
            assert!(zero_tail(&k));

            let succ = successor(&s);
            assert!(zero_tail(&succ));
            assert!(succ > whole, "successor({s:?}) = {succ:?}");
            assert_eq!(succ.cmp(&whole), succ.as_slice().cmp(s.as_slice()));
        }
    }

    #[test]
    fn btreemap_probe_by_key() {
        let mut m: BTreeMap<SmallKey, u32> = BTreeMap::new();
        m.insert(SmallKey::from_slice(b"abc"), 1);
        m.insert(SmallKey::from_slice(&[9u8; 30]), 2);
        assert_eq!(m.get(&SmallKey::from_slice(b"abc")), Some(&1));
        assert_eq!(m.get(&SmallKey::from_slice(&[9u8; 30])), Some(&2));
        assert_eq!(m.get(&SmallKey::from_slice(b"zzz")), None);
    }

    #[test]
    fn push_crosses_inline_boundary() {
        let mut k = SmallKey::new();
        for i in 0..7u32 {
            k.push_u32(i);
        }
        assert_eq!(k.len(), 28);
        let expect: Vec<u8> = (0..7u32).flat_map(|i| i.to_be_bytes()).collect();
        assert_eq!(k.as_slice(), expect.as_slice());
    }

    #[test]
    fn push_str_pads_to_width() {
        let mut k = SmallKey::new();
        k.push_str("ab", 5);
        assert_eq!(k.as_slice(), &[b'a', b'b', 0, 0, 0]);
        let mut long = SmallKey::new();
        long.push_str("abcdef", 3);
        assert_eq!(long.as_slice(), b"abc");
    }
}
