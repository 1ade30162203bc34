//! One fixed hasher for the maps a device model keys by integers.
//!
//! std's `HashMap` hashes with SipHash-1-3 under a key drawn per process: a
//! defence against keys an adversary picks. The device models' maps are
//! keyed by numbers the simulator hands out itself — logical pages, op ids,
//! command ids — so they need an even spread, not that defence, and
//! SipHash's rounds were about 6 % of a mixed-device run's host time.
//! [`IntHasher`] folds each integer in with one add and one multiply, and
//! one more multiply finishes the hash.
//!
//! Iteration order is no part of any result: std's `RandomState` already
//! changes it from process to process, and every digest repeats.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by integers, hashed with [`IntHasher`]. Build one
/// with `IntMap::default()`.
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A `HashSet` of integers, hashed with [`IntHasher`]. Build one with
/// `IntSet::default()`.
pub type IntSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;

/// Odd, with its set bits spread over the word, so a product carries every
/// input bit into the high half (the multiplier of rustc's own hasher).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// A multiplicative hasher for integer keys: each word is added to the
/// state, which is then multiplied by an odd constant. A product carries a
/// bit only upwards, so `finish` folds the high half down and multiplies
/// once more: keys that differ only in their high bits (page-aligned
/// offsets, say) reach the low bits the table picks its bucket by, and a
/// stride lands no more unevenly than random keys would.
#[derive(Debug, Clone, Copy, Default)]
pub struct IntHasher(u64);

impl IntHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for IntHasher {
    /// Byte strings are folded in as little-endian words, the last one
    /// zero-padded; integer keys never come this way.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n.into());
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n.into());
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n.into());
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let h = (self.0 ^ (self.0 >> 32)).wrapping_mul(K);
        h ^ (h >> 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DetRng;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(v: T) -> u64 {
        BuildHasherDefault::<IntHasher>::default().hash_one(v)
    }

    /// Distinct low `bits` of the hashes of `keys`, as a share of the
    /// buckets they could fill.
    fn bucket_fill(keys: impl Iterator<Item = u64>, bits: u32) -> f64 {
        let mut used = vec![false; 1 << bits];
        for k in keys {
            used[(hash(k) & ((1 << bits) - 1)) as usize] = true;
        }
        used.iter().filter(|u| **u).count() as f64 / (1 << bits) as f64
    }

    #[test]
    fn the_same_key_hashes_the_same_across_hashers() {
        assert_eq!(hash(42u64), hash(42u64));
        assert_ne!(hash(42u64), hash(43u64));
        assert_eq!(hash(7u16), hash(7u64), "an integer is one widened word");
    }

    #[test]
    fn sequential_strided_and_high_keys_spread_over_the_buckets() {
        // A table of 1024 buckets, filled by 1024 keys of each shape a
        // device map sees: page numbers, page-aligned byte offsets, and
        // keys that differ only above bit 40. Uniform hashing would fill
        // 1 - 1/e ≈ 63 % of the buckets; one multiply and a rotation fill
        // under half on a 4 KiB stride and a quarter on the high keys.
        let shapes =
            [("sequential", 0), ("4 KiB stride", 12), ("16 KiB stride", 14), ("high bits", 40)];
        for (name, shift) in shapes {
            let fill = bucket_fill((0..1024).map(|i| i << shift), 10);
            assert!(fill > 0.55, "{name}: {fill:.2} of the buckets used");
        }
    }

    #[test]
    fn byte_strings_hash_by_content() {
        assert_eq!(hash("abcdefghij"), hash(String::from("abcdefghij")));
        assert_ne!(hash("abcdefghij"), hash("abcdefghik"));
    }

    #[test]
    fn maps_match_a_std_map_under_seeded_traffic() {
        let mut rng = DetRng::new(0x1A7);
        let mut ours: IntMap<u64, u64> = IntMap::default();
        let mut std_map: HashMap<u64, u64> = HashMap::new();
        for step in 0..20_000u64 {
            let key = rng.uniform(0, 511) << 14;
            if rng.chance(0.3) {
                assert_eq!(ours.remove(&key), std_map.remove(&key), "step {step}");
            } else {
                assert_eq!(ours.insert(key, step), std_map.insert(key, step), "step {step}");
            }
        }
        assert_eq!(ours.len(), std_map.len());
        assert!(std_map.iter().all(|(k, v)| ours.get(k) == Some(v)));
    }
}
