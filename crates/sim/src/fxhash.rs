//! A small, vendored Fx-style hasher for the hot interning index.
//!
//! The arena's content-addressed index hashes every
//! [`KnowledgeNode`](crate::KnowledgeNode) on each intern; the standard library's SipHash
//! is keyed and DoS-resistant but several times slower than needed for
//! process-local, trusted keys. This module vendors the multiply-rotate
//! hash popularized by the Firefox/rustc `FxHasher` — no dependency, no
//! network, deterministic within a process — for use wherever a `HashMap`
//! sits on an enumeration hot path.
//!
//! Not for adversarial input: the hash is unkeyed and trivially
//! collidable on purpose-built keys. Every map in this workspace hashes
//! machine-generated structures, never untrusted data.

use std::hash::{BuildHasherDefault, Hasher};

/// The multiplicative constant (64-bit golden-ratio fraction, same as the
/// classic Fx implementation).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// An unkeyed multiply-rotate hasher (Fx-style).
///
/// # Example
///
/// ```
/// use std::hash::{Hash, Hasher};
/// use rsbt_sim::fxhash::FxHasher;
///
/// let mut a = FxHasher::default();
/// 42u64.hash(&mut a);
/// let mut b = FxHasher::default();
/// 42u64.hash(&mut b);
/// assert_eq!(a.finish(), b.finish()); // deterministic
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`] (zero-sized, `Default`).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed by the Fx hash — drop-in for `std::collections::HashMap`
/// on trusted hot paths.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_builders() {
        assert_eq!(hash_of(&12345u64), hash_of(&12345u64));
        assert_eq!(hash_of(&"knowledge"), hash_of(&"knowledge"));
        assert_eq!(hash_of(&vec![1u32, 2, 3]), hash_of(&vec![1u32, 2, 3]));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        assert_ne!(hash_of(&0u64), hash_of(&1u64));
        assert_ne!(hash_of(&[0u8, 1]), hash_of(&[1u8, 0]));
        // Length is part of slice hashing (std prefixes the length).
        assert_ne!(hash_of(&vec![0u8]), hash_of(&vec![0u8, 0]));
    }

    #[test]
    fn byte_stream_chunking_covers_remainders() {
        for len in 0..=17usize {
            let bytes: Vec<u8> = (0..len as u8).collect();
            let mut h = FxHasher::default();
            h.write(&bytes);
            let full = h.finish();
            let mut h2 = FxHasher::default();
            h2.write(&bytes);
            assert_eq!(full, h2.finish(), "len={len}");
        }
    }

    #[test]
    fn map_works_end_to_end() {
        let mut m: FxHashMap<Vec<u8>, usize> = FxHashMap::default();
        for i in 0..100usize {
            m.insert(vec![i as u8, (i * 7) as u8], i);
        }
        assert_eq!(m.len(), 100);
        for i in 0..100usize {
            assert_eq!(m.get([i as u8, (i * 7) as u8].as_slice()), Some(&i));
        }
    }
}
