//! A hand-rolled FxHash-style hasher for the cache's key→slot map.
//!
//! The engine's steady-state hot path is slot-addressed and performs no
//! hashing at all; the only remaining hash is the thin [`ObjectKey`]→slot
//! interning map used by callers without dense indices (the proxy, ad-hoc
//! tests). `std`'s default SipHash is DoS-resistant but costs tens of
//! nanoseconds per `u64`; cache keys are either dense indices or already
//! hashed URL digests, so the rustc-style Fx multiply-rotate mix is the
//! right trade. Implemented locally because the build environment has no
//! crates.io access (see `shims/`).
//!
//! [`ObjectKey`]: crate::ObjectKey

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The Fx multiplier (the golden-ratio constant used by rustc's FxHasher).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, non-cryptographic hasher: one rotate, one xor and one multiply
/// per 8-byte word.
///
/// Not DoS-resistant — only use it for keys an attacker does not control,
/// or where collisions are merely a slowdown (as in the cache's key→slot
/// interning map).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add(n as u64);
        self.add((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Hashes a single `u64` for shard routing: the Fx mix followed by
/// murmur3's `fmix64` finalizer. This is the routing primitive of
/// [`ShardedEngine`](crate::ShardedEngine) (`hash(key) % shards`), exposed
/// so tests and external routers can reproduce the placement.
///
/// The Fx mix of one word is a bare multiply, and bit `i` of a product
/// depends only on bits `0..=i` of its input. Reducing it modulo a small
/// shard count therefore reads only the key's lowest bits; keys that are
/// themselves Fx hashes of short names (`clip-<i>`) then share their low
/// bits and all land in one shard. The finalizer lets every input bit
/// reach every output bit.
///
/// ```
/// use sc_cache::fx::hash_u64;
/// assert_eq!(hash_u64(42), hash_u64(42));
/// assert_ne!(hash_u64(42), hash_u64(43));
/// ```
#[inline]
pub fn hash_u64(value: u64) -> u64 {
    let mut hasher = FxHasher::default();
    hasher.write_u64(value);
    let mut h = hasher.finish();
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// [`BuildHasher`](std::hash::BuildHasher) for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A [`HashMap`] keyed by the Fx mix instead of SipHash.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A [`HashSet`] keyed by the Fx mix instead of SipHash.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(value: &T) -> u64 {
        let mut hasher = FxHasher::default();
        value.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn deterministic_and_discriminating() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_ne!(hash_of(&42u64), hash_of(&43u64));
        assert_ne!(hash_of(&0u64), hash_of(&1u64));
        // Byte-stream and word writes agree with themselves across calls.
        assert_eq!(hash_of(&"streaming"), hash_of(&"streaming"));
        assert_ne!(hash_of(&"streaming"), hash_of(&"caching"));
    }

    #[test]
    fn zero_is_not_a_fixed_point_for_nonzero_input() {
        // A multiply-only hash maps 0 to 0; the rotate/xor mix must still
        // spread small keys across the space.
        let h0 = hash_of(&0u64);
        let h1 = hash_of(&1u64);
        assert_ne!(h0 >> 56, h1 >> 56, "high bits must differ for 0 vs 1");
    }

    #[test]
    fn map_and_set_work_with_u64_keys() {
        let mut map: FxHashMap<u64, u32> = FxHashMap::default();
        for i in 0..1_000u64 {
            map.insert(i, (i * 2) as u32);
        }
        assert_eq!(map.len(), 1_000);
        for i in 0..1_000u64 {
            assert_eq!(map.get(&i), Some(&((i * 2) as u32)));
        }
        let set: FxHashSet<u64> = (0..100).collect();
        assert!(set.contains(&99) && !set.contains(&100));
    }

    #[test]
    fn odd_length_byte_streams_hash_consistently() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(a.finish(), b.finish());
        let mut c = FxHasher::default();
        c.write(&[1, 2, 3, 4, 5, 6, 7, 8, 10]);
        assert_ne!(a.finish(), c.finish());
    }
}
