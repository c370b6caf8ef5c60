//! A fixed, multiply-based hasher for maps keyed by simulated integers.
//!
//! Page-table indices and physical page numbers are chosen by the
//! simulated program, never read from an untrusted request, and no
//! output ever depends on a map's iteration order. So the DoS-resistant,
//! per-process-randomised SipHash behind `HashMap`'s default buys
//! nothing here and costs a large share of every page walk. One
//! multiply per key is enough: the multiplier is odd, so the low bits
//! that pick a bucket are a bijection of the key's low bits and dense
//! key ranges never collide.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// An odd 64-bit constant (2⁶⁴ / φ) with well-mixed high bits.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// Hashes integer keys with one rotate-xor-multiply per written word.
#[derive(Debug, Default, Clone, Copy)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.0 = (self.0.rotate_left(5) ^ i).wrapping_mul(K);
    }
}

/// A `HashMap` keyed by simulated integers, hashed with [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(t: T) -> u64 {
        BuildHasherDefault::<IntHasher>::default().hash_one(t)
    }

    #[test]
    fn hashing_is_fixed_and_width_independent() {
        assert_eq!(hash(7u16), hash(7u64));
        assert_eq!(hash(7u64), 7u64.wrapping_mul(K));
        assert_ne!(hash(7u64), hash(8u64));
    }

    #[test]
    fn dense_keys_spread_over_low_bits() {
        let mut low: Vec<u64> = (0..512u64).map(|k| hash(k) & 511).collect();
        low.sort_unstable();
        low.dedup();
        assert_eq!(low.len(), 512, "odd multiplier is a bijection mod 2^9");
    }
}
