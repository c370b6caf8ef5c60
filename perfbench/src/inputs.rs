//! Seeded input generation and output digests.
//!
//! Every input the benchmark feeds the program is derived from the
//! workload seed through SplitMix64, either as a stream ([`Rng`]) or
//! statelessly per operation index ([`mix`]), so the same seed always
//! produces the same inputs no matter how many operations a run gets
//! through in its time budget.

/// One SplitMix64 step.
fn splitmix(state: u64) -> u64 {
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// A value derived from `(seed, stream, index)` alone: the input of
/// operation `index` of a named input stream.
pub fn mix(seed: u64, stream: &str, index: u64) -> u64 {
    splitmix(seed ^ fnv1a(stream.as_bytes()) ^ index.wrapping_add(1).wrapping_mul(GOLDEN))
}

/// A sequential SplitMix64 stream, for inputs built once per run.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// The stream named `stream` of workload seed `seed`.
    pub fn new(seed: u64, stream: &str) -> Rng {
        Rng {
            state: seed ^ fnv1a(stream.as_bytes()),
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN);
        splitmix(self.state)
    }

    /// A value in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// `len` random bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next_u64() as u8).collect()
    }
}

/// 64-bit FNV-1a of `data`.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut d = Digest::new();
    d.bytes(data);
    d.finish()
}

/// An incremental FNV-1a digest of simulated outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest::new()
    }
}

impl Digest {
    /// The empty digest.
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Absorbs raw bytes.
    pub fn bytes(&mut self, data: &[u8]) -> &mut Digest {
        for &b in data {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Absorbs an integer (little-endian bytes).
    pub fn u64(&mut self, v: u64) -> &mut Digest {
        self.bytes(&v.to_le_bytes())
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds_and_names() {
        let a: Vec<u64> = (0..4).map(|i| mix(7, "x", i)).collect();
        let b: Vec<u64> = (0..4).map(|i| mix(7, "x", i)).collect();
        assert_eq!(a, b);
        assert_ne!(mix(7, "x", 0), mix(8, "x", 0));
        assert_ne!(mix(7, "x", 0), mix(7, "y", 0));
        let mut r1 = Rng::new(3, "msg");
        let mut r2 = Rng::new(3, "msg");
        assert_eq!(r1.bytes(16), r2.bytes(16));
    }

    #[test]
    fn fnv1a_matches_reference_vector() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
