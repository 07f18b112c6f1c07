//! A minimal Fx-style hasher for marking deduplication.
//!
//! Reachability BFS hashes millions of short byte strings (markings);
//! SipHash's HashDoS protection is pointless here and measurably slower.
//! This is the classic `FxHasher` multiply-rotate scheme, self-contained
//! so the workspace does not need an extra dependency.

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<K> = std::collections::HashSet<K, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rustc-style Fx hasher: one multiply and rotate per word, and a
/// fold at the end.
#[derive(Debug, Clone, Copy, Default)]
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
    fn write(&mut self, bytes: &[u8]) {
        // Mix the length first so zero-padded tails stay distinct.
        self.add_to_hash(bytes.len() as u64);
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let Ok(word) = <[u8; 8]>::try_from(c) else {
                unreachable!("chunks_exact(8) yields 8-byte chunks")
            };
            self.add_to_hash(u64::from_le_bytes(word));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    /// The state with its high half XORed into its low half.  A
    /// multiply carries only upward, so the low bits of the state depend
    /// only on the low bits of the last word — zero on a dyadic `f64` or
    /// a zero-padded bit row — and the low bits are what pick a bucket.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash ^ self.hash >> 32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_sensitive() {
        let h = |b: &[u8]| {
            let mut hasher = FxHasher::default();
            hasher.write(b);
            hasher.finish()
        };
        assert_eq!(h(b"hello"), h(b"hello"));
        assert_ne!(h(b"hello"), h(b"hellp"));
        assert_ne!(h(b"\x00\x01"), h(b"\x01\x00"));
        assert_ne!(h(b""), h(b"\x00"));
    }

    /// Keys that differ only in high bits still spread over the low
    /// bits: the rates `1 + k/2¹⁷` have 35 trailing zero bits each, which
    /// an unfolded multiply keeps in every hash.
    #[test]
    fn high_bit_keys_spread_over_the_low_bits() {
        let low: FxHashSet<u64> = (0..72_041u32)
            .map(|k| {
                let mut hasher = FxHasher::default();
                hasher.write_u64((1.0 + f64::from(k) / 131_072.0).to_bits());
                hasher.finish() & 0xffff
            })
            .collect();
        assert!(low.len() >= 4096, "{} distinct low halves", low.len());
    }

    #[test]
    fn map_works() {
        let mut m: FxHashMap<Vec<u8>, usize> = FxHashMap::default();
        for i in 0..1000usize {
            m.insert(vec![(i % 256) as u8, (i / 256) as u8], i);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&vec![5u8, 0u8]], 5);
    }
}
