//! A hash map for the simulator's hot address- and PC-keyed tables
//! (memory pages, per-PC statistics, the speculative store overlay).
//!
//! The standard library's SipHash resists adversarial keys, which
//! simulated addresses are not, and costs tens of nanoseconds per
//! lookup. [`AddrHasher`] is a single multiply-and-rotate (the FxHash
//! scheme): deterministic, seed-free, and spreading the low bits of
//! word-aligned keys into the bits `HashMap` uses to pick a bucket.
//! Iteration order is therefore fixed for a given insertion history;
//! code that needs a canonical order (checkpoints) still sorts. Keys
//! come from the simulated program, so a program built to collide
//! slows only its own simulation; the daemon runs built-in kernels
//! only.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by a 64-bit address or PC, hashed with
/// [`AddrHasher`].
pub type AddrMap<V> = HashMap<u64, V, BuildHasherDefault<AddrHasher>>;

/// Multiply-and-rotate hasher for integer keys.
#[derive(Debug, Default, Clone, Copy)]
pub struct AddrHasher(u64);

impl AddrHasher {
    const K: u64 = 0xf135_7aea_2e62_a9c5;
}

impl Hasher for AddrHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(Self::K);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The product's high bits mix every key bit; rotate them down
        // to where the bucket index is taken.
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_keys_spread_over_buckets() {
        // Word-aligned PCs must not collapse onto a few low-bit buckets.
        let mut low = std::collections::HashSet::new();
        for pc in (0x1_0000u64..0x1_0000 + 4 * 256).step_by(4) {
            let mut h = AddrHasher::default();
            h.write_u64(pc);
            low.insert(h.finish() & 0xff);
        }
        assert!(low.len() > 128, "only {} of 256 low-byte values", low.len());
    }

    #[test]
    fn map_round_trips() {
        let mut m: AddrMap<u8> = AddrMap::default();
        for k in 0..1000u64 {
            m.insert(k * 4096, k as u8);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&(999 * 4096)), Some(&(999u64 as u8)));
    }
}
