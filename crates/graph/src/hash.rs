//! A fast, non-cryptographic hasher for the graph's internal indexes.
//!
//! The standard library's SipHash is DoS-resistant but costs tens of
//! nanoseconds per probe — measurable on the label maps and the
//! closure and reachability sets, which the traversal layer probes
//! millions of times per closure run (other crates use it for their
//! fact, atom and key tables). Keys here are small fixed-width ids
//! (`NodeId`, `LabelId`) or interned label strings, none
//! attacker-controlled at a trust boundary, so the FxHash construction
//! (the rustc hasher: rotate, xor, multiply) is the right trade.
//! Vendored because the workspace builds offline.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier from FxHash (derived from the golden ratio).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Word-at-a-time multiply-xor hasher.
#[derive(Default)]
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
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
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
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_keys_distinct_buckets() {
        let mut m: FxHashMap<(u32, u32), u32> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert((i, i.wrapping_mul(7)), i);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&(41, 287)), Some(&41));
    }

    #[test]
    fn string_keys_roundtrip() {
        let mut m: FxHashMap<String, usize> = FxHashMap::default();
        m.insert("SubclassOf".into(), 1);
        m.insert("AttributeOf".into(), 2);
        assert_eq!(m["SubclassOf"], 1);
        assert_eq!(m["AttributeOf"], 2);
    }

    #[test]
    fn hasher_is_deterministic() {
        let hash = |s: &str| {
            let mut h = FxHasher::default();
            h.write(s.as_bytes());
            h.finish()
        };
        assert_eq!(hash("Vehicle"), hash("Vehicle"));
        assert_ne!(hash("Vehicle"), hash("Vehicles"));
    }
}
