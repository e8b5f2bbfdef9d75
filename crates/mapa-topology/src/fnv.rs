//! The workspace's one FNV-1a — the occupancy words of `mapa-core`'s
//! decision table, schedule digests in `mapa-sim`, ledger checksums in
//! `mapa-agent` — and its one table hasher for one-word keys,
//! [`WordHasher`]. They live in this crate because every crate that uses
//! them already depends on it directly.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;
/// An odd multiplier (2^64 divided by the golden ratio): a multiply by it
/// is a bijection on `u64` that carries every input bit upwards.
const SPREAD: u64 = 0x9e37_79b9_7f4a_7c15;

/// Incremental FNV-1a hasher (64-bit). FNV is stable across platforms,
/// releases, and `std` versions — unlike `DefaultHasher`, which
/// documents no such guarantee — which is what a checked-in golden
/// value or an on-disk checksum needs.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    #[inline]
    fn default() -> Self {
        Self(OFFSET)
    }
}

impl Fnv1a {
    /// Absorbs raw bytes.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Absorbs a `u64` in little-endian byte order.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs an `f64` by exact bit pattern — bit-identical schedules
    /// hash identically, and *any* numeric drift changes the digest.
    #[inline]
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The accumulated hash.
    #[inline]
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// A table hasher for keys of one word: one multiply by an odd constant,
/// then the high half folded into the low (`x ^ x >> 32`). The multiply
/// carries each key bit into every higher bit, so the top 7 bits — the
/// tag a `HashMap` compares before a key — differ between nearby keys; the
/// fold brings those upper bits down into the bucket index, so keys that
/// differ only above their low bits (ids `i << 10`) still spread over the
/// buckets. A plain multiply leaves the low bits of such keys zero, and
/// they all land in one bucket.
///
/// It has no secret, so anyone who picks the keys can pick colliding
/// ones. It is therefore for tables whose keys the program makes, or
/// whose entry count is bounded by the GPUs in use: a table that cannot
/// hold more entries than the fleet has GPUs busy cannot grow a collision
/// chain past that many either. Those tables are `HardwareState`'s jobs,
/// `MapaAllocator`'s active jobs, `Cluster`'s live jobs and the decision
/// table (whose keys are FNV-1a words of the allocators' own states).
/// Every other table keeps `std`'s SipHash: the federation's ledger and
/// quota holds grow with queued jobs, the engine's shielded set is a
/// `HashSet<u64>` in `SchedulerBackend`'s signature, and the ring memo
/// keys on link patterns that machine files supply.
#[derive(Debug, Clone, Copy, Default)]
pub struct WordHasher(u64);

impl Hasher for WordHasher {
    /// Absorbs each byte as a word; a key of one word never comes here.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(SPREAD);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ self.0 >> 32
    }
}

/// A map from one-word keys hashed by [`WordHasher`]; see it for which
/// tables may be one.
pub type WordMap<V> = HashMap<u64, V, BuildHasherDefault<WordHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::BuildHasher;

    /// How many distinct values the low 9 bits (a 512-bucket table's
    /// index) and the top 7 bits (a `HashMap`'s tag) of the hashes of
    /// `keys` take.
    fn spread(keys: impl Iterator<Item = u64>) -> (usize, usize) {
        let build = BuildHasherDefault::<WordHasher>::default();
        let hashes: Vec<u64> = keys.map(|k| build.hash_one(k)).collect();
        let low: HashSet<u64> = hashes.iter().map(|h| h & 511).collect();
        let top: HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        (low.len(), top.len())
    }

    #[test]
    fn word_hasher_spreads_sequential_and_strided_ids() {
        for (name, (low, top)) in [
            ("sequential", spread(0..512)),
            ("i << 10", spread((0..512).map(|i| i << 10))),
        ] {
            assert!(low >= 256, "{name}: {low} distinct low-9-bit values");
            assert!(top >= 96, "{name}: {top} distinct top-7-bit values");
        }
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        let hash = |bytes: &[u8]| {
            let mut h = Fnv1a::default();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(hash(b""), OFFSET);
        assert_eq!(hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash(b"foobar"), 0x85944171f73967e8);
    }
}
