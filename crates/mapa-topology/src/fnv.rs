//! The workspace's one FNV-1a: the occupancy words of `mapa-core`'s
//! decision table, schedule digests in `mapa-sim`, ledger checksums in
//! `mapa-agent`. It lives in this crate because all three already depend
//! on it directly.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

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

#[cfg(test)]
mod tests {
    use super::*;

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
