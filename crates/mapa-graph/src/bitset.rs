//! A small dynamic bitset backed by `u64` blocks.
//!
//! Hardware and application graphs in MAPA have at most a few dozen
//! vertices, so a handful of `u64` words covers every use. The type exists
//! (rather than `Vec<bool>`) because adjacency-row intersection is the inner
//! loop of the subgraph matcher: candidate filtering is a word-wise `AND`.

use std::fmt;

const BITS: usize = u64::BITS as usize;

/// A fixed-capacity bitset over `0..len`.
///
/// All operations that take indices panic when the index is out of bounds,
/// mirroring slice semantics; binary operations panic on length mismatch.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    blocks: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// Creates an empty bitset with capacity for `len` bits, all zero.
    #[must_use]
    pub fn new(len: usize) -> Self {
        Self {
            blocks: vec![0; len.div_ceil(BITS)],
            len,
        }
    }

    /// Creates a bitset of `len` bits, all set to one.
    #[must_use]
    pub fn full(len: usize) -> Self {
        let mut s = Self::new(len);
        for i in 0..s.blocks.len() {
            s.blocks[i] = u64::MAX;
        }
        s.trim();
        s
    }

    /// Builds a bitset from bit indices.
    ///
    /// # Panics
    /// Panics if any index is `>= len`.
    #[must_use]
    pub fn from_indices(len: usize, indices: &[usize]) -> Self {
        let mut s = Self::new(len);
        for &i in indices {
            s.insert(i);
        }
        s
    }

    /// The bit capacity of the set (not the number of set bits).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no bit is set.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// Number of set bits.
    #[must_use]
    pub fn count(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// The backing `u64` blocks, least-significant bits first. Bits at or
    /// beyond [`BitSet::len`] are always zero, so two sets of equal length
    /// are equal iff their words are — the basis for cheap occupancy
    /// fingerprints.
    #[must_use]
    pub fn as_words(&self) -> &[u64] {
        &self.blocks
    }

    /// Tests bit `i`.
    #[must_use]
    pub fn contains(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range 0..{}", self.len);
        self.blocks[i / BITS] >> (i % BITS) & 1 == 1
    }

    /// Sets bit `i`. Returns `true` if the bit was previously clear.
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range 0..{}", self.len);
        let block = &mut self.blocks[i / BITS];
        let mask = 1u64 << (i % BITS);
        let was_clear = *block & mask == 0;
        *block |= mask;
        was_clear
    }

    /// Clears bit `i`. Returns `true` if the bit was previously set.
    pub fn remove(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range 0..{}", self.len);
        let block = &mut self.blocks[i / BITS];
        let mask = 1u64 << (i % BITS);
        let was_set = *block & mask != 0;
        *block &= !mask;
        was_set
    }

    /// Clears every bit.
    pub fn clear(&mut self) {
        self.blocks.iter_mut().for_each(|b| *b = 0);
    }

    /// In-place intersection with `other`.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn intersect_with(&mut self, other: &BitSet) {
        self.check_len(other);
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a &= b;
        }
    }

    /// In-place difference (`self &= !other`).
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn difference_with(&mut self, other: &BitSet) {
        self.check_len(other);
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a &= !b;
        }
    }

    /// Iterates over set bit indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.blocks
            .iter()
            .enumerate()
            .flat_map(|(bi, &block)| BlockBits {
                block,
                base: bi * BITS,
            })
    }

    /// Index of the lowest set bit, if any.
    #[must_use]
    pub fn first(&self) -> Option<usize> {
        self.next_from(0)
    }

    /// Index of the lowest set bit at or above `from`, if any: a cursor
    /// over the set bits of a mask that may change between steps.
    #[must_use]
    pub fn next_from(&self, from: usize) -> Option<usize> {
        let mut block = from / BITS;
        let mut word = self.blocks.get(block)? & (u64::MAX << (from % BITS));
        loop {
            if word != 0 {
                return Some(block * BITS + word.trailing_zeros() as usize);
            }
            block += 1;
            word = *self.blocks.get(block)?;
        }
    }

    /// Collects set bit indices into a vector.
    #[must_use]
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }

    fn check_len(&self, other: &BitSet) {
        assert_eq!(
            self.len, other.len,
            "bitset length mismatch: {} vs {}",
            self.len, other.len
        );
    }

    /// Zeroes bits beyond `len` in the final block.
    fn trim(&mut self) {
        let extra = self.blocks.len() * BITS - self.len;
        if extra > 0 {
            if let Some(last) = self.blocks.last_mut() {
                *last &= u64::MAX >> extra;
            }
        }
    }
}

struct BlockBits {
    block: u64,
    base: usize,
}

impl Iterator for BlockBits {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.block == 0 {
            return None;
        }
        let tz = self.block.trailing_zeros() as usize;
        self.block &= self.block - 1;
        Some(self.base + tz)
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn new_is_empty() {
        let s = BitSet::new(100);
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.len(), 100);
        assert!(!s.contains(99));
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut s = BitSet::new(70);
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(69));
        assert!(!s.insert(69), "second insert reports already-set");
        assert_eq!(s.count(), 4);
        assert!(s.contains(63) && s.contains(64));
        assert!(s.remove(63));
        assert!(!s.remove(63));
        assert_eq!(s.to_vec(), vec![0, 64, 69]);
    }

    #[test]
    fn full_sets_exactly_len_bits() {
        for len in [0, 1, 63, 64, 65, 128, 130] {
            let s = BitSet::full(len);
            assert_eq!(s.count(), len, "len={len}");
            assert_eq!(s.to_vec(), (0..len).collect::<Vec<_>>());
        }
    }

    #[test]
    fn set_algebra() {
        let a = BitSet::from_indices(10, &[1, 3, 5, 7]);
        let b = BitSet::from_indices(10, &[3, 4, 5]);

        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.to_vec(), vec![3, 5]);

        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.to_vec(), vec![1, 7]);
    }

    #[test]
    fn first_and_iter_order() {
        let s = BitSet::from_indices(130, &[129, 2, 64]);
        assert_eq!(s.first(), Some(2));
        assert_eq!(s.to_vec(), vec![2, 64, 129]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn contains_out_of_range_panics() {
        let s = BitSet::new(5);
        let _ = s.contains(5);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut a = BitSet::new(5);
        let b = BitSet::new(6);
        a.intersect_with(&b);
    }

    #[test]
    fn clear_resets() {
        let mut s = BitSet::full(77);
        s.clear();
        assert!(s.is_empty());
    }

    proptest! {
        #[test]
        fn model_matches_vec_bool(len in 1usize..200, ops in proptest::collection::vec((0usize..200, any::<bool>()), 0..64)) {
            let mut s = BitSet::new(len);
            let mut model = vec![false; len];
            for (i, set) in ops {
                let i = i % len;
                if set {
                    s.insert(i);
                    model[i] = true;
                } else {
                    s.remove(i);
                    model[i] = false;
                }
            }
            let expect: Vec<usize> = model
                .iter()
                .enumerate()
                .filter_map(|(i, &b)| b.then_some(i))
                .collect();
            for from in 0..=len {
                prop_assert_eq!(s.next_from(from), expect.iter().copied().find(|&i| i >= from));
            }
            prop_assert_eq!(s.to_vec(), expect);
            prop_assert_eq!(s.count(), model.iter().filter(|&&b| b).count());
        }

        #[test]
        fn de_morgan_difference(len in 1usize..130,
                                xs in proptest::collection::vec(0usize..130, 0..40),
                                ys in proptest::collection::vec(0usize..130, 0..40)) {
            let xs: Vec<usize> = xs.into_iter().map(|i| i % len).collect();
            let ys: Vec<usize> = ys.into_iter().map(|i| i % len).collect();
            let a = BitSet::from_indices(len, &xs);
            let b = BitSet::from_indices(len, &ys);
            // (a \ b) and (a ∩ b) partition a.
            let mut diff = a.clone();
            diff.difference_with(&b);
            let mut inter = a.clone();
            inter.intersect_with(&b);
            let mut rebuilt = [diff.to_vec(), inter.to_vec()].concat();
            rebuilt.sort_unstable();
            prop_assert_eq!(rebuilt, a.to_vec());
        }
    }
}
