//! A dense-index active set: the hot-loop membership structure of the
//! simulator.
//!
//! [`ActiveSet`] holds the network's queued-node / pending-header /
//! active-channel sets.  The simulator's determinism needs exactly three
//! things from the structure:
//!
//! * **Ascending iteration** over dense indices, so the walk order is the
//!   order a full scan would visit (node-major, network ports before
//!   injection slots, then VC) and the shared RNG streams are drawn in a
//!   fixed order;
//! * **Idempotent insert/remove**, because a node can receive several
//!   messages in one cycle and a channel gains/loses owned VCs repeatedly;
//! * **Cheap membership flips**, because the per-flit path flips them.
//!
//! A sorted bitset delivers all three without per-element allocation or tree
//! rebalancing: membership is one bit in a `Vec<u64>`, insert/remove are
//! O(1) word ops, and ascending iteration is a word scan with
//! `trailing_zeros` — branch-light, cache-dense, and ordered by
//! construction.  The universe is fixed at build time (the engine's index
//! spaces are dense and known), so the scan cost is `universe / 64` words, a
//! few cache lines for every network the simulator runs.

/// A fixed-universe set of `u32` indices with ascending iteration order,
/// backed by a bitset (one bit per possible index).
#[derive(Debug, Clone)]
pub struct ActiveSet {
    words: Vec<u64>,
    universe: usize,
    len: usize,
}

impl ActiveSet {
    /// An empty set over the universe `0..universe`.
    #[must_use]
    pub fn new(universe: usize) -> Self {
        Self { words: vec![0; universe.div_ceil(64)], universe, len: 0 }
    }

    /// The exclusive upper bound of the indices the set can hold.
    #[must_use]
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Number of indices currently in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `index` is in the set.
    #[must_use]
    #[inline]
    pub fn contains(&self, index: u32) -> bool {
        debug_assert!((index as usize) < self.universe);
        self.words[index as usize / 64] & (1 << (index % 64)) != 0
    }

    /// Inserts `index`; returns whether it was newly inserted.  Inserting a
    /// present index is a no-op (idempotent).
    ///
    /// # Panics
    /// Panics if `index` is outside the universe.
    #[inline]
    pub fn insert(&mut self, index: u32) -> bool {
        assert!((index as usize) < self.universe, "index {index} outside universe");
        let word = &mut self.words[index as usize / 64];
        let mask = 1u64 << (index % 64);
        let fresh = *word & mask == 0;
        *word |= mask;
        self.len += usize::from(fresh);
        fresh
    }

    /// Removes `index`; returns whether it was present.  Removing an absent
    /// index is a no-op (idempotent).
    ///
    /// # Panics
    /// Panics if `index` is outside the universe.
    #[inline]
    pub fn remove(&mut self, index: u32) -> bool {
        assert!((index as usize) < self.universe, "index {index} outside universe");
        let word = &mut self.words[index as usize / 64];
        let mask = 1u64 << (index % 64);
        let present = *word & mask != 0;
        *word &= !mask;
        self.len -= usize::from(present);
        present
    }

    /// Iterates the members in ascending order.
    #[must_use]
    pub fn iter(&self) -> Iter<'_> {
        Iter { words: &self.words, word: 0, bits: self.words.first().copied().unwrap_or(0) }
    }

    /// Clears `out` and fills it with the members in ascending order — the
    /// snapshot form the engine's stages iterate (they mutate the set while
    /// walking the snapshot).
    pub fn collect_into(&self, out: &mut Vec<u32>) {
        out.clear();
        out.reserve(self.len);
        for (w, &word) in self.words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let low = bits.trailing_zeros();
                out.push(w as u32 * 64 + low);
                bits &= bits - 1;
            }
        }
    }
}

/// Ascending iterator over an [`ActiveSet`].
#[derive(Debug)]
pub struct Iter<'a> {
    words: &'a [u64],
    word: usize,
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        while self.bits == 0 {
            self.word += 1;
            if self.word >= self.words.len() {
                return None;
            }
            self.bits = self.words[self.word];
        }
        let low = self.bits.trailing_zeros();
        self.bits &= self.bits - 1;
        Some(self.word as u32 * 64 + low)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// SplitMix64 — a tiny deterministic generator so the randomized
    /// interleavings need no RNG dependency.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn insert_and_remove_are_idempotent() {
        let mut set = ActiveSet::new(100);
        assert!(set.insert(42));
        assert!(!set.insert(42), "second insert of a present index is a no-op");
        assert_eq!(set.len(), 1);
        assert!(set.contains(42));
        assert!(set.remove(42));
        assert!(!set.remove(42), "second remove of an absent index is a no-op");
        assert_eq!(set.len(), 0);
        assert!(!set.contains(42));
        assert!(set.is_empty());
    }

    #[test]
    fn iteration_is_ascending_and_matches_the_retired_btreeset() {
        // The exact property the bitset swap rests on: under any interleaving
        // of inserts and removes, ascending iteration equals what the retired
        // BTreeSet would have produced.
        for seed in 0..8u64 {
            let universe = 1 + (seed as usize * 37) % 500;
            let mut rng = SplitMix(0xA11_CE5 + seed);
            let mut set = ActiveSet::new(universe);
            let mut reference: BTreeSet<u32> = BTreeSet::new();
            for _ in 0..2_000 {
                let index = (rng.next() % universe as u64) as u32;
                if rng.next() % 3 == 0 {
                    assert_eq!(set.remove(index), reference.remove(&index));
                } else {
                    assert_eq!(set.insert(index), reference.insert(index));
                }
                assert_eq!(set.len(), reference.len());
                assert_eq!(set.is_empty(), reference.is_empty());
            }
            let via_iter: Vec<u32> = set.iter().collect();
            let expected: Vec<u32> = reference.iter().copied().collect();
            assert_eq!(via_iter, expected, "seed {seed}: iteration order diverged");
            let mut via_collect = Vec::new();
            set.collect_into(&mut via_collect);
            assert_eq!(via_collect, expected, "seed {seed}: collect_into diverged");
            for index in 0..universe as u32 {
                assert_eq!(set.contains(index), reference.contains(&index));
            }
        }
    }

    #[test]
    fn word_boundaries_are_handled() {
        // indices straddling the 64-bit word edges are the classic bitset bug
        let mut set = ActiveSet::new(130);
        for &index in &[0u32, 63, 64, 65, 127, 128, 129] {
            assert!(set.insert(index));
        }
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![0, 63, 64, 65, 127, 128, 129]);
        assert!(set.remove(64));
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![0, 63, 65, 127, 128, 129]);
    }

    #[test]
    fn empty_universe_is_fine() {
        let set = ActiveSet::new(0);
        assert!(set.is_empty());
        assert_eq!(set.iter().count(), 0);
        let mut out = vec![1, 2, 3];
        set.collect_into(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn out_of_universe_insert_is_rejected() {
        ActiveSet::new(10).insert(10);
    }

    #[test]
    fn collect_into_reuses_the_buffer() {
        let mut set = ActiveSet::new(64);
        set.insert(3);
        set.insert(17);
        let mut out = vec![99; 32];
        set.collect_into(&mut out);
        assert_eq!(out, vec![3, 17]);
    }
}
