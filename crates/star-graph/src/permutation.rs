//! Permutations of `{1, …, n}` stored inline, with the cycle-structure
//! queries that the star-graph distance formula and the adaptive routing
//! functions need.
//!
//! A permutation is stored as the sequence of symbols it assigns to the
//! positions `1..=n`, i.e. `perm[pos - 1] = symbol`.  This is exactly the
//! label of a star-graph node in the paper (`v = v1 v2 … vn`).

use crate::MAX_SYMBOLS;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A permutation of the symbols `1..=n`, `2 <= n <= MAX_SYMBOLS`.
///
/// The value is the node label used throughout the star-graph literature:
/// position `i` (1-based) holds symbol `self.symbol_at(i)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Permutation {
    /// Number of symbols.
    n: u8,
    /// `symbols[i]` is the symbol at position `i + 1`; entries `>= n` are unused.
    symbols: [u8; MAX_SYMBOLS],
}

/// Summary of the cycle structure of a permutation, the quantity from which
/// the star-graph distance and the set of profitable routing dimensions are
/// computed (Akers & Krishnamurthy).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleStructure {
    /// Number of displaced symbols (symbols not at their home position).
    pub displaced: usize,
    /// Number of non-trivial cycles (length >= 2).
    pub nontrivial_cycles: usize,
    /// Whether position 1 holds symbol 1.
    pub first_symbol_home: bool,
    /// Length of the cycle containing position 1 (1 if position 1 is a fixed point).
    pub first_cycle_len: usize,
    /// Sorted lengths of all non-trivial cycles (ascending).
    pub cycle_lengths: Vec<usize>,
}

impl Permutation {
    /// The identity permutation `1 2 … n`.
    ///
    /// # Panics
    /// Panics if `n < 2` or `n > MAX_SYMBOLS`.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        assert!(
            (2..=MAX_SYMBOLS).contains(&n),
            "permutation size {n} out of range 2..={MAX_SYMBOLS}"
        );
        let mut symbols = [0u8; MAX_SYMBOLS];
        for (i, s) in symbols.iter_mut().enumerate().take(n) {
            *s = (i + 1) as u8;
        }
        Self { n: n as u8, symbols }
    }

    /// Builds a permutation from a slice of symbols (1-based symbols).
    ///
    /// Returns `None` if the slice is not a permutation of `1..=len` or the
    /// length is out of range.
    #[must_use]
    pub fn from_symbols(symbols: &[u8]) -> Option<Self> {
        let n = symbols.len();
        if !(2..=MAX_SYMBOLS).contains(&n) {
            return None;
        }
        let mut seen = [false; MAX_SYMBOLS + 1];
        for &s in symbols {
            if s == 0 || s as usize > n || seen[s as usize] {
                return None;
            }
            seen[s as usize] = true;
        }
        let mut arr = [0u8; MAX_SYMBOLS];
        arr[..n].copy_from_slice(symbols);
        Some(Self { n: n as u8, symbols: arr })
    }

    /// Number of symbols `n`.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// Always false: permutations of fewer than 2 symbols are not representable.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The symbol at 1-based position `pos`.
    ///
    /// # Panics
    /// Panics if `pos` is 0 or greater than `n`.
    #[inline]
    #[must_use]
    pub fn symbol_at(&self, pos: usize) -> u8 {
        assert!(pos >= 1 && pos <= self.len(), "position {pos} out of range");
        self.symbols[pos - 1]
    }

    /// The symbols as a slice (`slice[i]` = symbol at position `i + 1`).
    #[inline]
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        &self.symbols[..self.len()]
    }

    /// The 1-based position currently holding `symbol`.
    ///
    /// # Panics
    /// Panics if `symbol` is not one of `1..=n`.
    #[must_use]
    pub fn position_of(&self, symbol: u8) -> usize {
        assert!(symbol >= 1 && symbol as usize <= self.len(), "symbol {symbol} out of range");
        self.as_slice()
            .iter()
            .position(|&s| s == symbol)
            .map(|i| i + 1)
            .expect("valid permutation always contains every symbol")
    }

    /// Whether this is the identity permutation.
    #[must_use]
    pub fn is_identity(&self) -> bool {
        self.as_slice().iter().enumerate().all(|(i, &s)| s as usize == i + 1)
    }

    /// Applies the star-graph generator of dimension `dim` (`2 <= dim <= n`):
    /// exchanges the symbols at positions 1 and `dim`.
    ///
    /// This is the adjacency relation of the star graph: `p.apply_generator(d)`
    /// is the neighbour of `p` along dimension `d`.
    ///
    /// # Panics
    /// Panics if `dim` is out of `2..=n`.
    #[must_use]
    pub fn apply_generator(&self, dim: usize) -> Self {
        assert!((2..=self.len()).contains(&dim), "dimension {dim} out of range 2..={}", self.len());
        let mut out = *self;
        out.symbols.swap(0, dim - 1);
        out
    }

    /// Function composition `self ∘ other`, i.e. the permutation mapping
    /// position `x` to `self(other(x))` (both viewed as functions
    /// position → symbol).
    ///
    /// # Panics
    /// Panics if the two permutations have different sizes.
    #[must_use]
    pub fn compose(&self, other: &Self) -> Self {
        assert_eq!(self.len(), other.len(), "size mismatch in composition");
        let n = self.len();
        let mut arr = [0u8; MAX_SYMBOLS];
        for pos in 1..=n {
            arr[pos - 1] = self.symbol_at(other.symbol_at(pos) as usize);
        }
        Self { n: self.n, symbols: arr }
    }

    /// The inverse permutation (mapping each symbol back to its position).
    #[must_use]
    pub fn inverse(&self) -> Self {
        let n = self.len();
        let mut arr = [0u8; MAX_SYMBOLS];
        for pos in 1..=n {
            arr[self.symbol_at(pos) as usize - 1] = pos as u8;
        }
        Self { n: self.n, symbols: arr }
    }

    /// The permutation of `self` *relative to* `target`: the permutation `r`
    /// such that routing `r` to the identity with star-graph generators is
    /// isomorphic (dimension by dimension) to routing `self` to `target`.
    ///
    /// Concretely `r = target⁻¹ ∘ self`; `r` is the identity iff
    /// `self == target`, and `(self·g).relative_to(target) == r·g` for every
    /// generator `g`.
    #[must_use]
    pub fn relative_to(&self, target: &Self) -> Self {
        // `target.inverse().compose(self)` in one pass over each label: the
        // routing hot path calls this for every query
        assert_eq!(self.n, target.n, "size mismatch in relative_to");
        let n = self.len();
        let mut position_of = [0u8; MAX_SYMBOLS];
        for (pos, &symbol) in (1..).zip(&target.symbols[..n]) {
            position_of[symbol as usize - 1] = pos;
        }
        let mut symbols = [0u8; MAX_SYMBOLS];
        for (out, &symbol) in symbols.iter_mut().zip(&self.symbols[..n]) {
            *out = position_of[symbol as usize - 1];
        }
        Self { n: self.n, symbols }
    }

    /// Parity of the permutation: `true` for even (product of an even number
    /// of transpositions), `false` for odd.
    ///
    /// The star graph is bipartite with the even and odd permutations as its
    /// two colour classes; a generator always flips parity.
    #[must_use]
    pub fn is_even(&self) -> bool {
        // Count transpositions via cycle structure: a cycle of length L
        // contributes L - 1 transpositions.
        let cs = self.cycle_structure();
        let transpositions: usize = cs.cycle_lengths.iter().map(|l| l - 1).sum();
        transpositions % 2 == 0
    }

    /// Full cycle-structure summary of the permutation.
    #[must_use]
    pub fn cycle_structure(&self) -> CycleStructure {
        let n = self.len();
        let mut visited = [false; MAX_SYMBOLS];
        let mut displaced = 0usize;
        let mut nontrivial_cycles = 0usize;
        let mut first_cycle_len = 1usize;
        let mut cycle_lengths = Vec::new();
        for start in 1..=n {
            if visited[start - 1] {
                continue;
            }
            // walk the cycle containing `start` in the position → symbol map
            let mut len = 0usize;
            let mut pos = start;
            loop {
                visited[pos - 1] = true;
                len += 1;
                pos = self.symbol_at(pos) as usize;
                if pos == start {
                    break;
                }
            }
            if len >= 2 {
                displaced += len;
                nontrivial_cycles += 1;
                cycle_lengths.push(len);
                // does this cycle contain position 1?
                if start == 1 || self.cycle_contains_position_one(start) {
                    first_cycle_len = len;
                }
            }
        }
        cycle_lengths.sort_unstable();
        CycleStructure {
            displaced,
            nontrivial_cycles,
            first_symbol_home: self.symbol_at(1) == 1,
            first_cycle_len,
            cycle_lengths,
        }
    }

    /// Whether the cycle starting at `start` (in the position → symbol map)
    /// passes through position 1.
    fn cycle_contains_position_one(&self, start: usize) -> bool {
        let mut pos = start;
        loop {
            if pos == 1 {
                return true;
            }
            pos = self.symbol_at(pos) as usize;
            if pos == start {
                return false;
            }
        }
    }

    /// The label packed into one word, four bits per symbol with `n` above
    /// them: equal words are equal permutations.
    #[inline]
    #[must_use]
    pub(crate) fn packed(&self) -> u64 {
        let symbols = self.as_slice().iter().rev().fold(0u64, |key, &s| key << 4 | u64::from(s));
        u64::from(self.n) << (4 * MAX_SYMBOLS) | symbols
    }

    /// Star-graph distance from this permutation to the identity: the minimum
    /// number of generators needed to sort it.
    ///
    /// Formula (Akers, Harel & Krishnamurthy):
    /// `d = k + c` if symbol 1 is at position 1, `d = k + c - 2` otherwise,
    /// where `k` is the number of displaced symbols and `c` the number of
    /// non-trivial cycles (and `d = 0` for the identity).
    #[must_use]
    pub fn distance_to_identity(&self) -> usize {
        // one counting walk over the cycles: no cycle-length list is built,
        // so the routing hot path stays allocation-free
        let n = self.len();
        let mut visited = [false; MAX_SYMBOLS];
        let (mut displaced, mut nontrivial_cycles) = (0usize, 0usize);
        for start in 1..=n {
            if visited[start - 1] || self.symbols[start - 1] as usize == start {
                continue;
            }
            nontrivial_cycles += 1;
            let mut pos = start;
            while !visited[pos - 1] {
                visited[pos - 1] = true;
                displaced += 1;
                pos = self.symbols[pos - 1] as usize;
            }
        }
        match (displaced, self.symbols[0] == 1) {
            (0, _) => 0,
            (_, true) => displaced + nontrivial_cycles,
            (_, false) => displaced + nontrivial_cycles - 2,
        }
    }

    /// The set of *profitable* dimensions for minimal routing toward the
    /// identity: every dimension whose generator strictly decreases
    /// [`Self::distance_to_identity`].
    ///
    /// * If the permutation is the identity, the set is empty.
    /// * If symbol 1 is at position 1, every displaced position is profitable.
    /// * Otherwise the profitable moves are (a) sending the first symbol to its
    ///   home position and (b) swapping with any displaced position that lies
    ///   **outside** the cycle through position 1.
    ///
    /// The *number* of profitable dimensions is the adaptivity `f` used by the
    /// analytical model (the number of alternative output channels a fully
    /// adaptive minimal router can offer).
    #[must_use]
    pub fn profitable_dimensions(&self) -> Vec<usize> {
        let mut dims = Vec::new();
        self.for_each_profitable_dimension(|dim| dims.push(dim));
        dims
    }

    /// Calls `visit` with every profitable dimension in ascending order: the
    /// allocation-free form of [`Self::profitable_dimensions`].
    pub fn for_each_profitable_dimension(&self, mut visit: impl FnMut(usize)) {
        let first = self.symbols[0] as usize;
        // with symbol 1 at home every displaced position is profitable;
        // otherwise the home of the first symbol (which lies on the cycle
        // through position 1) and the displaced positions off that cycle
        let in_first_cycle =
            if first == 1 { [false; MAX_SYMBOLS] } else { self.positions_in_cycle_of_one() };
        for pos in 2..=self.len() {
            let displaced = self.symbols[pos - 1] as usize != pos;
            if pos == first || (displaced && !in_first_cycle[pos - 1]) {
                visit(pos);
            }
        }
    }

    /// Number of profitable dimensions (the adaptivity `f`).
    #[must_use]
    pub fn adaptivity(&self) -> usize {
        // Cheap closed form derived from the cycle structure, kept in sync with
        // `profitable_dimensions` by tests.
        if self.is_identity() {
            return 0;
        }
        let cs = self.cycle_structure();
        if cs.first_symbol_home {
            cs.displaced
        } else {
            1 + (cs.displaced - cs.first_cycle_len)
        }
    }

    /// Marks, per position (0-based), whether it lies on the cycle through position 1.
    fn positions_in_cycle_of_one(&self) -> [bool; MAX_SYMBOLS] {
        let mut mark = [false; MAX_SYMBOLS];
        let mut pos = 1usize;
        loop {
            mark[pos - 1] = true;
            pos = self.symbols[pos - 1] as usize;
            if pos == 1 {
                break;
            }
        }
        mark
    }

    /// A canonical signature of the permutation *type* for caching purposes:
    /// permutations with equal signatures have the same distance, the same
    /// adaptivity profile along their minimal-path DAGs, and the same number
    /// of minimal paths.
    ///
    /// The signature is the multiset of non-trivial cycle lengths together
    /// with the length of the cycle through position 1 (1 when position 1 is
    /// a fixed point).
    #[must_use]
    pub fn type_signature(&self) -> (Vec<usize>, usize) {
        let cs = self.cycle_structure();
        (cs.cycle_lengths, if cs.first_symbol_home { 1 } else { cs.first_cycle_len })
    }
}

impl fmt::Debug for Permutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Permutation(")?;
        for (i, s) in self.as_slice().iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Permutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in self.as_slice() {
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(sym: &[u8]) -> Permutation {
        Permutation::from_symbols(sym).expect("valid permutation")
    }

    #[test]
    fn identity_is_identity() {
        for n in 2..=8 {
            let id = Permutation::identity(n);
            assert!(id.is_identity());
            assert_eq!(id.distance_to_identity(), 0);
            assert!(id.profitable_dimensions().is_empty());
            assert_eq!(id.adaptivity(), 0);
            assert!(id.is_even());
        }
    }

    #[test]
    fn from_symbols_rejects_invalid() {
        assert!(Permutation::from_symbols(&[1, 1, 3]).is_none());
        assert!(Permutation::from_symbols(&[0, 2]).is_none());
        assert!(Permutation::from_symbols(&[1, 2, 4]).is_none());
        assert!(Permutation::from_symbols(&[1]).is_none());
        assert!(Permutation::from_symbols(&[2, 1]).is_some());
    }

    #[test]
    fn generator_is_involution_and_flips_parity() {
        let v = p(&[3, 1, 4, 2, 5]);
        for dim in 2..=5 {
            let w = v.apply_generator(dim);
            assert_ne!(w, v);
            assert_eq!(w.apply_generator(dim), v);
            assert_ne!(w.is_even(), v.is_even());
        }
    }

    #[test]
    fn compose_and_inverse() {
        let a = p(&[2, 3, 1, 5, 4]);
        let b = p(&[3, 1, 2, 4, 5]);
        let ab = a.compose(&b);
        // (a∘b)(x) = a(b(x))
        for pos in 1..=5 {
            assert_eq!(ab.symbol_at(pos), a.symbol_at(b.symbol_at(pos) as usize));
        }
        let id = Permutation::identity(5);
        assert_eq!(a.compose(&a.inverse()), id);
        assert_eq!(a.inverse().compose(&a), id);
    }

    #[test]
    fn relative_to_tracks_generators() {
        let u = p(&[4, 2, 1, 3]);
        let w = p(&[2, 3, 4, 1]);
        let r = u.relative_to(&w);
        assert_eq!(u.relative_to(&u), Permutation::identity(4));
        for dim in 2..=4 {
            let u2 = u.apply_generator(dim);
            assert_eq!(u2.relative_to(&w), r.apply_generator(dim));
        }
    }

    #[test]
    fn known_distances_small() {
        // Worked examples from the literature / hand calculation.
        assert_eq!(p(&[2, 1]).distance_to_identity(), 1);
        assert_eq!(p(&[2, 1, 3]).distance_to_identity(), 1);
        assert_eq!(p(&[3, 2, 1]).distance_to_identity(), 1);
        assert_eq!(p(&[2, 3, 1]).distance_to_identity(), 2);
        assert_eq!(p(&[3, 1, 2]).distance_to_identity(), 2);
        assert_eq!(p(&[1, 3, 2]).distance_to_identity(), 3);
        assert_eq!(p(&[2, 1, 4, 3]).distance_to_identity(), 4);
        assert_eq!(p(&[2, 3, 4, 1]).distance_to_identity(), 3);
    }

    #[test]
    fn distance_matches_bfs_on_s4_and_s5() {
        use std::collections::{HashMap, VecDeque};
        for n in [4usize, 5] {
            let id = Permutation::identity(n);
            let mut dist: HashMap<Permutation, usize> = HashMap::new();
            dist.insert(id, 0);
            let mut q = VecDeque::new();
            q.push_back(id);
            while let Some(v) = q.pop_front() {
                let d = dist[&v];
                for dim in 2..=n {
                    let w = v.apply_generator(dim);
                    dist.entry(w).or_insert_with(|| {
                        q.push_back(w);
                        d + 1
                    });
                }
            }
            assert_eq!(dist.len(), crate::factorial(n) as usize);
            for (v, d) in dist {
                assert_eq!(
                    v.distance_to_identity(),
                    d,
                    "distance formula disagrees with BFS for {v:?}"
                );
            }
        }
    }

    #[test]
    fn profitable_dimensions_reduce_distance_by_one() {
        // exhaustive over S5
        let n = 5;
        let mut stack = vec![Permutation::identity(n)];
        let mut seen = std::collections::HashSet::new();
        seen.insert(stack[0]);
        while let Some(v) = stack.pop() {
            let d = v.distance_to_identity();
            let profitable = v.profitable_dimensions();
            assert_eq!(profitable.len(), v.adaptivity());
            for dim in 2..=n {
                let w = v.apply_generator(dim);
                let dw = w.distance_to_identity();
                if profitable.contains(&dim) {
                    assert_eq!(dw, d - 1, "profitable move must reduce distance ({v:?} dim {dim})");
                } else {
                    assert!(
                        dw >= d,
                        "non-profitable move must not reduce distance ({v:?} dim {dim})"
                    );
                }
                if seen.insert(w) {
                    stack.push(w);
                }
            }
        }
        assert_eq!(seen.len(), 120);
    }

    #[test]
    fn adaptivity_worked_examples() {
        assert_eq!(p(&[2, 1, 4, 3]).adaptivity(), 3);
        assert_eq!(p(&[1, 3, 2]).adaptivity(), 2);
        assert_eq!(p(&[2, 3, 4, 1]).adaptivity(), 1);
        assert_eq!(p(&[2, 1]).adaptivity(), 1);
    }

    #[test]
    fn parity_matches_transposition_count() {
        assert!(Permutation::identity(6).is_even());
        assert!(!p(&[2, 1, 3, 4]).is_even());
        assert!(p(&[2, 1, 4, 3]).is_even());
        assert!(p(&[2, 3, 1]).is_even());
    }

    #[test]
    fn display_and_debug() {
        let v = p(&[3, 1, 2]);
        assert_eq!(format!("{v}"), "312");
        assert_eq!(format!("{v:?}"), "Permutation(3 1 2)");
    }

    #[test]
    fn type_signature_groups_equivalent_nodes() {
        // 2143 and 3412 both consist of two 2-cycles with position 1 displaced.
        let a = p(&[2, 1, 4, 3]).type_signature();
        let b = p(&[3, 4, 1, 2]).type_signature();
        assert_eq!(a, b);
        // but 1324 (position 1 fixed) differs
        let c = p(&[1, 3, 2, 4]).type_signature();
        assert_ne!(a, c);
    }
}
