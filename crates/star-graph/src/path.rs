//! Minimal-path DAGs and per-hop adaptivity profiles.
//!
//! The analytical model needs, for every destination `i` and every hop `k`
//! along a minimal path, the number `f(i, j, k)` of alternative output
//! channels a fully adaptive minimal router can offer (Eq. 7-8 of the paper).
//! Rather than enumerating every minimal path explicitly, this module builds
//! the DAG of all intermediate nodes lying on *some* minimal path and runs a
//! prefix/suffix path-counting DP; the result is, per hop index, the exact
//! distribution of the adaptivity over all minimal paths with uniform path
//! weighting — exactly the averaging performed by Eq. (7).

use crate::permutation::Permutation;
use crate::MAX_SYMBOLS;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Hashes a [`Permutation::packed`] key with one multiply, folded so the
/// low bits a table indexes by depend on every symbol.
#[derive(Default)]
struct PackedHasher(u64);

impl Hasher for PackedHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(byte));
        }
    }

    fn write_u64(&mut self, key: u64) {
        let h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The DAG of nodes lying on at least one minimal path from a source
/// permutation (expressed *relative to the destination*) to the identity.
///
/// Nodes are numbered in level order and indexed by their packed labels;
/// the edges along profitable dimensions are recorded once, in the forward
/// sweep, and both path-count passes run over them.
#[derive(Debug, Clone)]
pub struct MinimalPathDag {
    /// Nodes in level order: the source first, the identity last.
    nodes: Vec<Permutation>,
    /// Level `l` (`l` hops taken) is `nodes[level_starts[l]..level_starts[l + 1]]`.
    level_starts: Vec<usize>,
    /// Node index by [`Permutation::packed`] label.
    index: HashMap<u64, u32, BuildHasherDefault<PackedHasher>>,
    /// Node `i` has `child_starts[i + 1] − child_starts[i]` successors, one
    /// per profitable dimension: its adaptivity.
    child_starts: Vec<u32>,
    /// Number of minimal suffix paths from each node to the identity.
    suffix_counts: Vec<u128>,
    /// Number of minimal prefix paths from the source to each node.
    prefix_counts: Vec<u128>,
}

/// Per-hop adaptivity statistics of all minimal paths toward one destination,
/// uniformly weighted over paths — the `f(i, j, k)` information consumed by
/// the blocking-probability equations of the analytical model.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptivityProfile {
    /// Distance (number of hops) to the destination.
    pub distance: usize,
    /// Total number of minimal paths.
    pub path_count: u128,
    /// `hop_adaptivity[k]` is the distribution of the number of profitable
    /// output channels available when taking hop `k + 1`, as
    /// `(adaptivity, probability)` pairs with probabilities summing to 1.
    pub hop_adaptivity: Vec<Vec<(usize, f64)>>,
}

impl AdaptivityProfile {
    /// Mean adaptivity at hop `k + 1` (0-based index `k`).
    ///
    /// # Panics
    /// Panics if `k >= distance`.
    #[must_use]
    pub fn mean_adaptivity(&self, k: usize) -> f64 {
        self.hop_adaptivity[k].iter().map(|&(f, p)| f as f64 * p).sum()
    }

    /// Averages `g(f)` over the adaptivity distribution at hop `k + 1`;
    /// used by the model to evaluate `E[P_chan ^ f]`.
    ///
    /// # Panics
    /// Panics if `k >= distance`.
    #[must_use]
    pub fn expect_over_adaptivity(&self, k: usize, mut g: impl FnMut(usize) -> f64) -> f64 {
        self.hop_adaptivity[k].iter().map(|&(f, p)| g(f) * p).sum()
    }
}

impl MinimalPathDag {
    /// Builds the minimal-path DAG for routing `relative_source` to the
    /// identity permutation.
    #[must_use]
    pub fn build(relative_source: &Permutation) -> Self {
        let distance = relative_source.distance_to_identity();
        let mut nodes = vec![*relative_source];
        let mut index: HashMap<u64, u32, BuildHasherDefault<PackedHasher>> = HashMap::default();
        index.insert(relative_source.packed(), 0);
        let mut level_starts = vec![0, 1];
        let mut child_starts = vec![0u32];
        let mut children = Vec::new();
        // Forward sweep: profitable successors only, so every discovered node
        // lies on a minimal path prefix.
        for level in 0..distance {
            for i in level_starts[level]..level_starts[level + 1] {
                let node = nodes[i];
                node.for_each_profitable_dimension(|dim| {
                    let next = node.apply_generator(dim);
                    let child = *index.entry(next.packed()).or_insert_with(|| {
                        nodes.push(next);
                        (nodes.len() - 1) as u32
                    });
                    children.push(child);
                });
                child_starts.push(children.len() as u32);
            }
            level_starts.push(nodes.len());
        }
        debug_assert_eq!(
            &nodes[level_starts[distance]..],
            [Permutation::identity(relative_source.len())]
        );
        // the identity has no successor
        child_starts.push(children.len() as u32);

        // Suffix counts: paths from node to identity, bottom-up (every edge
        // leads to a higher index).
        let edges = |i: usize| &children[child_starts[i] as usize..child_starts[i + 1] as usize];
        let mut suffix_counts = vec![0u128; nodes.len()];
        suffix_counts[nodes.len() - 1] = 1;
        for i in (0..nodes.len() - 1).rev() {
            suffix_counts[i] = edges(i).iter().map(|&c| suffix_counts[c as usize]).sum();
        }

        // Prefix counts: paths from source to node, top-down.
        let mut prefix_counts = vec![0u128; nodes.len()];
        prefix_counts[0] = 1;
        for i in 0..nodes.len() {
            let from = prefix_counts[i];
            for &c in edges(i) {
                prefix_counts[c as usize] += from;
            }
        }

        Self { nodes, level_starts, index, child_starts, suffix_counts, prefix_counts }
    }

    /// The relative source permutation this DAG was built for.
    #[must_use]
    pub fn source(&self) -> &Permutation {
        &self.nodes[0]
    }

    /// Distance from source to destination.
    #[must_use]
    pub fn distance(&self) -> usize {
        self.level_starts.len() - 2
    }

    /// Total number of minimal paths from the source to the destination.
    #[must_use]
    pub fn path_count(&self) -> u128 {
        self.suffix_counts[0]
    }

    /// Nodes at a given level (`level` hops taken from the source).
    ///
    /// # Panics
    /// Panics if `level > distance`.
    #[must_use]
    pub fn level(&self, level: usize) -> &[Permutation] {
        &self.nodes[self.level_starts[level]..self.level_starts[level + 1]]
    }

    /// Fraction of minimal paths passing through `node` (0 if the node is not
    /// in the DAG).
    #[must_use]
    pub fn node_weight(&self, node: &Permutation) -> f64 {
        match self.index.get(&node.packed()) {
            Some(&i) => {
                let i = i as usize;
                (self.prefix_counts[i] * self.suffix_counts[i]) as f64 / self.path_count() as f64
            }
            None => 0.0,
        }
    }

    /// The per-hop adaptivity profile (distribution of the number of
    /// profitable output channels at each hop, uniformly weighted over all
    /// minimal paths).
    #[must_use]
    pub fn adaptivity_profile(&self) -> AdaptivityProfile {
        let distance = self.distance();
        let total = self.path_count();
        let mut hop_adaptivity = Vec::with_capacity(distance);
        for level in 0..distance {
            // accumulate exact u128 path counts per adaptivity value (a
            // node's number of successors) and divide once, in ascending
            // adaptivity, so the resulting probabilities are independent of
            // node iteration order (and bit-identical to any other builder
            // that sums the same integers)
            let mut sums = [0u128; MAX_SYMBOLS];
            for i in self.level_starts[level]..self.level_starts[level + 1] {
                let adaptivity = (self.child_starts[i + 1] - self.child_starts[i]) as usize;
                sums[adaptivity] += self.prefix_counts[i] * self.suffix_counts[i];
            }
            hop_adaptivity.push(
                (0..MAX_SYMBOLS)
                    .filter(|&f| sums[f] > 0)
                    .map(|f| (f, sums[f] as f64 / total as f64))
                    .collect(),
            );
        }
        AdaptivityProfile { distance, path_count: total, hop_adaptivity }
    }

    /// Enumerates every minimal path explicitly (sequence of visited
    /// permutations including both endpoints).  Intended for tests and small
    /// distances only; the number of paths grows quickly with distance.
    #[must_use]
    pub fn enumerate_paths(&self) -> Vec<Vec<Permutation>> {
        let mut out = Vec::new();
        let mut current = vec![*self.source()];
        fn rec(
            node: &Permutation,
            current: &mut Vec<Permutation>,
            out: &mut Vec<Vec<Permutation>>,
        ) {
            if node.is_identity() {
                out.push(current.clone());
                return;
            }
            for dim in node.profitable_dimensions() {
                let next = node.apply_generator(dim);
                current.push(next);
                rec(&next, current, out);
                current.pop();
            }
        }
        rec(self.source(), &mut current, &mut out);
        out
    }
}

/// Convenience: builds the adaptivity profile for routing from `source` to
/// `dest` (absolute node labels).
#[must_use]
pub fn profile_between(source: &Permutation, dest: &Permutation) -> AdaptivityProfile {
    MinimalPathDag::build(&source.relative_to(dest)).adaptivity_profile()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factorial;
    use crate::rank::unrank;
    use std::collections::BTreeMap;

    fn p(sym: &[u8]) -> Permutation {
        Permutation::from_symbols(sym).unwrap()
    }

    #[test]
    fn identity_dag_is_trivial() {
        let dag = MinimalPathDag::build(&Permutation::identity(5));
        assert_eq!(dag.distance(), 0);
        assert_eq!(dag.path_count(), 1);
        let profile = dag.adaptivity_profile();
        assert!(profile.hop_adaptivity.is_empty());
    }

    #[test]
    fn single_swap_has_one_path() {
        let dag = MinimalPathDag::build(&p(&[2, 1, 3, 4]));
        assert_eq!(dag.distance(), 1);
        assert_eq!(dag.path_count(), 1);
        assert_eq!(dag.adaptivity_profile().hop_adaptivity[0], vec![(1, 1.0)]);
    }

    #[test]
    fn two_disjoint_transpositions() {
        // 2143: distance 4, adaptivity 3 at the first hop.
        let dag = MinimalPathDag::build(&p(&[2, 1, 4, 3]));
        assert_eq!(dag.distance(), 4);
        let profile = dag.adaptivity_profile();
        assert_eq!(profile.hop_adaptivity.len(), 4);
        assert_eq!(profile.mean_adaptivity(0), 3.0);
        // last hop is always forced
        assert_eq!(profile.hop_adaptivity[3], vec![(1, 1.0)]);
        // explicit enumeration agrees with the DP count
        assert_eq!(dag.enumerate_paths().len() as u128, dag.path_count());
    }

    #[test]
    fn path_count_matches_enumeration_for_all_s4_destinations() {
        let n = 4;
        for r in 1..factorial(n) {
            let rel = unrank(n, r);
            let dag = MinimalPathDag::build(&rel);
            let paths = dag.enumerate_paths();
            assert_eq!(paths.len() as u128, dag.path_count(), "count mismatch for {rel:?}");
            for path in &paths {
                assert_eq!(path.len(), dag.distance() + 1);
                assert_eq!(path[0], rel);
                assert!(path.last().unwrap().is_identity());
                for w in path.windows(2) {
                    assert_eq!(w[1].distance_to_identity() + 1, w[0].distance_to_identity());
                }
            }
        }
    }

    #[test]
    fn every_s5_dag_is_what_its_explicit_paths_imply() {
        // the DAG's counts, weights and profile against brute-force path
        // enumeration, exactly: the same integers divided the same way
        let n = 5;
        for r in 1..factorial(n) {
            let rel = unrank(n, r);
            let dag = MinimalPathDag::build(&rel);
            let paths = dag.enumerate_paths();
            let total = paths.len() as u128;
            assert_eq!(dag.path_count(), total, "{rel:?}");
            assert!(paths.iter().all(|path| path.len() == dag.distance() + 1));
            let mut hop_adaptivity = Vec::new();
            for level in 0..=dag.distance() {
                let mut through: BTreeMap<Permutation, u128> = BTreeMap::new();
                for path in &paths {
                    *through.entry(path[level]).or_insert(0) += 1;
                }
                let mut nodes = dag.level(level).to_vec();
                nodes.sort();
                assert_eq!(nodes, through.keys().copied().collect::<Vec<_>>(), "{rel:?} {level}");
                for (node, &count) in &through {
                    let want = count as f64 / total as f64;
                    assert_eq!(dag.node_weight(node).to_bits(), want.to_bits(), "{rel:?} {node:?}");
                }
                if level < dag.distance() {
                    let mut sums: BTreeMap<usize, u128> = BTreeMap::new();
                    for (node, &count) in &through {
                        *sums.entry(node.adaptivity()).or_insert(0) += count;
                    }
                    hop_adaptivity.push(
                        sums.into_iter()
                            .map(|(f, count)| (f, count as f64 / total as f64))
                            .collect::<Vec<_>>(),
                    );
                }
            }
            let want =
                AdaptivityProfile { distance: dag.distance(), path_count: total, hop_adaptivity };
            assert_eq!(dag.adaptivity_profile(), want, "{rel:?}");
        }
    }

    #[test]
    fn adaptivity_profile_probabilities_sum_to_one() {
        let n = 5;
        for r in (1..factorial(n)).step_by(7) {
            let profile = MinimalPathDag::build(&unrank(n, r)).adaptivity_profile();
            for hop in &profile.hop_adaptivity {
                let sum: f64 = hop.iter().map(|&(_, p)| p).sum();
                assert!((sum - 1.0).abs() < 1e-9, "probabilities must sum to 1");
                for &(f, p) in hop {
                    assert!(f >= 1, "adaptivity at a non-final node is at least 1");
                    assert!(p > 0.0 && p <= 1.0 + 1e-12);
                }
            }
        }
    }

    #[test]
    fn hop_profile_matches_explicit_paths() {
        // Cross-check the DP-weighted distribution against brute-force path
        // enumeration for a distance-5 destination in S5.
        let rel = p(&[3, 4, 5, 1, 2]); // cycles (1 3 5 2 4): single 5-cycle
        let dag = MinimalPathDag::build(&rel);
        let paths = dag.enumerate_paths();
        let profile = dag.adaptivity_profile();
        for k in 0..dag.distance() {
            let mut hist: HashMap<usize, usize> = HashMap::new();
            for path in &paths {
                *hist.entry(path[k].adaptivity()).or_insert(0) += 1;
            }
            let expected: f64 = profile.mean_adaptivity(k);
            let direct: f64 =
                hist.iter().map(|(&f, &c)| f as f64 * c as f64).sum::<f64>() / paths.len() as f64;
            assert!((expected - direct).abs() < 1e-9, "hop {k} mean adaptivity mismatch");
        }
    }

    #[test]
    fn node_weights_sum_to_one_per_level() {
        let rel = p(&[5, 4, 3, 2, 1]);
        let dag = MinimalPathDag::build(&rel);
        for level in 0..=dag.distance() {
            let sum: f64 = dag.level(level).iter().map(|v| dag.node_weight(v)).sum();
            assert!((sum - 1.0).abs() < 1e-9, "level {level} weights must sum to 1");
        }
        // nodes outside the DAG have weight 0
        assert_eq!(
            dag.node_weight(&p(&[2, 1, 3, 4, 5]).apply_generator(2).apply_generator(3)),
            0.0
        );
    }

    #[test]
    fn profile_depends_only_on_cycle_type() {
        // Two different permutations with the same type signature must have
        // identical adaptivity profiles.
        let a = MinimalPathDag::build(&p(&[2, 1, 4, 3, 5])).adaptivity_profile();
        let b = MinimalPathDag::build(&p(&[4, 3, 2, 1, 5])).adaptivity_profile();
        assert_eq!(a.distance, b.distance);
        assert_eq!(a.path_count, b.path_count);
        for k in 0..a.distance {
            assert!((a.mean_adaptivity(k) - b.mean_adaptivity(k)).abs() < 1e-12);
        }
    }

    #[test]
    fn profile_between_absolute_nodes() {
        let src = p(&[3, 1, 4, 2, 5]);
        let dst = p(&[1, 3, 4, 2, 5]);
        let profile = profile_between(&src, &dst);
        assert_eq!(profile.distance, src.relative_to(&dst).distance_to_identity());
    }
}
