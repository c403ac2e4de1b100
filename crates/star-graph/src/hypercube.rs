//! The binary hypercube `Q_d` as a [`Topology`].
//!
//! The paper positions the star graph as "an attractive alternative to the
//! well-known hypercube" and names a star-vs-hypercube comparison as future
//! work; the workspace therefore ships a hypercube substrate so that the
//! simulator and the benchmark harness can run both topologies side by side.

use crate::coloring::Color;
use crate::distance::hypercube_mean_distance;
use crate::topology::{NodeId, Topology};

/// The binary hypercube `Q_d` with `2^d` nodes and degree `d`.
#[derive(Debug, Clone)]
pub struct Hypercube {
    dims: usize,
}

impl Hypercube {
    /// Largest supported dimension (`2^24` nodes is already far beyond what
    /// the flit-level simulator is meant for).
    pub const MAX_DIMS: usize = 24;

    /// Builds `Q_d`.
    ///
    /// # Panics
    /// Panics if `dims` is 0 or greater than [`Self::MAX_DIMS`].
    #[must_use]
    pub fn new(dims: usize) -> Self {
        assert!(
            (1..=Self::MAX_DIMS).contains(&dims),
            "hypercube dimension {dims} out of range 1..={}",
            Self::MAX_DIMS
        );
        Self { dims }
    }

    /// The dimension `d`.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The smallest hypercube with at least `nodes` nodes — used to pick an
    /// "equivalent" hypercube when comparing against `S_n` (e.g. `Q7` with 128
    /// nodes against `S5` with 120 nodes).
    #[must_use]
    pub fn at_least(nodes: usize) -> Self {
        let mut dims = 1usize;
        while (1usize << dims) < nodes {
            dims += 1;
        }
        Self::new(dims)
    }
}

impl Topology for Hypercube {
    fn name(&self) -> String {
        format!("Q{}", self.dims)
    }

    fn node_count(&self) -> usize {
        1usize << self.dims
    }

    fn degree(&self) -> usize {
        self.dims
    }

    fn diameter(&self) -> usize {
        self.dims
    }

    fn neighbor(&self, node: NodeId, port: usize) -> NodeId {
        debug_assert!(port < self.dims);
        node ^ (1 << port)
    }

    fn distance(&self, a: NodeId, b: NodeId) -> usize {
        (a ^ b).count_ones() as usize
    }

    fn for_each_min_route_port(&self, current: NodeId, dest: NodeId, visit: &mut dyn FnMut(usize)) {
        let mut diff = current ^ dest;
        while diff != 0 {
            visit(diff.trailing_zeros() as usize);
            diff &= diff - 1;
        }
    }

    fn color(&self, node: NodeId) -> Color {
        if node.count_ones() % 2 == 0 {
            Color::Zero
        } else {
            Color::One
        }
    }

    fn mean_distance(&self) -> f64 {
        hypercube_mean_distance(self.dims)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn symmetry_classes(&self) -> Vec<(NodeId, u64)> {
        // destinations seen from node 0 are classified by Hamming weight:
        // the lowest h bits set represent the C(d, h) nodes at distance h
        (1..=self.dims)
            .map(|h| {
                let count = (1..=h as u64).fold(1u64, |acc, i| {
                    acc * (self.dims as u64 - i + 1) / i // binomial, exact at every step
                });
                ((1u64 << h) as NodeId - 1, count)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_parameters() {
        let q7 = Hypercube::new(7);
        assert_eq!(q7.name(), "Q7");
        assert_eq!(q7.node_count(), 128);
        assert_eq!(q7.degree(), 7);
        assert_eq!(q7.diameter(), 7);
        assert_eq!(q7.channel_count(), 896);
    }

    #[test]
    fn at_least_matches_star_sizes() {
        assert_eq!(Hypercube::at_least(120).dims(), 7); // S5 → Q7
        assert_eq!(Hypercube::at_least(24).dims(), 5); // S4 → Q5
        assert_eq!(Hypercube::at_least(720).dims(), 10); // S6 → Q10
        assert_eq!(Hypercube::at_least(2).dims(), 1);
    }

    #[test]
    fn neighbors_are_involutive_and_distinct() {
        let q = Hypercube::new(5);
        for node in 0..q.node_count() as NodeId {
            let mut seen = std::collections::HashSet::new();
            for port in 0..q.degree() {
                let nb = q.neighbor(node, port);
                assert_ne!(nb, node);
                assert!(seen.insert(nb));
                assert_eq!(q.neighbor(nb, port), node);
            }
        }
    }

    #[test]
    fn distance_and_min_route_ports_agree() {
        let q = Hypercube::new(6);
        let dest: NodeId = 0b101010;
        for node in 0..q.node_count() as NodeId {
            let d = q.distance(node, dest);
            let ports = q.min_route_ports(node, dest);
            assert_eq!(ports.len(), d, "adaptivity of the hypercube equals the Hamming distance");
            for p in ports {
                assert_eq!(q.distance(q.neighbor(node, p), dest), d - 1);
            }
        }
    }

    #[test]
    fn coloring_is_proper() {
        let q = Hypercube::new(4);
        for node in 0..q.node_count() as NodeId {
            for port in 0..q.degree() {
                assert_ne!(q.color(node), q.color(q.neighbor(node, port)));
            }
        }
    }

    #[test]
    fn mean_distance_matches_direct_average() {
        let q = Hypercube::new(6);
        let total: usize = (1..q.node_count() as NodeId).map(|v| q.distance(0, v)).sum();
        let direct = total as f64 / (q.node_count() - 1) as f64;
        assert!((q.mean_distance() - direct).abs() < 1e-12);
    }
}
