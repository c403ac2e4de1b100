//! The star graph `S_n` as a [`Topology`].
//!
//! `S_n` has `n!` nodes, one per permutation of `{1..n}`; node `v` is adjacent
//! to the `n - 1` permutations obtained by exchanging the first symbol of `v`
//! with its *i*-th symbol (`2 <= i <= n`).  Port `p` (0-based) of a router
//! corresponds to dimension `p + 2`.
//!
//! The constructor precomputes the rank ↔ permutation tables and the
//! neighbour table so that the simulator's hot path is a table lookup.

use crate::coloring::Color;
use crate::distance;
use crate::factorial;
use crate::permutation::Permutation;
use crate::rank::{rank, unrank};
use crate::topology::{NodeId, Topology};

/// The star interconnection network `S_n`.
#[derive(Debug, Clone)]
pub struct StarGraph {
    n: usize,
    /// Permutation label of every linear address.
    perms: Vec<Permutation>,
    /// `neighbors[node * (n - 1) + port]` = node reached through dimension
    /// `port + 2`.
    neighbors: Vec<NodeId>,
    /// Colour (parity) of every node.
    colors: Vec<Color>,
    diameter: usize,
    mean_distance: f64,
}

impl StarGraph {
    /// Largest `n` for which the full node tables are precomputed
    /// (`9! = 362_880` nodes).
    pub const MAX_TABLED_SYMBOLS: usize = 9;

    /// Builds `S_n` with full node/neighbour tables.
    ///
    /// # Panics
    /// Panics if `n < 2` or `n > MAX_TABLED_SYMBOLS`; larger star graphs
    /// should be studied through the analytical model (which enumerates node
    /// *types*, not nodes — see `star-core`).
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(
            (2..=Self::MAX_TABLED_SYMBOLS).contains(&n),
            "S_{n} is not supported by the tabled topology (2..={})",
            Self::MAX_TABLED_SYMBOLS
        );
        let count = factorial(n) as usize;
        let mut perms = Vec::with_capacity(count);
        let mut colors = Vec::with_capacity(count);
        for r in 0..count as u64 {
            let p = unrank(n, r);
            colors.push(Color::of(&p));
            perms.push(p);
        }
        let mut neighbors = Vec::with_capacity(count * (n - 1));
        for p in &perms {
            for dim in 2..=n {
                neighbors.push(rank(&p.apply_generator(dim)) as NodeId);
            }
        }
        let diameter = 3 * (n - 1) / 2;
        let mean_distance = distance::star_mean_distance(n);
        Self { n, perms, neighbors, colors, diameter, mean_distance }
    }

    /// Number of symbols `n` (so the network has `n!` nodes and degree `n-1`).
    #[must_use]
    pub fn symbols(&self) -> usize {
        self.n
    }

    /// Permutation label of a node.
    ///
    /// # Panics
    /// Panics if the node id is out of range.
    #[must_use]
    pub fn permutation(&self, node: NodeId) -> &Permutation {
        &self.perms[node as usize]
    }

    /// Linear address of a permutation.
    #[must_use]
    pub fn node_of(&self, perm: &Permutation) -> NodeId {
        debug_assert_eq!(perm.len(), self.n);
        rank(perm) as NodeId
    }

    /// The dimension (`2..=n`) corresponding to a router port (`0..n-1`).
    #[must_use]
    pub fn port_to_dimension(&self, port: usize) -> usize {
        assert!(port < self.n - 1, "port {port} out of range");
        port + 2
    }

    /// The router port (`0..n-1`) corresponding to a dimension (`2..=n`).
    #[must_use]
    pub fn dimension_to_port(&self, dim: usize) -> usize {
        assert!((2..=self.n).contains(&dim), "dimension {dim} out of range");
        dim - 2
    }

    /// Number of virtual-channel *levels* the negative-hop scheme needs on
    /// this network: `⌊H/2⌋ + 1` where `H` is the diameter (the star graph is
    /// 2-colourable).
    #[must_use]
    pub fn negative_hop_levels(&self) -> usize {
        crate::coloring::max_negative_hops(self.diameter, 2) + 1
    }
}

impl Topology for StarGraph {
    fn name(&self) -> String {
        format!("S{}", self.n)
    }

    fn node_count(&self) -> usize {
        self.perms.len()
    }

    fn degree(&self) -> usize {
        self.n - 1
    }

    fn diameter(&self) -> usize {
        self.diameter
    }

    fn neighbor(&self, node: NodeId, port: usize) -> NodeId {
        debug_assert!(port < self.n - 1);
        self.neighbors[node as usize * (self.n - 1) + port]
    }

    fn distance(&self, a: NodeId, b: NodeId) -> usize {
        self.perms[a as usize].relative_to(&self.perms[b as usize]).distance_to_identity()
    }

    fn for_each_min_route_port(&self, current: NodeId, dest: NodeId, visit: &mut dyn FnMut(usize)) {
        let rel = self.perms[current as usize].relative_to(&self.perms[dest as usize]);
        // port p is dimension p + 2
        rel.for_each_profitable_dimension(|dim| visit(dim - 2));
    }

    fn color(&self, node: NodeId) -> Color {
        self.colors[node as usize]
    }

    fn mean_distance(&self) -> f64 {
        self.mean_distance
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn symmetry_classes(&self) -> Vec<(NodeId, u64)> {
        // destinations seen from the identity fall into permutation
        // cycle-type classes; the *inverse* of the canonical representative
        // is used so that the relative permutation seen when routing node 0
        // to the class node (identity.relative_to(rep) = rep⁻¹) is exactly
        // the canonical representative — the same permutation the closed-form
        // spectrum builds its path DAG from
        distance::enumerate_types(self.n)
            .into_iter()
            .filter(|(t, _)| !t.cycle_lengths.is_empty()) // skip the source itself
            .map(|(t, count)| (self.node_of(&t.representative(self.n).inverse()), count))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_parameters() {
        let s4 = StarGraph::new(4);
        assert_eq!(s4.name(), "S4");
        assert_eq!(s4.node_count(), 24);
        assert_eq!(s4.degree(), 3);
        assert_eq!(s4.diameter(), 4);
        assert_eq!(s4.channel_count(), 72);
        assert_eq!(s4.negative_hop_levels(), 3);

        let s5 = StarGraph::new(5);
        assert_eq!(s5.node_count(), 120);
        assert_eq!(s5.degree(), 4);
        assert_eq!(s5.diameter(), 6);
        assert_eq!(s5.negative_hop_levels(), 4);
    }

    #[test]
    fn neighbor_table_is_symmetric_and_regular() {
        let s5 = StarGraph::new(5);
        for node in 0..s5.node_count() as NodeId {
            let mut seen = std::collections::HashSet::new();
            for port in 0..s5.degree() {
                let nb = s5.neighbor(node, port);
                assert_ne!(nb, node, "no self loops");
                assert!(seen.insert(nb), "neighbours must be distinct");
                // undirected: the reverse edge exists on the same dimension
                assert_eq!(s5.neighbor(nb, port), node);
                assert!(s5.are_adjacent(node, nb));
            }
        }
    }

    #[test]
    fn distance_agrees_with_bfs() {
        use std::collections::VecDeque;
        let s4 = StarGraph::new(4);
        let count = s4.node_count();
        for src in 0..count as NodeId {
            let mut dist = vec![usize::MAX; count];
            dist[src as usize] = 0;
            let mut q = VecDeque::from([src]);
            while let Some(u) = q.pop_front() {
                for port in 0..s4.degree() {
                    let v = s4.neighbor(u, port);
                    if dist[v as usize] == usize::MAX {
                        dist[v as usize] = dist[u as usize] + 1;
                        q.push_back(v);
                    }
                }
            }
            for dst in 0..count as NodeId {
                assert_eq!(s4.distance(src, dst), dist[dst as usize]);
            }
        }
    }

    #[test]
    fn min_route_ports_reduce_distance() {
        let s5 = StarGraph::new(5);
        let dest: NodeId = 77;
        for node in 0..s5.node_count() as NodeId {
            let d = s5.distance(node, dest);
            let ports = s5.min_route_ports(node, dest);
            if node == dest {
                assert!(ports.is_empty());
                continue;
            }
            assert!(!ports.is_empty(), "every non-destination node must have a profitable port");
            for p in 0..s5.degree() {
                let nd = s5.distance(s5.neighbor(node, p), dest);
                if ports.contains(&p) {
                    assert_eq!(nd, d - 1);
                } else {
                    assert!(nd >= d);
                }
            }
        }
    }

    #[test]
    fn diameter_is_achieved() {
        let s5 = StarGraph::new(5);
        let max = (0..s5.node_count() as NodeId).map(|v| s5.distance(0, v)).max().unwrap();
        assert_eq!(max, s5.diameter());
    }

    #[test]
    fn color_classes_are_balanced_and_proper() {
        let s5 = StarGraph::new(5);
        let zeros = (0..s5.node_count() as NodeId).filter(|&v| s5.color(v) == Color::Zero).count();
        assert_eq!(zeros, s5.node_count() / 2);
        for node in 0..s5.node_count() as NodeId {
            for port in 0..s5.degree() {
                assert_ne!(s5.color(node), s5.color(s5.neighbor(node, port)));
            }
        }
    }

    #[test]
    fn mean_distance_matches_direct_average() {
        let s5 = StarGraph::new(5);
        let total: usize = (1..s5.node_count() as NodeId).map(|v| s5.distance(0, v)).sum();
        let direct = total as f64 / (s5.node_count() - 1) as f64;
        assert!((s5.mean_distance() - direct).abs() < 1e-12);
    }

    #[test]
    fn port_dimension_mapping_roundtrip() {
        let s6 = StarGraph::new(6);
        for port in 0..s6.degree() {
            assert_eq!(s6.dimension_to_port(s6.port_to_dimension(port)), port);
        }
    }

    #[test]
    #[should_panic(expected = "not supported")]
    fn too_large_star_graph_rejected() {
        let _ = StarGraph::new(10);
    }
}
