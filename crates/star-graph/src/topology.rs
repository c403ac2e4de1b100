//! The [`Topology`] trait: the minimal interface a direct network must expose
//! to the wormhole simulator, the routing algorithms and the analytical model.
//!
//! Nodes are identified by dense *linear addresses* (`NodeId`, `0..node_count`)
//! so per-node state can live in flat vectors.  Routers have `degree()`
//! network ports, numbered `0..degree()`; port `p` of node `u` connects to
//! `neighbor(u, p)`.  Links are bidirectional (two unidirectional channels),
//! matching the channel model of the paper.

use crate::coloring::Color;

/// Dense node identifier (linear address) in `0..node_count()`.
pub type NodeId = u32;

/// A direct interconnection network with minimal-path adaptive routing
/// information.
///
/// # The spectrum contract
///
/// The analytical model derives every queueing quantity from a *traversal
/// spectrum* built through this trait (a BFS distance census plus per-hop
/// adaptivity profiles from [`Topology::for_each_min_route_port`]).  For the model to
/// be valid on a new topology, the implementation must guarantee:
///
/// * **Minimality.**  `for_each_min_route_port(u, dest, ·)` visits exactly the ports
///   whose neighbour is one hop closer to `dest` (strictly distance
///   decreasing, and *every* such port — the census counts minimal paths by
///   multiplying per-node branch counts).  It visits nothing iff `u == dest`.
/// * **Bipartiteness.**  [`Topology::color`] is a proper 2-colouring (every
///   link joins the two colour classes).  The negative-hop escape levels —
///   and hence the model's `⌊diameter/2⌋ + 1` virtual-channel minimum — rely
///   on it.
/// * **Vertex transitivity.**  [`Topology::symmetry_classes`] describes the
///   destination census *as seen from node 0*; the model applies it to every
///   source, which is only exact when the network looks the same from every
///   node (true for the star graph, hypercube, torus and ring shipped here).
/// * **Consistency.**  `distance`, `neighbor` and `min_route_ports` agree
///   with each other and with `diameter()`/`mean_distance()` (which must be
///   the exact maximum/mean of `distance(0, ·)` over all nodes).
pub trait Topology: Send + Sync {
    /// Human-readable name, e.g. `"S5"` or `"Q7"`.
    fn name(&self) -> String;

    /// Total number of nodes.
    fn node_count(&self) -> usize;

    /// Router degree: number of network ports per node (excludes the
    /// injection and ejection channels).
    fn degree(&self) -> usize;

    /// Network diameter (maximum minimal distance between any two nodes).
    fn diameter(&self) -> usize;

    /// The neighbour reached from `node` through port `port`
    /// (`port < degree()`).
    fn neighbor(&self, node: NodeId, port: usize) -> NodeId;

    /// The port index at `self.neighbor(node, port)` whose link leads back
    /// to `node` — i.e. `neighbor(neighbor(node, p), reverse_port(node, p))
    /// == node` for every `p < degree()`.  The flit-level simulator routes
    /// credits upstream through this mapping.
    ///
    /// The default returns `port`, which is correct whenever every port's
    /// move is an involution (star transpositions, hypercube bit flips);
    /// ±-step topologies like the torus and ring override it to swap each
    /// `+`/`−` port pair.
    fn reverse_port(&self, node: NodeId, port: usize) -> usize {
        let _ = node;
        port
    }

    /// Minimal distance (in hops) between two nodes.
    fn distance(&self, a: NodeId, b: NodeId) -> usize;

    /// Calls `visit` with every port that lies on *some* minimal path from
    /// `current` to `dest` (the profitable output channels of a fully
    /// adaptive minimal router), in the topology's fixed port order.  Visits
    /// nothing iff `current == dest`.
    ///
    /// This is the allocation-free form the routing hot path uses;
    /// [`Self::min_route_ports`] collects it into a `Vec`.
    fn for_each_min_route_port(&self, current: NodeId, dest: NodeId, visit: &mut dyn FnMut(usize));

    /// The ports [`Self::for_each_min_route_port`] visits, in its order.
    /// Empty iff `current == dest`.
    fn min_route_ports(&self, current: NodeId, dest: NodeId) -> Vec<usize> {
        let mut ports = Vec::new();
        self.for_each_min_route_port(current, dest, &mut |port| ports.push(port));
        ports
    }

    /// Colour of a node in a 2-colouring (all topologies in this workspace are
    /// bipartite); used by the negative-hop virtual-channel discipline.
    fn color(&self, node: NodeId) -> Color;

    /// Exact mean minimal distance over all ordered pairs of distinct nodes.
    fn mean_distance(&self) -> f64;

    /// Number of unidirectional network channels (`node_count * degree`).
    fn channel_count(&self) -> usize {
        self.node_count() * self.degree()
    }

    /// Convenience: verify that `a` and `b` are adjacent.
    fn are_adjacent(&self, a: NodeId, b: NodeId) -> bool {
        (0..self.degree()).any(|p| self.neighbor(a, p) == b)
    }

    /// The concrete type behind the trait object, so backends can keep
    /// closed-form fast paths for specific topologies (the star and hypercube
    /// spectra have exact combinatorial constructions; everything else goes
    /// through the generic BFS census).
    fn as_any(&self) -> &dyn std::any::Any;

    /// Destination equivalence classes seen from node 0, as
    /// `(representative, multiplicity)` pairs: every destination other than
    /// the source belongs to exactly one class (the multiplicities sum to
    /// `node_count() - 1`), and all members of a class have the same distance
    /// and per-hop adaptivity profile as the representative.
    ///
    /// The default groups nothing (every destination is its own class of
    /// one), which is always correct; override it with the topology's
    /// symmetry classes (permutation cycle types on `S_n`, Hamming weight on
    /// `Q_d`, folded displacement on the torus and ring) to shrink the
    /// generic spectrum construction from `node_count` path DAGs to a
    /// handful.
    fn symmetry_classes(&self) -> Vec<(NodeId, u64)> {
        #[allow(clippy::cast_possible_truncation)]
        (1..self.node_count() as NodeId).map(|d| (d, 1)).collect()
    }
}

#[cfg(test)]
mod tests {
    // The trait itself is exercised through its implementations in
    // `star.rs` and `hypercube.rs`; here we only check object safety.
    use super::*;

    #[test]
    fn trait_is_object_safe() {
        fn takes_dyn(_t: &dyn Topology) {}
        let s = crate::StarGraph::new(4);
        takes_dyn(&s);
        let q = crate::Hypercube::new(4);
        takes_dyn(&q);
    }
}
