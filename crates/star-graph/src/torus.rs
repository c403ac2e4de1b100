//! The `k`-ary 2-cube (2-D torus) and the ring as [`Topology`] backends.
//!
//! The paper compares the star graph against the hypercube only; these two
//! k-ary cube relatives exercise the *generic* traversal-spectrum path of the
//! analytical model — there is no closed-form spectrum for them in the
//! workspace, so every queueing quantity is derived through the
//! [`Topology`] trait alone.
//!
//! Both topologies restrict `k` to **even** values `>= 4`: odd cycles are not
//! bipartite, and the negative-hop escape discipline (and with it the model's
//! virtual-channel floor) requires a proper 2-colouring.  Even `k` also
//! maximises adaptivity: a displacement of exactly `k/2` along an axis can be
//! resolved in either direction, which is precisely the multi-path richness
//! the adaptive model is about.
//!
//! Minimal-path counts on the torus grow as binomials of the total distance;
//! the generic census accumulates them in `u128`, which overflows around
//! `C(132, 66)`.  Keep `k` at or below 128 when building model spectra (the
//! parity figures use `k <= 20`).

use crate::coloring::Color;
use crate::topology::{NodeId, Topology};

/// The `k`-ary 2-cube: a `k x k` grid with wraparound links in both axes.
///
/// Node `(x, y)` has linear address `x * k + y`.  Ports: `0 = +x`, `1 = -x`,
/// `2 = +y`, `3 = -y` (all arithmetic modulo `k`), so the degree is 4
/// independent of `k`.
#[derive(Debug, Clone)]
pub struct Torus {
    k: usize,
}

/// The cycle `C_k` (1-D torus): `k` nodes, degree 2.
///
/// Ports: `0 = +1`, `1 = -1` modulo `k`.
#[derive(Debug, Clone)]
pub struct Ring {
    k: usize,
}

/// Ports on a minimal path along one axis of a cycle of length `k`, given the
/// forward displacement `d = (dest - current) mod k` and the (plus, minus)
/// port numbers for that axis.  Both directions are minimal when `d == k/2`.
fn axis_ports(d: usize, k: usize, plus: usize, minus: usize, visit: &mut dyn FnMut(usize)) {
    if d == 0 {
        return;
    }
    if 2 * d <= k {
        visit(plus);
    }
    if 2 * d >= k {
        visit(minus);
    }
}

/// Shortest way around a cycle of length `k` for forward displacement `d`.
fn axis_distance(d: usize, k: usize) -> usize {
    d.min(k - d)
}

/// Number of nodes of `C_k` at folded displacement `c` from a fixed node
/// (`0 < c <= k/2`): 2 on both sides, except the antipode which is unique.
fn axis_multiplicity(c: usize, k: usize) -> u64 {
    if c == 0 || 2 * c == k {
        1
    } else {
        2
    }
}

impl Torus {
    /// Builds the `k`-ary 2-cube.
    ///
    /// # Panics
    /// Panics if `k` is odd or smaller than 4 (odd cycles are not bipartite,
    /// and `k < 4` degenerates into multi-edges).
    #[must_use]
    pub fn new(k: usize) -> Self {
        assert!(k >= 4 && k % 2 == 0, "torus side {k} must be even and at least 4");
        Self { k }
    }

    /// The side length `k` (so the network has `k^2` nodes).
    #[must_use]
    pub fn side(&self) -> usize {
        self.k
    }

    fn coords(&self, node: NodeId) -> (usize, usize) {
        let node = node as usize;
        (node / self.k, node % self.k)
    }

    #[allow(clippy::cast_possible_truncation)]
    fn node_at(&self, x: usize, y: usize) -> NodeId {
        (x * self.k + y) as NodeId
    }
}

impl Topology for Torus {
    fn name(&self) -> String {
        format!("T{}", self.k)
    }

    fn node_count(&self) -> usize {
        self.k * self.k
    }

    fn degree(&self) -> usize {
        4
    }

    fn diameter(&self) -> usize {
        self.k // k/2 per axis, twice
    }

    fn neighbor(&self, node: NodeId, port: usize) -> NodeId {
        let (x, y) = self.coords(node);
        let k = self.k;
        match port {
            0 => self.node_at((x + 1) % k, y),
            1 => self.node_at((x + k - 1) % k, y),
            2 => self.node_at(x, (y + 1) % k),
            3 => self.node_at(x, (y + k - 1) % k),
            _ => panic!("torus port {port} out of range 0..4"),
        }
    }

    fn reverse_port(&self, _node: NodeId, port: usize) -> usize {
        // each axis pairs a `+` port with its `−` port: 0↔1, 2↔3
        port ^ 1
    }

    fn distance(&self, a: NodeId, b: NodeId) -> usize {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        let k = self.k;
        axis_distance((bx + k - ax) % k, k) + axis_distance((by + k - ay) % k, k)
    }

    fn for_each_min_route_port(&self, current: NodeId, dest: NodeId, visit: &mut dyn FnMut(usize)) {
        let (ax, ay) = self.coords(current);
        let (bx, by) = self.coords(dest);
        let k = self.k;
        axis_ports((bx + k - ax) % k, k, 0, 1, visit);
        axis_ports((by + k - ay) % k, k, 2, 3, visit);
    }

    fn color(&self, node: NodeId) -> Color {
        let (x, y) = self.coords(node);
        if (x + y) % 2 == 0 {
            Color::Zero
        } else {
            Color::One
        }
    }

    fn mean_distance(&self) -> f64 {
        // per axis the distances from a fixed coordinate sum to k^2/4, and
        // each axis sum is seen k times (once per value of the other axis)
        let k = self.k as f64;
        (k * k * k / 2.0) / (k * k - 1.0)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn symmetry_classes(&self) -> Vec<(NodeId, u64)> {
        // destinations seen from (0, 0) are classified by the pair of folded
        // displacements (cx, cy) in [0, k/2]^2 minus the source itself
        let half = self.k / 2;
        let mut classes = Vec::with_capacity((half + 1) * (half + 1) - 1);
        for cx in 0..=half {
            for cy in 0..=half {
                if cx == 0 && cy == 0 {
                    continue;
                }
                let count = axis_multiplicity(cx, self.k) * axis_multiplicity(cy, self.k);
                classes.push((self.node_at(cx, cy), count));
            }
        }
        classes
    }
}

impl Ring {
    /// Builds the cycle `C_k`.
    ///
    /// # Panics
    /// Panics if `k` is odd or smaller than 4.
    #[must_use]
    pub fn new(k: usize) -> Self {
        assert!(k >= 4 && k % 2 == 0, "ring size {k} must be even and at least 4");
        Self { k }
    }

    /// The number of nodes `k`.
    #[must_use]
    pub fn size(&self) -> usize {
        self.k
    }
}

impl Topology for Ring {
    fn name(&self) -> String {
        format!("R{}", self.k)
    }

    fn node_count(&self) -> usize {
        self.k
    }

    fn degree(&self) -> usize {
        2
    }

    fn diameter(&self) -> usize {
        self.k / 2
    }

    #[allow(clippy::cast_possible_truncation)]
    fn neighbor(&self, node: NodeId, port: usize) -> NodeId {
        let node = node as usize;
        let k = self.k;
        match port {
            0 => ((node + 1) % k) as NodeId,
            1 => ((node + k - 1) % k) as NodeId,
            _ => panic!("ring port {port} out of range 0..2"),
        }
    }

    fn reverse_port(&self, _node: NodeId, port: usize) -> usize {
        port ^ 1
    }

    fn distance(&self, a: NodeId, b: NodeId) -> usize {
        let k = self.k;
        axis_distance((b as usize + k - a as usize) % k, k)
    }

    fn for_each_min_route_port(&self, current: NodeId, dest: NodeId, visit: &mut dyn FnMut(usize)) {
        let k = self.k;
        axis_ports((dest as usize + k - current as usize) % k, k, 0, 1, visit);
    }

    fn color(&self, node: NodeId) -> Color {
        if node % 2 == 0 {
            Color::Zero
        } else {
            Color::One
        }
    }

    fn mean_distance(&self) -> f64 {
        let k = self.k as f64;
        (k * k / 4.0) / (k - 1.0)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    #[allow(clippy::cast_possible_truncation)]
    fn symmetry_classes(&self) -> Vec<(NodeId, u64)> {
        (1..=self.k / 2).map(|c| (c as NodeId, axis_multiplicity(c, self.k))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    fn bfs_distances(t: &dyn Topology, src: NodeId) -> Vec<usize> {
        let mut dist = vec![usize::MAX; t.node_count()];
        dist[src as usize] = 0;
        let mut q = VecDeque::from([src]);
        while let Some(u) = q.pop_front() {
            for port in 0..t.degree() {
                let v = t.neighbor(u, port);
                if dist[v as usize] == usize::MAX {
                    dist[v as usize] = dist[u as usize] + 1;
                    q.push_back(v);
                }
            }
        }
        dist
    }

    fn contract_suite(t: &dyn Topology) {
        let count = t.node_count();
        // neighbours: distinct, no self-loops, symmetric adjacency
        for node in 0..count as NodeId {
            let mut seen = std::collections::HashSet::new();
            for port in 0..t.degree() {
                let nb = t.neighbor(node, port);
                assert_ne!(nb, node, "{}: no self loops", t.name());
                assert!(seen.insert(nb), "{}: neighbours must be distinct", t.name());
                assert!(t.are_adjacent(nb, node), "{}: adjacency must be symmetric", t.name());
                assert_eq!(
                    t.neighbor(nb, t.reverse_port(node, port)),
                    node,
                    "{}: reverse_port must invert the link",
                    t.name()
                );
            }
        }
        // distance agrees with BFS from a few sources (vertex-transitive, but
        // check more than node 0 to catch coordinate bugs)
        for src in [0, (count / 3) as NodeId, (count - 1) as NodeId] {
            let dist = bfs_distances(t, src);
            for dst in 0..count as NodeId {
                assert_eq!(
                    t.distance(src, dst),
                    dist[dst as usize],
                    "{}: distance({src}, {dst})",
                    t.name()
                );
            }
        }
        // min_route_ports: exactly the distance-decreasing ports
        let dest = (count / 2) as NodeId;
        for node in 0..count as NodeId {
            let d = t.distance(node, dest);
            let ports = t.min_route_ports(node, dest);
            if node == dest {
                assert!(ports.is_empty());
                continue;
            }
            assert!(!ports.is_empty());
            for p in 0..t.degree() {
                let nd = t.distance(t.neighbor(node, p), dest);
                if ports.contains(&p) {
                    assert_eq!(nd, d - 1, "{}: port {p} must be profitable", t.name());
                } else {
                    assert!(nd >= d, "{}: port {p} wrongly omitted", t.name());
                }
            }
        }
        // diameter achieved, mean distance exact
        let dist0 = bfs_distances(t, 0);
        assert_eq!(*dist0.iter().max().unwrap(), t.diameter(), "{}: diameter", t.name());
        let direct = dist0.iter().sum::<usize>() as f64 / (count - 1) as f64;
        assert!((t.mean_distance() - direct).abs() < 1e-12, "{}: mean distance", t.name());
        // proper balanced 2-colouring
        let zeros = (0..count as NodeId).filter(|&v| t.color(v) == Color::Zero).count();
        assert_eq!(zeros, count / 2, "{}: colour classes balanced", t.name());
        for node in 0..count as NodeId {
            for port in 0..t.degree() {
                assert_ne!(t.color(node), t.color(t.neighbor(node, port)), "{}", t.name());
            }
        }
        // symmetry classes: multiplicities cover all destinations, and every
        // representative sits at the class distance from node 0
        let classes = t.symmetry_classes();
        let total: u64 = classes.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, (count - 1) as u64, "{}: class multiplicities", t.name());
        let mut per_distance = vec![0u64; t.diameter() + 1];
        for &(rep, c) in &classes {
            per_distance[t.distance(0, rep)] += c;
        }
        for (d, &want) in per_distance.iter().enumerate() {
            let have = dist0.iter().filter(|&&x| x == d).count() as u64;
            let have = if d == 0 { have - 1 } else { have }; // exclude the source
            assert_eq!(want, have, "{}: distance census at d={d}", t.name());
        }
    }

    #[test]
    fn torus_basic_parameters() {
        let t = Torus::new(6);
        assert_eq!(t.name(), "T6");
        assert_eq!(t.node_count(), 36);
        assert_eq!(t.degree(), 4);
        assert_eq!(t.diameter(), 6);
        assert_eq!(t.channel_count(), 144);
        assert_eq!(t.side(), 6);
    }

    #[test]
    fn ring_basic_parameters() {
        let r = Ring::new(8);
        assert_eq!(r.name(), "R8");
        assert_eq!(r.node_count(), 8);
        assert_eq!(r.degree(), 2);
        assert_eq!(r.diameter(), 4);
        assert_eq!(r.size(), 8);
    }

    #[test]
    fn torus_satisfies_topology_contract() {
        contract_suite(&Torus::new(4));
        contract_suite(&Torus::new(6));
        contract_suite(&Torus::new(8));
    }

    #[test]
    fn ring_satisfies_topology_contract() {
        contract_suite(&Ring::new(4));
        contract_suite(&Ring::new(6));
        contract_suite(&Ring::new(10));
    }

    #[test]
    fn torus_antipodal_displacement_is_fully_adaptive() {
        // from (0,0) to (k/2, k/2) every one of the 4 ports is profitable
        let t = Torus::new(6);
        let dest = t.node_at(3, 3);
        assert_eq!(t.min_route_ports(0, dest), vec![0, 1, 2, 3]);
        // a plain forward displacement keeps a single profitable axis port
        assert_eq!(t.min_route_ports(0, t.node_at(1, 0)), vec![0]);
    }

    #[test]
    fn ring_antipode_allows_both_directions() {
        let r = Ring::new(8);
        assert_eq!(r.min_route_ports(0, 4), vec![0, 1]);
        assert_eq!(r.min_route_ports(0, 3), vec![0]);
        assert_eq!(r.min_route_ports(0, 5), vec![1]);
    }

    #[test]
    #[should_panic(expected = "must be even")]
    fn odd_torus_rejected() {
        let _ = Torus::new(5);
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn tiny_ring_rejected() {
        let _ = Ring::new(2);
    }
}
