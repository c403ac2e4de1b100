//! The traversal spectrum: the model's destination census.
//!
//! Under uniform traffic the model fixes the source at node 0 and averages
//! the network latency over every destination (Eq. 5).  Destinations that
//! look alike from the source — same distance, same number of minimal
//! paths, same per-hop adaptivity `f(i, j, k)` — form one class, so the
//! model walks a few dozen classes instead of `N − 1` destinations.
//! [`TraversalSpectrum`] is that list of classes, and it has three
//! constructors:
//!
//! * [`TraversalSpectrum::new`] asks any [`Topology`] three questions —
//!   `symmetry_classes()`, `min_route_ports()` and `neighbor()` — and
//!   rebuilds each class's profile by breadth-first search over the
//!   minimal-path DAG of its representative, with the same prefix/suffix
//!   path-counting DP `star_graph::path` uses;
//! * [`TraversalSpectrum::star`] is the closed form for `S_n`: permutation
//!   cycle types and their minimal-path DAGs, sorted by (distance, cycle
//!   type);
//! * [`TraversalSpectrum::hypercube`] is the closed form for `Q_d`: binomial
//!   Hamming populations, where hop `k` of an `h`-hop journey always offers
//!   `h − k` profitable dimensions.
//!
//! Every builder accumulates exact `u128` path counts per adaptivity value
//! and divides once at the end, so the BFS census reproduces both closed
//! forms bit for bit (see the tests below).  The closed forms are kept
//! because they are orders of magnitude cheaper to build at large sizes and
//! because their class order is the one the pinned model curves were
//! computed in.  The contract a topology must satisfy for the BFS census to
//! be meaningful is documented on [`Topology`] ("The spectrum contract").

use std::collections::{BTreeMap, HashMap};

use star_graph::topology::NodeId;
use star_graph::{AdaptivityProfile, CycleType, Hypercube, MinimalPathDag, Topology};

use crate::occupancy::binomial;

/// One destination equivalence class of a topology: all `count` destinations
/// that look like `representative` from node 0, with the per-hop adaptivity
/// profiles both routing families see on the way there.
#[derive(Debug, Clone)]
pub struct TraversalClass {
    /// Class representative (a destination node id).
    pub representative: NodeId,
    /// Number of destinations in this class.
    pub count: u64,
    /// Distance from the source.
    pub distance: usize,
    /// Per-hop adaptivity under fully adaptive minimal routing, uniformly
    /// weighted over all minimal paths to the representative.
    pub adaptive_profile: AdaptivityProfile,
    /// Per-hop adaptivity under deterministic (dimension-order style) minimal
    /// routing: always exactly one admissible output port.
    pub deterministic_profile: AdaptivityProfile,
}

/// The traversal spectrum of a vertex-transitive topology: destination
/// populations and per-hop adaptivity profiles, which the
/// blocking/waiting/occupancy chain of [`crate::SpectrumModel`] consumes.
#[derive(Debug, Clone)]
pub struct TraversalSpectrum {
    topology_name: String,
    node_count: usize,
    degree: usize,
    diameter: usize,
    classes: Vec<TraversalClass>,
    /// Built by [`Self::star`]; [`crate::saturation_rate`] brackets the star
    /// with `1/M`.
    star: bool,
}

/// Builds the adaptivity profile for routing node 0 → `dest` by BFS over the
/// minimal-path DAG: levels are discovered through [`Topology::min_route_ports`]
/// (profitable successors only), path counts by the prefix/suffix DP, and the
/// per-hop histograms by exact `u128` accumulation — the node-id mirror of
/// [`star_graph::path::MinimalPathDag`].
fn profile_to(topology: &dyn Topology, dest: NodeId) -> AdaptivityProfile {
    let source: NodeId = 0;
    let distance = topology.distance(source, dest);
    let mut levels: Vec<Vec<NodeId>> = vec![Vec::new(); distance + 1];
    levels[0].push(source);
    let mut discovered: HashMap<NodeId, usize> = HashMap::new();
    discovered.insert(source, 0);
    for level in 0..distance {
        let current = levels[level].clone();
        for node in current {
            for port in topology.min_route_ports(node, dest) {
                let next = topology.neighbor(node, port);
                if let std::collections::hash_map::Entry::Vacant(e) = discovered.entry(next) {
                    e.insert(level + 1);
                    levels[level + 1].push(next);
                }
            }
        }
    }
    debug_assert_eq!(levels[distance], vec![dest]);

    // suffix counts: minimal paths from node to dest, bottom-up
    let mut suffix_counts: HashMap<NodeId, u128> = HashMap::new();
    suffix_counts.insert(dest, 1);
    for level in (0..distance).rev() {
        for &node in &levels[level] {
            let total: u128 = topology
                .min_route_ports(node, dest)
                .into_iter()
                .map(|port| suffix_counts[&topology.neighbor(node, port)])
                .sum();
            suffix_counts.insert(node, total);
        }
    }

    // prefix counts: minimal paths from the source to node, top-down
    let mut prefix_counts: HashMap<NodeId, u128> = HashMap::new();
    prefix_counts.insert(source, 1);
    for level_nodes in levels.iter().take(distance) {
        for &node in level_nodes {
            let from = prefix_counts[&node];
            for port in topology.min_route_ports(node, dest) {
                *prefix_counts.entry(topology.neighbor(node, port)).or_insert(0) += from;
            }
        }
    }

    let path_count = suffix_counts[&source];
    let mut hop_adaptivity = Vec::with_capacity(distance);
    for level_nodes in levels.iter().take(distance) {
        // exact u128 sums per adaptivity value, divided once — the same
        // order-independent arithmetic as `MinimalPathDag::adaptivity_profile`,
        // so identical integers produce identical floats
        let mut sums: BTreeMap<usize, u128> = BTreeMap::new();
        for &node in level_nodes {
            *sums.entry(topology.min_route_ports(node, dest).len()).or_insert(0) +=
                prefix_counts[&node] * suffix_counts[&node];
        }
        hop_adaptivity
            .push(sums.into_iter().map(|(f, s)| (f, s as f64 / path_count as f64)).collect());
    }
    AdaptivityProfile { distance, path_count, hop_adaptivity }
}

/// The deterministic (dimension-order style) profile of a class at the given
/// distance: exactly one admissible output port on every hop.
fn deterministic_profile(distance: usize) -> AdaptivityProfile {
    AdaptivityProfile { distance, path_count: 1, hop_adaptivity: vec![vec![(1, 1.0)]; distance] }
}

impl TraversalClass {
    fn new(representative: NodeId, count: u64, adaptive_profile: AdaptivityProfile) -> Self {
        let distance = adaptive_profile.distance;
        Self {
            representative,
            count,
            distance,
            adaptive_profile,
            deterministic_profile: deterministic_profile(distance),
        }
    }
}

impl TraversalSpectrum {
    /// Builds the spectrum of a topology from its symmetry classes, by BFS
    /// over each representative's minimal-path DAG.  Classes are sorted by
    /// `(distance, representative)`.
    ///
    /// # Panics
    /// Panics if the topology's [`Topology::symmetry_classes`] do not cover
    /// exactly the `node_count() − 1` destinations.
    #[must_use]
    pub fn new(topology: &dyn Topology) -> Self {
        let reps = topology.symmetry_classes();
        let covered: u64 = reps.iter().map(|&(_, count)| count).sum();
        assert_eq!(
            covered,
            (topology.node_count() - 1) as u64,
            "symmetry classes of {} must cover every destination",
            topology.name()
        );
        let mut classes: Vec<TraversalClass> = reps
            .iter()
            .map(|&(representative, count)| {
                TraversalClass::new(representative, count, profile_to(topology, representative))
            })
            .collect();
        classes.sort_by_key(|c| (c.distance, c.representative));
        Self {
            topology_name: topology.name(),
            node_count: topology.node_count(),
            degree: topology.degree(),
            diameter: topology.diameter(),
            classes,
            star: false,
        }
    }

    /// The closed-form spectrum of the star graph `S_n`: one class per
    /// permutation cycle type, with the profile of the type's minimal-path
    /// DAG, sorted by (distance, cycle type).  The representatives are the
    /// node ids [`star_graph::StarGraph`]'s symmetry classes use.
    ///
    /// # Panics
    /// Panics if `symbols` is outside the permutation machinery's range.
    #[must_use]
    pub fn star(symbols: usize) -> Self {
        let mut types: Vec<(CycleType, u64)> = star_graph::distance::enumerate_types(symbols)
            .into_iter()
            .filter(|(cycle_type, _)| !cycle_type.cycle_lengths.is_empty()) // skip the source
            .collect();
        types.sort_by_key(|(t, _)| (t.distance(), t.cycle_lengths.clone()));
        let classes = types
            .iter()
            .map(|(cycle_type, count)| {
                let relative = cycle_type.representative(symbols);
                let profile = MinimalPathDag::build(&relative).adaptivity_profile();
                debug_assert_eq!(profile.distance, cycle_type.distance());
                let node = star_graph::rank::rank(&relative.inverse());
                TraversalClass::new(node as NodeId, *count, profile)
            })
            .collect();
        Self {
            topology_name: format!("S{symbols}"),
            node_count: star_graph::factorial(symbols) as usize,
            degree: symbols - 1,
            diameter: 3 * (symbols - 1) / 2,
            classes,
            star: true,
        }
    }

    /// The closed-form spectrum of the binary hypercube `Q_d`: one class per
    /// Hamming distance `h`, holding `C(d, h)` destinations, sorted by
    /// distance.  Every minimal path is an ordering of the `h` differing
    /// dimensions, so hop `k` (0-based) always offers `h − k` choices.
    ///
    /// # Panics
    /// Panics if `dims` is outside `1..=`[`Hypercube::MAX_DIMS`].
    #[must_use]
    pub fn hypercube(dims: usize) -> Self {
        assert!(
            (1..=Hypercube::MAX_DIMS).contains(&dims),
            "hypercube dimension {dims} out of range 1..={}",
            Hypercube::MAX_DIMS
        );
        let classes = (1..=dims)
            .map(|h| {
                let profile = AdaptivityProfile {
                    distance: h,
                    path_count: (1..=h as u128).product(),
                    hop_adaptivity: (0..h).map(|k| vec![(h - k, 1.0)]).collect(),
                };
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let count = binomial(dims, h) as u64;
                TraversalClass::new(((1u64 << h) - 1) as NodeId, count, profile)
            })
            .collect();
        Self {
            topology_name: format!("Q{dims}"),
            node_count: 1 << dims,
            degree: dims,
            diameter: dims,
            classes,
            star: false,
        }
    }

    /// Whether [`Self::star`] built this spectrum.
    pub(crate) fn is_closed_form_star(&self) -> bool {
        self.star
    }

    /// Name of the topology the spectrum was built from (e.g. `"T8"`).
    #[must_use]
    pub fn topology_name(&self) -> &str {
        &self.topology_name
    }

    /// Number of nodes of the underlying topology.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Router degree of the underlying topology.
    #[must_use]
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Diameter of the underlying topology.
    #[must_use]
    pub fn diameter(&self) -> usize {
        self.diameter
    }

    /// The destination classes, in the constructor's order (always
    /// ascending distance).
    #[must_use]
    pub fn classes(&self) -> &[TraversalClass] {
        &self.classes
    }

    /// Total number of destinations (`node_count − 1`).
    #[must_use]
    pub fn destination_count(&self) -> u64 {
        self.classes.iter().map(|c| c.count).sum()
    }

    /// Mean distance over all destinations (the generic Eq. 2).
    #[must_use]
    pub fn mean_distance(&self) -> f64 {
        let weighted: f64 = self.classes.iter().map(|c| c.distance as f64 * c.count as f64).sum();
        weighted / self.destination_count() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_graph::{factorial, Hypercube, Ring, StarGraph, Torus};

    /// A class as comparable data: (distance, representative, count, path
    /// count, per-hop adaptivity).
    type ClassKey = (usize, NodeId, u64, u128, Vec<Vec<(usize, f64)>>);

    fn keys(spectrum: &TraversalSpectrum) -> Vec<ClassKey> {
        spectrum
            .classes()
            .iter()
            .map(|c| {
                (
                    c.distance,
                    c.representative,
                    c.count,
                    c.adaptive_profile.path_count,
                    c.adaptive_profile.hop_adaptivity.clone(),
                )
            })
            .collect()
    }

    #[test]
    fn star_census_matches_closed_form_exactly() {
        // the generic BFS census must reproduce the cycle-type spectrum of
        // S3–S6 bit for bit: same representatives, populations, path counts
        // and per-hop adaptivity histograms (exact f64 equality)
        for n in 3..=6 {
            let star = StarGraph::new(n);
            let generic = TraversalSpectrum::new(&star);
            let closed = TraversalSpectrum::star(n);
            assert_eq!(generic.destination_count(), factorial(n) - 1);
            assert_eq!(closed.destination_count(), factorial(n) - 1);
            assert_eq!(
                (closed.topology_name(), closed.node_count(), closed.degree(), closed.diameter()),
                (
                    generic.topology_name(),
                    generic.node_count(),
                    generic.degree(),
                    generic.diameter()
                )
            );
            // cycle-type order and (distance, representative) order may
            // interleave within a distance; compare sorted
            let mut closed_keys = keys(&closed);
            closed_keys.sort_by(|x, y| x.partial_cmp(y).unwrap());
            assert_eq!(keys(&generic), closed_keys, "S{n}: census must equal the closed form");
            assert!((generic.mean_distance() - closed.mean_distance()).abs() < 1e-15);
        }
    }

    #[test]
    fn star_closed_form_is_sorted_by_distance_then_cycle_type() {
        let spectrum = TraversalSpectrum::star(6);
        let types = star_graph::distance::enumerate_types(6);
        let order: Vec<(usize, Vec<usize>)> = spectrum
            .classes()
            .iter()
            .map(|c| {
                let relative = StarGraph::new(6).permutation(c.representative).inverse();
                let t = CycleType::of(&relative);
                assert!(types.iter().any(|(u, _)| *u == t));
                (c.distance, t.cycle_lengths)
            })
            .collect();
        assert!(order.windows(2).all(|w| w[0] <= w[1]), "{order:?}");
    }

    #[test]
    fn star_closed_form_shape() {
        for n in 3..=6 {
            let spectrum = TraversalSpectrum::star(n);
            assert!((spectrum.mean_distance() - StarGraph::new(n).mean_distance()).abs() < 1e-12);
        }
        let spectrum = TraversalSpectrum::star(5);
        for class in spectrum.classes() {
            assert_eq!(class.adaptive_profile.distance, class.distance);
            assert_eq!(class.adaptive_profile.hop_adaptivity.len(), class.distance);
            assert!(class.count > 0);
            // first hop adaptivity can never exceed the degree
            assert!(class.adaptive_profile.mean_adaptivity(0) <= 4.0);
            // last hop of any minimal path is forced
            let last = &class.adaptive_profile.hop_adaptivity[class.distance - 1];
            assert_eq!(last, &vec![(1, 1.0)]);
        }
        // S5 distance distribution: [1, 4, 12, 30, 44, 26, 3]
        let at = |d: usize| -> u64 {
            spectrum.classes().iter().filter(|c| c.distance == d).map(|c| c.count).sum()
        };
        assert_eq!(spectrum.classes().last().unwrap().distance, 6);
        assert_eq!((at(1), at(6)), (4, 3));
    }

    #[test]
    fn hypercube_census_matches_closed_form_exactly() {
        for d in 3..=8 {
            let cube = Hypercube::new(d);
            let generic = TraversalSpectrum::new(&cube);
            let closed = TraversalSpectrum::hypercube(d);
            assert_eq!(
                (closed.topology_name(), closed.node_count(), closed.degree(), closed.diameter()),
                (
                    generic.topology_name(),
                    generic.node_count(),
                    generic.degree(),
                    generic.diameter()
                )
            );
            assert_eq!(keys(&generic), keys(&closed), "Q{d}: census must equal the closed form");
            for (g, c) in generic.classes().iter().zip(closed.classes()) {
                assert_eq!(g.deterministic_profile, c.deterministic_profile);
            }
            assert!((generic.mean_distance() - closed.mean_distance()).abs() < 1e-15);
        }
    }

    #[test]
    fn hypercube_closed_form_shape() {
        for d in 2..=12 {
            let spectrum = TraversalSpectrum::hypercube(d);
            assert_eq!(spectrum.destination_count(), (1u64 << d) - 1);
            assert_eq!(spectrum.classes().len(), d);
            assert!((spectrum.mean_distance() - Hypercube::new(d).mean_distance()).abs() < 1e-12);
        }
        for class in TraversalSpectrum::hypercube(8).classes() {
            // the first hop offers every differing dimension, the last one
            assert_eq!(class.adaptive_profile.hop_adaptivity[0], vec![(class.distance, 1.0)]);
            assert_eq!(class.adaptive_profile.hop_adaptivity[class.distance - 1], vec![(1, 1.0)]);
            assert_eq!(class.deterministic_profile.distance, class.distance);
        }
    }

    #[test]
    fn symmetry_classes_match_the_default_all_destinations_census() {
        // the folded-displacement classes of the torus and ring must describe
        // the same spectrum as treating every destination as its own class
        struct NoSymmetry<T: Topology>(T);
        impl<T: Topology + 'static> Topology for NoSymmetry<T> {
            fn name(&self) -> String {
                self.0.name()
            }
            fn node_count(&self) -> usize {
                self.0.node_count()
            }
            fn degree(&self) -> usize {
                self.0.degree()
            }
            fn diameter(&self) -> usize {
                self.0.diameter()
            }
            fn neighbor(&self, node: NodeId, port: usize) -> NodeId {
                self.0.neighbor(node, port)
            }
            fn distance(&self, a: NodeId, b: NodeId) -> usize {
                self.0.distance(a, b)
            }
            fn min_route_ports(&self, current: NodeId, dest: NodeId) -> Vec<usize> {
                self.0.min_route_ports(current, dest)
            }
            fn color(&self, node: NodeId) -> star_graph::Color {
                self.0.color(node)
            }
            fn mean_distance(&self) -> f64 {
                self.0.mean_distance()
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            // inherit the trait's every-destination default
        }
        let grouped = TraversalSpectrum::new(&Torus::new(6));
        let flat = TraversalSpectrum::new(&NoSymmetry(Torus::new(6)));
        assert_eq!(grouped.destination_count(), flat.destination_count());
        assert!((grouped.mean_distance() - flat.mean_distance()).abs() < 1e-15);
        // aggregate the flat census into (distance, profile) → count and
        // compare against the grouped classes
        let mut flat_bags: HashMap<(usize, String), u64> = HashMap::new();
        for c in flat.classes() {
            *flat_bags.entry((c.distance, format!("{:?}", c.adaptive_profile))).or_insert(0) +=
                c.count;
        }
        let mut grouped_bags: HashMap<(usize, String), u64> = HashMap::new();
        for c in grouped.classes() {
            *grouped_bags.entry((c.distance, format!("{:?}", c.adaptive_profile))).or_insert(0) +=
                c.count;
        }
        assert_eq!(grouped_bags, flat_bags, "T6: folded-displacement classes must be exact");

        let grouped = TraversalSpectrum::new(&Ring::new(10));
        let flat = TraversalSpectrum::new(&NoSymmetry(Ring::new(10)));
        assert_eq!(grouped.destination_count(), flat.destination_count());
        assert!((grouped.mean_distance() - flat.mean_distance()).abs() < 1e-15);
    }

    #[test]
    fn torus_spectrum_shape() {
        let t = TraversalSpectrum::new(&Torus::new(6));
        assert_eq!(t.topology_name(), "T6");
        assert_eq!(t.node_count(), 36);
        assert_eq!(t.degree(), 4);
        assert_eq!(t.diameter(), 6);
        assert_eq!(t.destination_count(), 35);
        assert!((t.mean_distance() - Torus::new(6).mean_distance()).abs() < 1e-12);
        for class in t.classes() {
            assert_eq!(class.adaptive_profile.distance, class.distance);
            assert_eq!(class.adaptive_profile.hop_adaptivity.len(), class.distance);
            // last hop of any minimal path is forced
            let last = &class.adaptive_profile.hop_adaptivity[class.distance - 1];
            assert_eq!(last, &vec![(1, 1.0)]);
            for hop in &class.adaptive_profile.hop_adaptivity {
                let sum: f64 = hop.iter().map(|&(_, p)| p).sum();
                assert!((sum - 1.0).abs() < 1e-9);
            }
        }
        // the antipode class (k/2, k/2) sees all 4 ports on the first hop
        let antipode = t.classes().iter().find(|c| c.distance == 6).unwrap();
        assert_eq!(antipode.adaptive_profile.hop_adaptivity[0], vec![(4, 1.0)]);
    }

    #[test]
    fn ring_spectrum_has_one_or_two_destinations_per_distance() {
        let r = TraversalSpectrum::new(&Ring::new(8));
        assert_eq!(r.destination_count(), 7);
        for class in r.classes() {
            if class.distance == 4 {
                // the antipode: unique, reachable both ways round
                assert_eq!(class.count, 1);
                assert_eq!(class.adaptive_profile.path_count, 2);
            } else {
                assert_eq!(class.count, 2);
                assert_eq!(class.adaptive_profile.path_count, 1);
            }
        }
    }
}
