//! Deterministic baselines.
//!
//! * [`DeterministicMinimal`]: a single canonical minimal path per
//!   source/destination pair on any topology (always the lowest-numbered
//!   profitable port), with the plain negative-hop virtual-channel discipline
//!   for deadlock freedom.  It isolates the benefit of *adaptivity* when
//!   compared against Enhanced-Nbc in the simulator.
//! * [`DimensionOrder`]: classic e-cube routing for the hypercube comparison;
//!   dimension order is itself deadlock-free, so every virtual channel of the
//!   chosen port is admissible.

use star_graph::{NodeId, Topology};

use crate::classes::VirtualChannelLayout;
use crate::traits::{CandidateVc, MessageRoutingState, RoutingAlgorithm};

/// Deterministic minimal routing: always the lowest profitable port, with the
/// negative-hop virtual-channel discipline.
#[derive(Debug, Clone)]
pub struct DeterministicMinimal {
    layout: VirtualChannelLayout,
}

impl DeterministicMinimal {
    /// Builds the algorithm with `levels` escape levels (one virtual channel
    /// per level).
    ///
    /// # Panics
    /// Panics if `levels` is zero.
    #[must_use]
    pub fn new(levels: usize) -> Self {
        Self { layout: VirtualChannelLayout::escape_only(levels) }
    }

    /// Builds the algorithm with the level count the topology requires,
    /// padded to `total_vcs` channels.
    ///
    /// # Panics
    /// Panics if `total_vcs` is below the required level count.
    #[must_use]
    pub fn for_topology(topology: &dyn Topology, total_vcs: usize) -> Self {
        let required = crate::bonus_card::BonusCardPolicy::required_levels(topology);
        assert!(
            total_vcs >= required,
            "{} needs at least {required} virtual channels, got {total_vcs}",
            topology.name()
        );
        Self::new(total_vcs)
    }
}

impl RoutingAlgorithm for DeterministicMinimal {
    fn name(&self) -> String {
        format!("Deterministic(V={})", self.layout.total())
    }

    fn layout(&self) -> VirtualChannelLayout {
        self.layout
    }

    fn candidates_into(
        &self,
        topology: &dyn Topology,
        current: NodeId,
        dest: NodeId,
        state: &MessageRoutingState,
        out: &mut Vec<CandidateVc>,
    ) {
        debug_assert_ne!(current, dest);
        out.clear();
        let mut first = None;
        topology.for_each_min_route_port(current, dest, &mut |port| {
            first.get_or_insert(port);
        });
        let Some(port) = first else { return };
        let next = topology.neighbor(current, port);
        let negative = star_graph::HopSign::classify(topology.color(current), topology.color(next))
            .is_negative();
        let level = state.negative_hops_taken + usize::from(negative);
        if level < self.layout.escape_levels {
            out.push(CandidateVc { port, vc: self.layout.escape_vc(level) });
        }
    }
}

/// Dimension-order (e-cube) routing for the hypercube: corrects the lowest
/// differing dimension first; any virtual channel of that port may be used.
#[derive(Debug, Clone)]
pub struct DimensionOrder {
    vcs: usize,
}

impl DimensionOrder {
    /// Builds e-cube routing with `vcs` virtual channels per physical channel.
    ///
    /// # Panics
    /// Panics if `vcs` is zero.
    #[must_use]
    pub fn new(vcs: usize) -> Self {
        assert!(vcs > 0, "need at least one virtual channel");
        Self { vcs }
    }
}

impl RoutingAlgorithm for DimensionOrder {
    fn name(&self) -> String {
        format!("DimensionOrder(V={})", self.vcs)
    }

    fn layout(&self) -> VirtualChannelLayout {
        // All channels behave identically; model them as a single adaptive set.
        VirtualChannelLayout { adaptive: self.vcs, escape_levels: 0 }
    }

    fn virtual_channels(&self) -> usize {
        self.vcs
    }

    fn candidates_into(
        &self,
        topology: &dyn Topology,
        current: NodeId,
        dest: NodeId,
        _state: &MessageRoutingState,
        out: &mut Vec<CandidateVc>,
    ) {
        debug_assert_ne!(current, dest);
        out.clear();
        let mut lowest: Option<usize> = None;
        topology.for_each_min_route_port(current, dest, &mut |port| {
            lowest = Some(lowest.map_or(port, |p| p.min(port)));
        });
        let Some(port) = lowest else { return };
        out.extend((0..self.vcs).map(|vc| CandidateVc { port, vc }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::candidates;
    use star_graph::{Hypercube, StarGraph};

    #[test]
    fn deterministic_offers_exactly_one_candidate_on_star() {
        let s5 = StarGraph::new(5);
        let det = DeterministicMinimal::for_topology(&s5, 4);
        let state = MessageRoutingState::at_source();
        for dest in 1..s5.node_count() as u32 {
            let cands = candidates(&det, &s5, 0, dest, &state);
            assert_eq!(cands.len(), 1);
            let d = s5.distance(0, dest);
            assert_eq!(s5.distance(s5.neighbor(0, cands[0].port), dest), d - 1);
        }
    }

    #[test]
    fn deterministic_walk_reaches_destination_within_distance() {
        let s5 = StarGraph::new(5);
        let det = DeterministicMinimal::for_topology(&s5, 4);
        for dest in (1..s5.node_count() as u32).step_by(9) {
            let mut cur = 0u32;
            let mut state = MessageRoutingState::at_source();
            let mut hops = 0;
            while cur != dest {
                let c = candidates(&det, &s5, cur, dest, &state)[0];
                let next = s5.neighbor(cur, c.port);
                state = state.after_hop(&s5, cur, next, Some(c.vc));
                cur = next;
                hops += 1;
                assert!(hops <= s5.diameter());
            }
            assert_eq!(hops, s5.distance(0, dest));
        }
    }

    #[test]
    fn ecube_corrects_lowest_dimension_first() {
        let q = Hypercube::new(6);
        let ecube = DimensionOrder::new(2);
        let state = MessageRoutingState::at_source();
        let cands = candidates(&ecube, &q, 0b000000, 0b101010, &state);
        assert_eq!(cands.len(), 2);
        assert!(cands.iter().all(|c| c.port == 1), "lowest differing dimension is 1");
    }

    #[test]
    fn ecube_walk_is_deterministic_and_minimal() {
        let q = Hypercube::new(7);
        let ecube = DimensionOrder::new(3);
        let dest = 0b1011011u32;
        let mut cur = 0u32;
        let mut hops = 0;
        let state = MessageRoutingState::at_source();
        while cur != dest {
            let c = candidates(&ecube, &q, cur, dest, &state)[0];
            cur = q.neighbor(cur, c.port);
            hops += 1;
        }
        assert_eq!(hops, q.distance(0, dest));
    }
}
