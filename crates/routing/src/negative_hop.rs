//! The plain negative-hop (`NHop`) fully adaptive routing algorithm.
//!
//! Every escape level owns exactly one virtual channel; a message that has
//! taken `i` negative hops so far **must** use the level-`i` channel on its
//! next hop (or level `i + 1` when that hop is itself negative).  Routing is
//! fully adaptive over the minimal (profitable) ports; only the virtual
//! channel choice is forced.  The paper notes this scheme uses the virtual
//! channels very unevenly — high levels are almost never reached — which is
//! what the bonus-card refinement fixes.

use star_graph::{NodeId, Topology};

use crate::classes::VirtualChannelLayout;
use crate::traits::{CandidateVc, MessageRoutingState, RoutingAlgorithm};

/// Plain negative-hop routing with one virtual channel per level.
#[derive(Debug, Clone)]
pub struct NHop {
    layout: VirtualChannelLayout,
}

impl NHop {
    /// Builds the algorithm with `levels` virtual channels (one per level).
    ///
    /// # Panics
    /// Panics if `levels` is zero.
    #[must_use]
    pub fn new(levels: usize) -> Self {
        Self { layout: VirtualChannelLayout::escape_only(levels) }
    }

    /// Builds the algorithm with the number of levels the topology requires,
    /// optionally padded with extra (never used) levels so that the total
    /// virtual-channel count matches a configuration being compared against.
    ///
    /// # Panics
    /// Panics if `total_vcs` is smaller than the required number of levels.
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

impl RoutingAlgorithm for NHop {
    fn name(&self) -> String {
        format!("NHop(V={})", self.layout.total())
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
        debug_assert_ne!(current, dest, "routing is only queried before the destination");
        out.clear();
        topology.for_each_min_route_port(current, dest, &mut |port| {
            let next = topology.neighbor(current, port);
            let negative =
                star_graph::HopSign::classify(topology.color(current), topology.color(next))
                    .is_negative();
            let level = state.negative_hops_taken + usize::from(negative);
            if level < self.layout.escape_levels {
                out.push(CandidateVc { port, vc: self.layout.escape_vc(level) });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::candidates;
    use star_graph::StarGraph;

    #[test]
    fn exactly_one_vc_per_profitable_port() {
        let s5 = StarGraph::new(5);
        let algo = NHop::for_topology(&s5, 6);
        assert_eq!(algo.virtual_channels(), 6);
        let state = MessageRoutingState::at_source();
        for dest in 1..40u32 {
            let ports = s5.min_route_ports(0, dest);
            let cands = candidates(&algo, &s5, 0, dest, &state);
            assert_eq!(cands.len(), ports.len());
            for c in &cands {
                assert!(ports.contains(&c.port));
            }
        }
    }

    #[test]
    fn vc_level_tracks_negative_hops() {
        let s5 = StarGraph::new(5);
        let algo = NHop::for_topology(&s5, 4);
        // Walk a full minimal path and check the assigned level always equals
        // the negative-hop count on arrival.
        let dest = 119u32;
        let mut cur = 0u32;
        let mut state = MessageRoutingState::at_source();
        while cur != dest {
            let cands = candidates(&algo, &s5, cur, dest, &state);
            assert!(!cands.is_empty(), "NHop must always offer a candidate");
            let pick = cands[0];
            let next = s5.neighbor(cur, pick.port);
            let negative = star_graph::HopSign::of_hop(s5.permutation(cur), s5.permutation(next))
                .is_negative();
            assert_eq!(pick.vc, state.negative_hops_taken + usize::from(negative));
            state = state.after_hop(&s5, cur, next, Some(pick.vc));
            cur = next;
        }
        assert!(state.negative_hops_taken <= 3);
    }

    #[test]
    fn high_levels_unused_from_identity_like_sources() {
        // The unbalanced-usage observation of the paper: messages can never
        // need more than ⌊H/2⌋ levels, so with V = 6 the top levels are idle.
        let s5 = StarGraph::new(5);
        let algo = NHop::for_topology(&s5, 6);
        let state = MessageRoutingState::at_source();
        for dest in 1..s5.node_count() as u32 {
            for c in candidates(&algo, &s5, 0, dest, &state) {
                assert!(c.vc <= 1, "first hop can use at most level 1");
            }
        }
    }

    #[test]
    #[should_panic(expected = "needs at least")]
    fn too_few_levels_rejected() {
        let s5 = StarGraph::new(5);
        let _ = NHop::for_topology(&s5, 3);
    }
}
