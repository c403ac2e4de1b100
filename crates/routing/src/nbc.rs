//! The negative-hop scheme with bonus cards (`Nbc`).
//!
//! All `V` virtual channels are escape levels, but a header may climb above
//! its mandatory level by the number of bonus cards it still holds, which
//! spreads traffic over the otherwise idle high levels.

use star_graph::{NodeId, Topology};

use crate::bonus_card::BonusCardPolicy;
use crate::classes::VirtualChannelLayout;
use crate::traits::{CandidateVc, MessageRoutingState, RoutingAlgorithm};

/// Negative-hop routing with bonus cards over `V` escape levels.
#[derive(Debug, Clone)]
pub struct Nbc {
    layout: VirtualChannelLayout,
    policy: BonusCardPolicy,
}

impl Nbc {
    /// Builds the algorithm with `levels` escape levels.
    ///
    /// # Panics
    /// Panics if `levels` is zero.
    #[must_use]
    pub fn new(levels: usize) -> Self {
        Self {
            layout: VirtualChannelLayout::escape_only(levels),
            policy: BonusCardPolicy::new(levels),
        }
    }

    /// Builds the algorithm for a topology with `total_vcs` virtual channels,
    /// all of which become escape levels (more levels ⇒ more bonus cards).
    ///
    /// # Panics
    /// Panics if `total_vcs` is below the number of levels the topology
    /// requires.
    #[must_use]
    pub fn for_topology(topology: &dyn Topology, total_vcs: usize) -> Self {
        let required = BonusCardPolicy::required_levels(topology);
        assert!(
            total_vcs >= required,
            "{} needs at least {required} virtual channels, got {total_vcs}",
            topology.name()
        );
        Self::new(total_vcs)
    }
}

impl RoutingAlgorithm for Nbc {
    fn name(&self) -> String {
        format!("Nbc(V={})", self.layout.total())
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
        // every profitable port leads into the other colour class, one hop
        // closer to `dest` (the bipartite and minimality contracts of
        // `Topology`), so the bonus-card window is the same for all of them:
        // it is computed at the first port and reused
        let mut window = None;
        topology.for_each_min_route_port(current, dest, &mut |port| {
            let levels = *window.get_or_insert_with(|| {
                let next = topology.neighbor(current, port);
                self.policy.admissible_levels(topology, current, next, dest, state)
            });
            if let Some((low, high)) = levels {
                out.extend(
                    (low..=high)
                        .map(|level| CandidateVc { port, vc: self.layout.escape_vc(level) }),
                );
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
    fn offers_strictly_more_candidates_than_nhop_when_levels_are_plentiful() {
        use crate::negative_hop::NHop;
        let s5 = StarGraph::new(5);
        let nbc = Nbc::for_topology(&s5, 6);
        let nhop = NHop::for_topology(&s5, 6);
        let state = MessageRoutingState::at_source();
        let mut strictly_more = 0;
        for dest in 1..s5.node_count() as u32 {
            let a = candidates(&nbc, &s5, 0, dest, &state).len();
            let b = candidates(&nhop, &s5, 0, dest, &state).len();
            assert!(a >= b);
            if a > b {
                strictly_more += 1;
            }
        }
        assert!(strictly_more > 0, "bonus cards must widen the choice somewhere");
    }

    #[test]
    fn candidate_levels_never_jeopardise_future_hops() {
        // From any state reached by spending bonus cards greedily, the message
        // must still reach the destination without exceeding the top level.
        let s5 = StarGraph::new(5);
        let nbc = Nbc::for_topology(&s5, 4); // the tight configuration
        for dest in (1..s5.node_count() as u32).step_by(11) {
            for src in (0..s5.node_count() as u32).step_by(17) {
                if src == dest {
                    continue;
                }
                let mut cur = src;
                let mut state = MessageRoutingState::at_source();
                while cur != dest {
                    let cands = candidates(&nbc, &s5, cur, dest, &state);
                    assert!(!cands.is_empty(), "Nbc must always offer a candidate");
                    // pick the *highest* level offered (worst case for the future)
                    let pick = *cands.iter().max_by_key(|c| c.vc).unwrap();
                    let next = s5.neighbor(cur, pick.port);
                    state = state.after_hop(&s5, cur, next, Some(pick.vc));
                    cur = next;
                }
            }
        }
    }

    #[test]
    fn all_candidates_are_minimal_and_within_layout() {
        let s5 = StarGraph::new(5);
        let nbc = Nbc::for_topology(&s5, 9);
        let state = MessageRoutingState { hops_taken: 2, negative_hops_taken: 1, escape_level: 2 };
        for src in [5u32, 40, 77] {
            for dest in [0u32, 33, 119] {
                if src == dest {
                    continue;
                }
                let ports = s5.min_route_ports(src, dest);
                for c in candidates(&nbc, &s5, src, dest, &state) {
                    assert!(ports.contains(&c.port));
                    assert!(c.vc < nbc.virtual_channels());
                    assert!(c.vc >= state.escape_level, "never descend below the level floor");
                }
            }
        }
    }
}
