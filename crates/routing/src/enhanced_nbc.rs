//! Enhanced-Nbc: the fully adaptive routing algorithm the paper's analytical
//! model targets.
//!
//! The `V` virtual channels of every physical channel are split into
//!
//! * `V2` **class-b** (escape) channels — the *minimum* number of
//!   negative-hop levels the topology requires (`⌊H/2⌋ + 1`, i.e. 4 for `S5`)
//!   — governed by the Nbc bonus-card rule, and
//! * `V1 = V − V2` **class-a** channels that are fully adaptive: a header may
//!   use any class-a channel of any profitable output port at any time.
//!
//! A header is blocked only when every class-a channel *and* every admissible
//! class-b level of every profitable port is busy, which is exactly the
//! blocking event the analytical model of `star-core` evaluates.

use star_graph::{NodeId, Topology};

use crate::bonus_card::BonusCardPolicy;
use crate::classes::VirtualChannelLayout;
use crate::traits::{CandidateVc, MessageRoutingState, RoutingAlgorithm};

/// The Enhanced-Nbc routing algorithm.
#[derive(Debug, Clone)]
pub struct EnhancedNbc {
    layout: VirtualChannelLayout,
    policy: BonusCardPolicy,
}

impl EnhancedNbc {
    /// Builds the algorithm from an explicit layout.
    ///
    /// # Panics
    /// Panics if the layout has no adaptive channel or no escape level.
    #[must_use]
    pub fn with_layout(layout: VirtualChannelLayout) -> Self {
        assert!(layout.adaptive >= 1, "Enhanced-Nbc needs at least one class-a channel");
        assert!(layout.escape_levels >= 1, "Enhanced-Nbc needs at least one escape level");
        Self { layout, policy: BonusCardPolicy::new(layout.escape_levels) }
    }

    /// Builds the algorithm for `topology` with `total_vcs` virtual channels
    /// per physical channel: the escape set is kept at the minimum the
    /// topology requires and the rest become class-a channels.
    ///
    /// # Panics
    /// Panics if `total_vcs` does not exceed the required escape levels.
    #[must_use]
    pub fn for_topology(topology: &dyn Topology, total_vcs: usize) -> Self {
        let required = BonusCardPolicy::required_levels(topology);
        Self::with_layout(VirtualChannelLayout::enhanced(total_vcs, required))
    }

    /// Number of class-a (fully adaptive) channels.
    #[must_use]
    pub fn adaptive_channels(&self) -> usize {
        self.layout.adaptive
    }

    /// Number of class-b (escape) levels.
    #[must_use]
    pub fn escape_levels(&self) -> usize {
        self.layout.escape_levels
    }

    /// The bonus-card policy governing the class-b channels.
    #[must_use]
    pub fn policy(&self) -> BonusCardPolicy {
        self.policy
    }
}

impl RoutingAlgorithm for EnhancedNbc {
    fn name(&self) -> String {
        format!(
            "Enhanced-Nbc(V={},V1={},V2={})",
            self.layout.total(),
            self.layout.adaptive,
            self.layout.escape_levels
        )
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
            // class-a: every adaptive channel of every profitable port
            out.extend(self.layout.adaptive_vcs().map(|vc| CandidateVc { port, vc }));
            // class-b: the bonus-card window
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
    use star_graph::{Hypercube, StarGraph};

    #[test]
    fn paper_configurations_have_expected_split() {
        let s5 = StarGraph::new(5);
        for &(v, v1) in &[(6usize, 2usize), (9, 5), (12, 8)] {
            let algo = EnhancedNbc::for_topology(&s5, v);
            assert_eq!(algo.virtual_channels(), v);
            assert_eq!(algo.adaptive_channels(), v1);
            assert_eq!(algo.escape_levels(), 4);
            assert!(algo.name().contains("Enhanced-Nbc"));
        }
    }

    #[test]
    fn candidates_contain_all_adaptive_channels_of_every_profitable_port() {
        let s5 = StarGraph::new(5);
        let algo = EnhancedNbc::for_topology(&s5, 6);
        let state = MessageRoutingState::at_source();
        for dest in (1..s5.node_count() as u32).step_by(5) {
            let ports = s5.min_route_ports(0, dest);
            let cands = candidates(&algo, &s5, 0, dest, &state);
            for &port in &ports {
                for vc in 0..algo.adaptive_channels() {
                    assert!(cands.contains(&CandidateVc { port, vc }));
                }
            }
            // at least one escape candidate per profitable port
            for &port in &ports {
                assert!(
                    cands.iter().any(|c| c.port == port && c.vc >= algo.adaptive_channels()),
                    "every profitable port must keep an escape path"
                );
            }
        }
    }

    #[test]
    fn escape_candidates_respect_the_level_floor() {
        let s5 = StarGraph::new(5);
        let algo = EnhancedNbc::for_topology(&s5, 9);
        let state = MessageRoutingState { hops_taken: 3, negative_hops_taken: 2, escape_level: 2 };
        for src in [10u32, 60, 100] {
            for dest in [0u32, 50, 110] {
                if src == dest {
                    continue;
                }
                for c in candidates(&algo, &s5, src, dest, &state) {
                    if c.vc >= algo.adaptive_channels() {
                        let level = c.vc - algo.adaptive_channels();
                        assert!(level >= 2, "escape level below the floor offered");
                        assert!(level < algo.escape_levels());
                    }
                }
            }
        }
    }

    #[test]
    fn never_returns_empty_along_any_minimal_walk() {
        let s5 = StarGraph::new(5);
        let algo = EnhancedNbc::for_topology(&s5, 5); // minimum legal configuration
        for dest in (1..s5.node_count() as u32).step_by(7) {
            let mut cur = 0u32;
            let mut state = MessageRoutingState::at_source();
            while cur != dest {
                let cands = candidates(&algo, &s5, cur, dest, &state);
                assert!(!cands.is_empty());
                // take the worst case: always climb to the highest escape level offered
                let pick = *cands.iter().max_by_key(|c| c.vc).unwrap();
                let next = s5.neighbor(cur, pick.port);
                let level = if pick.vc >= algo.adaptive_channels() {
                    Some(pick.vc - algo.adaptive_channels())
                } else {
                    None
                };
                state = state.after_hop(&s5, cur, next, level);
                cur = next;
            }
        }
    }

    #[test]
    fn works_on_the_hypercube_too() {
        // The scheme is defined for any bipartite topology; the hypercube is
        // used by the star-vs-hypercube comparison harness.
        let q7 = Hypercube::new(7);
        let algo = EnhancedNbc::for_topology(&q7, 6);
        assert_eq!(algo.escape_levels(), 4); // diameter 7 → ⌊7/2⌋ + 1
        let state = MessageRoutingState::at_source();
        let cands = candidates(&algo, &q7, 0, 0b1111111, &state);
        assert!(!cands.is_empty());
        assert!(cands.iter().all(|c| c.vc < algo.virtual_channels()));
    }

    #[test]
    #[should_panic(expected = "needs more than")]
    fn rejects_insufficient_virtual_channels() {
        let s5 = StarGraph::new(5);
        let _ = EnhancedNbc::for_topology(&s5, 4);
    }
}
