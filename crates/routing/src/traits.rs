//! The [`RoutingAlgorithm`] trait and the per-message routing state the
//! algorithms consume.

use serde::{Deserialize, Serialize};
use star_graph::{HopSign, NodeId, Topology};

use crate::classes::VirtualChannelLayout;

/// Per-message state a routing algorithm may consult.  The simulator updates
/// it whenever a header flit acquires a new channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MessageRoutingState {
    /// Hops taken so far (0 at the source).
    pub hops_taken: usize,
    /// Negative hops taken so far.
    pub negative_hops_taken: usize,
    /// Highest escape (class-b) level used so far; with bonus cards the level
    /// is non-decreasing along the path.
    pub escape_level: usize,
}

impl MessageRoutingState {
    /// State of a freshly injected message.
    #[must_use]
    pub fn at_source() -> Self {
        Self::default()
    }

    /// The state after taking the hop `current → next`, having used the given
    /// virtual channel class (`Some(level)` when an escape channel of that
    /// level was used, `None` for a class-a channel).
    #[must_use]
    pub fn after_hop(
        &self,
        topology: &dyn Topology,
        current: NodeId,
        next: NodeId,
        escape_level_used: Option<usize>,
    ) -> Self {
        let negative =
            HopSign::classify(topology.color(current), topology.color(next)).is_negative();
        let negative_hops_taken = self.negative_hops_taken + usize::from(negative);
        let escape_level = match escape_level_used {
            Some(level) => self.escape_level.max(level),
            None => self.escape_level,
        }
        .max(negative_hops_taken);
        Self { hops_taken: self.hops_taken + 1, negative_hops_taken, escape_level }
    }
}

/// One admissible `(output port, virtual channel)` pair returned by a routing
/// algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CandidateVc {
    /// Output port (`0..topology.degree()`).
    pub port: usize,
    /// Virtual-channel index on that port (`0..layout.total()`).
    pub vc: usize,
}

/// A wormhole routing algorithm: given the current node, the destination and
/// the per-message state, produce every admissible `(port, virtual channel)`
/// pair.  The simulator picks one free candidate (its selection policy) or
/// blocks the header until one frees up.
pub trait RoutingAlgorithm: Send + Sync {
    /// Human-readable name (e.g. `"Enhanced-Nbc"`).
    fn name(&self) -> String;

    /// The virtual-channel layout this algorithm assumes on every physical
    /// channel.
    fn layout(&self) -> VirtualChannelLayout;

    /// Total number of virtual channels per physical channel.
    fn virtual_channels(&self) -> usize {
        self.layout().total()
    }

    /// Clears `out` and fills it with the admissible `(port, vc)` pairs for
    /// a message currently at `current` (which must differ from `dest`) with
    /// routing state `state`.
    ///
    /// The order is part of the contract: ports come in
    /// [`Topology::for_each_min_route_port`] order and, within a port,
    /// virtual channels ascend.  The simulator's selection policies index
    /// into this list, so its order fixes the simulated results.  Callers
    /// keep one buffer across calls, which makes routing a header
    /// allocation-free once the buffer has grown.
    ///
    /// Implementations must only return ports on minimal paths and must never
    /// return an empty set for `current != dest` (the schemes in this crate
    /// always keep at least the mandatory escape level admissible).
    fn candidates_into(
        &self,
        topology: &dyn Topology,
        current: NodeId,
        dest: NodeId,
        state: &MessageRoutingState,
        out: &mut Vec<CandidateVc>,
    );
}

/// The candidate list of one routing query as a fresh `Vec`, for tests that
/// inspect single queries.
#[cfg(test)]
pub(crate) fn candidates(
    algo: &dyn RoutingAlgorithm,
    topology: &dyn Topology,
    current: NodeId,
    dest: NodeId,
    state: &MessageRoutingState,
) -> Vec<CandidateVc> {
    let mut out = Vec::new();
    algo.candidates_into(topology, current, dest, state, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_graph::StarGraph;

    #[test]
    fn state_after_hop_tracks_negative_hops_and_levels() {
        let s4 = StarGraph::new(4);
        let state = MessageRoutingState::at_source();
        // node 0 is the identity (colour Zero); its neighbours are colour One,
        // so the first hop is positive.
        let next = s4.neighbor(0, 0);
        let s1 = state.after_hop(&s4, 0, next, Some(0));
        assert_eq!(s1.hops_taken, 1);
        assert_eq!(s1.negative_hops_taken, 0);
        assert_eq!(s1.escape_level, 0);
        // the hop back is negative (One → Zero)
        let s2 = s1.after_hop(&s4, next, 0, Some(0));
        assert_eq!(s2.negative_hops_taken, 1);
        assert_eq!(s2.escape_level, 1, "escape level must cover the mandatory level");
    }

    #[test]
    fn bonus_spending_raises_the_floor() {
        let s4 = StarGraph::new(4);
        let state = MessageRoutingState::at_source();
        let next = s4.neighbor(0, 1);
        let s1 = state.after_hop(&s4, 0, next, Some(2));
        assert_eq!(s1.escape_level, 2);
        // using a class-a channel afterwards keeps the floor
        let back = s4.neighbor(next, 2);
        let s2 = s1.after_hop(&s4, next, back, None);
        assert!(s2.escape_level >= 2);
    }
}
