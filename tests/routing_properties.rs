//! Cross-crate properties of the routing algorithms over the real topology:
//! every admissible candidate leads the message along a minimal path, the
//! escape discipline never runs out of levels, and random walks following the
//! algorithms always reach the destination in exactly the minimal number of
//! hops.  These are the invariants the analytical model silently relies on.

use star_wormhole::graph::{HopSign, NodeId};
use star_wormhole::routing::{BonusCardPolicy, CandidateVc, MessageRoutingState};
use star_wormhole::{
    DeterministicMinimal, EnhancedNbc, Hypercube, NHop, Nbc, Permutation, RoutingAlgorithm,
    StarGraph, Topology, Torus,
};

/// One routing query's candidates in a fresh buffer.
fn candidates(
    algo: &dyn RoutingAlgorithm,
    topology: &dyn Topology,
    cur: NodeId,
    dest: NodeId,
    state: &MessageRoutingState,
) -> Vec<CandidateVc> {
    let mut out = Vec::new();
    algo.candidates_into(topology, cur, dest, state, &mut out);
    out
}

fn walk_to_destination(
    topology: &StarGraph,
    algo: &dyn RoutingAlgorithm,
    src: u32,
    dest: u32,
    pick: impl Fn(usize) -> usize,
) -> usize {
    let mut cur = src;
    let mut state = MessageRoutingState::at_source();
    let mut hops = 0;
    while cur != dest {
        let cands = candidates(algo, topology, cur, dest, &state);
        assert!(!cands.is_empty(), "no candidate from {cur} to {dest} after {hops} hops");
        let choice = cands[pick(cands.len())];
        let next = topology.neighbor(cur, choice.port);
        assert_eq!(
            topology.distance(next, dest) + 1,
            topology.distance(cur, dest),
            "candidates must stay on minimal paths"
        );
        let layout = algo.layout();
        let level =
            if layout.is_adaptive(choice.vc) { None } else { Some(choice.vc - layout.adaptive) };
        state = state.after_hop(topology, cur, next, level);
        cur = next;
        hops += 1;
        assert!(hops <= topology.diameter(), "walk exceeded the diameter");
    }
    hops
}

#[test]
fn all_algorithms_route_every_pair_minimally_on_s4() {
    let topology = StarGraph::new(4);
    let algorithms: Vec<Box<dyn RoutingAlgorithm>> = vec![
        Box::new(EnhancedNbc::for_topology(&topology, 5)),
        Box::new(Nbc::for_topology(&topology, 4)),
        Box::new(NHop::for_topology(&topology, 3)),
    ];
    for algo in &algorithms {
        for src in 0..topology.node_count() as u32 {
            for dest in 0..topology.node_count() as u32 {
                if src == dest {
                    continue;
                }
                let hops = walk_to_destination(&topology, algo.as_ref(), src, dest, |_| 0);
                assert_eq!(hops, topology.distance(src, dest), "{}", algo.name());
            }
        }
    }
}

#[test]
fn permutation_distance_equals_walk_length_through_routing() {
    // The adaptivity function of `star-graph` and the candidate sets of
    // `star-routing` must tell the same story about distances.
    let topology = StarGraph::new(5);
    let algo = EnhancedNbc::for_topology(&topology, 6);
    for dest in (0..topology.node_count() as u32).step_by(11) {
        for src in (0..topology.node_count() as u32).step_by(17) {
            if src == dest {
                continue;
            }
            let rel = topology.permutation(src).relative_to(topology.permutation(dest));
            let hops = walk_to_destination(&topology, &algo, src, dest, |n| n / 2);
            assert_eq!(hops, rel.distance_to_identity());
        }
    }
}

/// Deterministic pseudo-random stream (SplitMix64), standing in for the
/// former proptest strategies so the walks stay reproducible without a
/// property-testing dependency.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn random_adaptive_walks_reach_their_destination_on_s5() {
    let topology = StarGraph::new(5);
    let algo = EnhancedNbc::for_topology(&topology, 6);
    let mut state = 0x5EED_0001u64;
    let mut cases = 0;
    while cases < 64 {
        let src = (splitmix64(&mut state) % 120) as u32;
        let dest = (splitmix64(&mut state) % 120) as u32;
        let choice_seed = (splitmix64(&mut state) % 1000) as usize;
        if src == dest {
            continue;
        }
        cases += 1;
        let hops = walk_to_destination(&topology, &algo, src, dest, |n| choice_seed % n);
        assert_eq!(
            hops,
            topology.distance(src, dest),
            "walk {src}->{dest} with choice seed {choice_seed}"
        );
    }
}

#[test]
fn relative_permutation_distance_is_symmetric() {
    let topology = StarGraph::new(5);
    let mut state = 0x5EED_0002u64;
    for _ in 0..64 {
        let a = (splitmix64(&mut state) % 120) as u32;
        let b = (splitmix64(&mut state) % 120) as u32;
        let pa: &Permutation = topology.permutation(a);
        let pb: &Permutation = topology.permutation(b);
        assert_eq!(
            pa.relative_to(pb).distance_to_identity(),
            pb.relative_to(pa).distance_to_identity(),
            "distance between ranks {a} and {b} must be symmetric"
        );
    }
}

/// The four routers of the star comparison, built for `topology` with their
/// minimum virtual channels plus `spare`.
fn routers(topology: &dyn Topology, spare: usize) -> Vec<(Router, Box<dyn RoutingAlgorithm>)> {
    let levels = BonusCardPolicy::required_levels(topology);
    vec![
        (Router::Enhanced, Box::new(EnhancedNbc::for_topology(topology, levels + 1 + spare))),
        (Router::Nbc, Box::new(Nbc::for_topology(topology, levels + spare))),
        (Router::NHop, Box::new(NHop::for_topology(topology, levels + spare))),
        (
            Router::Deterministic,
            Box::new(DeterministicMinimal::for_topology(topology, levels + spare)),
        ),
    ]
}

#[derive(Debug, Clone, Copy)]
enum Router {
    Enhanced,
    Nbc,
    NHop,
    Deterministic,
}

/// The candidate list as the routers derived it per hop before they filled a
/// caller's buffer: the distance-decreasing ports found by probing every
/// port, ascending; per port the class-a channels, then the escape window
/// (Enhanced-Nbc, Nbc) or the single mandatory level (NHop, and the
/// deterministic router on its first port only).
fn reference_candidates(
    router: Router,
    algo: &dyn RoutingAlgorithm,
    topology: &dyn Topology,
    cur: NodeId,
    dest: NodeId,
    state: &MessageRoutingState,
) -> Vec<CandidateVc> {
    let layout = algo.layout();
    let policy = BonusCardPolicy::new(layout.escape_levels);
    let here = topology.distance(cur, dest);
    let mut ports: Vec<usize> = (0..topology.degree())
        .filter(|&port| topology.distance(topology.neighbor(cur, port), dest) + 1 == here)
        .collect();
    if matches!(router, Router::Deterministic) {
        ports.truncate(1);
    }
    let mut out = Vec::new();
    for port in ports {
        let next = topology.neighbor(cur, port);
        match router {
            Router::Enhanced | Router::Nbc => {
                out.extend(layout.adaptive_vcs().map(|vc| CandidateVc { port, vc }));
                if let Some((low, high)) =
                    policy.admissible_levels(topology, cur, next, dest, state)
                {
                    out.extend((low..=high).map(|l| CandidateVc { port, vc: layout.escape_vc(l) }));
                }
            }
            Router::NHop | Router::Deterministic => {
                let negative =
                    HopSign::classify(topology.color(cur), topology.color(next)).is_negative();
                let level = state.negative_hops_taken + usize::from(negative);
                if level < layout.escape_levels {
                    out.push(CandidateVc { port, vc: layout.escape_vc(level) });
                }
            }
        }
    }
    out
}

fn assert_matches_reference(
    topology: &dyn Topology,
    spare: usize,
    queries: &[(NodeId, NodeId, MessageRoutingState)],
) {
    for (router, algo) in routers(topology, spare) {
        let mut buffer = Vec::new();
        for &(cur, dest, state) in queries {
            algo.candidates_into(topology, cur, dest, &state, &mut buffer);
            assert_eq!(
                buffer,
                reference_candidates(router, algo.as_ref(), topology, cur, dest, &state),
                "{} on {}: {cur} -> {dest} in {state:?}",
                algo.name(),
                topology.name()
            );
        }
    }
}

#[test]
fn candidates_into_keeps_the_per_hop_order_on_every_s4_pair() {
    let s4 = StarGraph::new(4);
    let levels = BonusCardPolicy::required_levels(&s4);
    let mut queries = Vec::new();
    for cur in 0..s4.node_count() as NodeId {
        for dest in 0..s4.node_count() as NodeId {
            if cur == dest {
                continue;
            }
            // the source state and a state that has climbed the escape levels
            queries.push((cur, dest, MessageRoutingState::at_source()));
            queries.push((
                cur,
                dest,
                MessageRoutingState {
                    hops_taken: 2,
                    negative_hops_taken: 1,
                    escape_level: levels - 1,
                },
            ));
        }
    }
    assert_matches_reference(&s4, 0, &queries);
    assert_matches_reference(&s4, 2, &queries);
}

#[test]
fn candidates_into_keeps_the_per_hop_order_on_sampled_states() {
    let topologies: Vec<Box<dyn Topology>> =
        vec![Box::new(StarGraph::new(5)), Box::new(Hypercube::new(5)), Box::new(Torus::new(6))];
    let mut rng = 0x5EED_0003u64;
    for topology in &topologies {
        let nodes = topology.node_count() as u64;
        let levels = BonusCardPolicy::required_levels(topology.as_ref());
        let mut queries = Vec::new();
        while queries.len() < 400 {
            let cur = (splitmix64(&mut rng) % nodes) as NodeId;
            let dest = (splitmix64(&mut rng) % nodes) as NodeId;
            if cur == dest {
                continue;
            }
            let negative_hops_taken = (splitmix64(&mut rng) % levels as u64) as usize;
            let escape_level = negative_hops_taken
                + (splitmix64(&mut rng) % (levels - negative_hops_taken) as u64) as usize;
            let hops_taken = negative_hops_taken + (splitmix64(&mut rng) % 4) as usize;
            queries.push((
                cur,
                dest,
                MessageRoutingState { hops_taken, negative_hops_taken, escape_level },
            ));
        }
        assert_matches_reference(topology.as_ref(), 1, &queries);
    }
}

#[test]
fn candidates_into_clears_a_reused_buffer_first() {
    let s5 = StarGraph::new(5);
    let state = MessageRoutingState::at_source();
    for (_, algo) in routers(&s5, 1) {
        for dest in [1, 57, 119] {
            let fresh = candidates(algo.as_ref(), &s5, 0, dest, &state);
            let mut reused = vec![CandidateVc { port: 99, vc: 99 }; 40];
            algo.candidates_into(&s5, 0, dest, &state, &mut reused);
            assert_eq!(reused, fresh, "{} must clear the buffer before filling it", algo.name());
        }
    }
}
