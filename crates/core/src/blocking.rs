//! Blocking probabilities (Eqs. 6-11).
//!
//! A header taking its `k`-th hop toward a destination at distance `h` is
//! blocked when, on **every** one of the `f` physical channels that bring it
//! closer to the destination, all of the virtual channels it is allowed to
//! use are busy.  Under Enhanced-Nbc the allowed set on one physical channel
//! is
//!
//! * the `V1` fully adaptive class-a channels, plus
//! * the class-b (escape) levels permitted by the bonus-card rule: from the
//!   mandatory level (the number of negative hops taken when the message
//!   *arrives* at the next node) up to the highest level that still leaves
//!   room for every negative hop the rest of the journey may require.
//!
//! Because the star graph is bipartite, hop signs alternate deterministically
//! along any path: a message from an even-coloured source takes its negative
//! hops on even-numbered hops, a message from an odd-coloured source on
//! odd-numbered ones.  The paper captures the same effect with its
//! A / B⁻ / B⁺ message groups and the ½–½ split between B⁻ and B⁺; here the
//! two source colours are averaged explicitly (the colour classes have equal
//! size).  The OCR of Eqs. 8-11 is partially unreadable; this reconstruction
//! preserves the quantities the paper identifies as driving the blocking
//! probability — remaining distance, negative hops already taken, and the
//! number of alternative output channels — and is documented in DESIGN.md.
//!
//! **Topology split:** everything in this module is topology-agnostic.  The
//! derivation only assumes a bipartite network with equal colour classes
//! (so hop signs alternate deterministically and the ½–½ colour average is
//! exact) — true of both the star graph and the binary hypercube — and all
//! topology knowledge arrives pre-digested through the [`AdaptivityProfile`]
//! (how many alternative ports each hop offers) and the [`VcSplit`] (how the
//! discipline partitions the virtual channels).  [`crate::SpectrumModel`]
//! calls these functions unchanged for every spectrum.

use star_graph::coloring::{negative_hops_after, negative_hops_remaining, Color};
use star_graph::AdaptivityProfile;

use crate::occupancy::ChannelOccupancy;

/// The virtual-channel split the blocking computation assumes.
#[derive(Debug, Clone, Copy)]
pub struct VcSplit {
    /// Fully adaptive class-a channels (`V1`).
    pub adaptive: usize,
    /// Escape (class-b) levels (`V2`).
    pub escape_levels: usize,
    /// Whether headers may climb above their mandatory escape level
    /// (bonus cards — true for Enhanced-Nbc and Nbc, false for plain NHop).
    pub bonus_cards: bool,
}

impl VcSplit {
    /// Total virtual channels per physical channel.
    #[must_use]
    pub fn total(&self) -> usize {
        self.adaptive + self.escape_levels
    }
}

/// Number of virtual channels a message may use on one admissible physical
/// channel at its `k`-th hop (1-based) toward a destination at distance
/// `distance`, for a message whose source has colour `source_color`.
///
/// Returns `V1 + (number of admissible escape levels)`.
#[must_use]
pub fn selectable_vcs(split: VcSplit, source_color: Color, hop: usize, distance: usize) -> usize {
    assert!(hop >= 1 && hop <= distance, "hop {hop} out of range for distance {distance}");
    // Negative hops taken once the message arrives at the next node.
    let neg_taken = negative_hops_after(source_color, hop);
    // Colour of the node the message arrives at: the source colour flipped
    // `hop` times.
    let arrival_color = if hop % 2 == 0 { source_color } else { source_color.flip() };
    // Negative hops the remaining `distance - hop` hops may still require.
    let neg_remaining = negative_hops_remaining(arrival_color, distance - hop);
    // Admissible escape levels: mandatory level .. highest level that keeps
    // `neg_remaining` levels in reserve (just the mandatory level when the
    // discipline has no bonus cards).
    let top = split.escape_levels - 1;
    let low = neg_taken.min(top);
    let high = if split.bonus_cards { top.saturating_sub(neg_remaining).max(low) } else { low };
    split.adaptive + (high - low + 1)
}

/// Probability that a message is blocked at its `k`-th hop (1-based) toward a
/// destination at distance `distance`, given the per-hop adaptivity profile
/// and the channel occupancy at the current operating point (Eqs. 7-8).
///
/// The blocking event requires **all** `f` admissible physical channels to be
/// blocked, and each is blocked when all of the virtual channels the message
/// may use on it are busy; both source colours are averaged with weight ½.
#[must_use]
pub fn hop_blocking_probability(
    split: VcSplit,
    occupancy: &ChannelOccupancy,
    profile: &AdaptivityProfile,
    hop: usize,
    distance: usize,
) -> f64 {
    debug_assert_eq!(profile.distance, distance);
    let mut total = 0.0;
    for color in [Color::Zero, Color::One] {
        let selectable = selectable_vcs(split, color, hop, distance);
        let p_channel = occupancy.prob_all_busy(selectable);
        // expectation of p_channel^f over the adaptivity distribution at this hop
        let p_hop = profile.expect_over_adaptivity(hop - 1, |f| p_channel.powi(f as i32));
        total += 0.5 * p_hop;
    }
    total.clamp(0.0, 1.0)
}

/// Mean total blocking delay of a message headed to a destination of the
/// given profile: `Σ_k P_block(k) · w̄` (Eqs. 4-6).
#[must_use]
pub fn total_blocking_delay(
    split: VcSplit,
    occupancy: &ChannelOccupancy,
    profile: &AdaptivityProfile,
    mean_wait: f64,
) -> f64 {
    (1..=profile.distance)
        .map(|hop| {
            hop_blocking_probability(split, occupancy, profile, hop, profile.distance) * mean_wait
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_graph::path::MinimalPathDag;
    use star_graph::Permutation;

    const SPLIT_V6: VcSplit = VcSplit { adaptive: 2, escape_levels: 4, bonus_cards: true };
    const SPLIT_V12: VcSplit = VcSplit { adaptive: 8, escape_levels: 4, bonus_cards: true };
    const SPLIT_NHOP_V6: VcSplit = VcSplit { adaptive: 0, escape_levels: 6, bonus_cards: false };
    const SPLIT_NBC_V6: VcSplit = VcSplit { adaptive: 0, escape_levels: 6, bonus_cards: true };

    fn profile_for(symbols: &[u8]) -> AdaptivityProfile {
        MinimalPathDag::build(&Permutation::from_symbols(symbols).unwrap()).adaptivity_profile()
    }

    #[test]
    fn selectable_vcs_stay_within_total() {
        for &split in &[SPLIT_V6, SPLIT_V12] {
            for distance in 1..=6 {
                for hop in 1..=distance {
                    for color in [Color::Zero, Color::One] {
                        let s = selectable_vcs(split, color, hop, distance);
                        assert!(s > split.adaptive, "at least the mandatory escape level");
                        assert!(s <= split.total(), "cannot exceed V");
                    }
                }
            }
        }
    }

    #[test]
    fn last_hop_offers_the_widest_escape_window() {
        // On the final hop nothing more can go negative, so every level from
        // the mandatory one to the top is admissible.
        let split = SPLIT_V6;
        for distance in 1..=6usize {
            for color in [Color::Zero, Color::One] {
                let s = selectable_vcs(split, color, distance, distance);
                let neg_taken = negative_hops_after(color, distance);
                let expected =
                    split.adaptive + (split.escape_levels - neg_taken.min(split.escape_levels - 1));
                assert_eq!(s, expected);
            }
        }
    }

    #[test]
    fn more_virtual_channels_mean_more_choice() {
        for distance in 1..=6 {
            for hop in 1..=distance {
                for color in [Color::Zero, Color::One] {
                    assert!(
                        selectable_vcs(SPLIT_V12, color, hop, distance)
                            > selectable_vcs(SPLIT_V6, color, hop, distance)
                    );
                }
            }
        }
    }

    #[test]
    fn blocking_is_zero_at_zero_load_and_one_at_saturation() {
        let profile = profile_for(&[2, 1, 4, 3, 5]);
        let idle = ChannelOccupancy::new(0.0, 40.0, 6);
        let jammed = ChannelOccupancy::new(1.0, 40.0, 6);
        for hop in 1..=profile.distance {
            assert_eq!(
                hop_blocking_probability(SPLIT_V6, &idle, &profile, hop, profile.distance),
                0.0
            );
            assert!(
                (hop_blocking_probability(SPLIT_V6, &jammed, &profile, hop, profile.distance)
                    - 1.0)
                    .abs()
                    < 1e-12
            );
        }
    }

    #[test]
    fn blocking_grows_with_load() {
        let profile = profile_for(&[3, 4, 5, 1, 2]);
        let mut last = -1.0;
        for &rho in &[0.1, 0.3, 0.5, 0.7, 0.9] {
            let occ = ChannelOccupancy::new(rho / 50.0, 50.0, 6);
            let p = hop_blocking_probability(SPLIT_V6, &occ, &profile, 2, profile.distance);
            assert!(p > last);
            last = p;
        }
    }

    #[test]
    fn adaptivity_reduces_blocking() {
        // The first hop of a two-transposition destination offers 3 choices;
        // its last hop only 1.  At the same occupancy the first hop must be
        // (weakly) less likely to block.
        let profile = profile_for(&[2, 1, 4, 3, 5]);
        let occ = ChannelOccupancy::new(0.006, 60.0, 6);
        let first = hop_blocking_probability(SPLIT_V6, &occ, &profile, 1, 4);
        let last = hop_blocking_probability(SPLIT_V6, &occ, &profile, 4, 4);
        assert!(first < last);
    }

    #[test]
    fn more_virtual_channels_reduce_blocking() {
        let profile = profile_for(&[5, 4, 3, 2, 1]);
        let occ6 = ChannelOccupancy::new(0.006, 60.0, 6);
        let occ12 = ChannelOccupancy::new(0.006, 60.0, 12);
        for hop in 1..=profile.distance {
            let p6 = hop_blocking_probability(SPLIT_V6, &occ6, &profile, hop, profile.distance);
            let p12 = hop_blocking_probability(SPLIT_V12, &occ12, &profile, hop, profile.distance);
            assert!(p12 <= p6 + 1e-12, "hop {hop}: V=12 must not block more than V=6");
        }
    }

    #[test]
    fn total_blocking_delay_scales_with_wait() {
        let profile = profile_for(&[2, 3, 1, 5, 4]);
        let occ = ChannelOccupancy::new(0.008, 55.0, 6);
        let d1 = total_blocking_delay(SPLIT_V6, &occ, &profile, 10.0);
        let d2 = total_blocking_delay(SPLIT_V6, &occ, &profile, 20.0);
        assert!((d2 - 2.0 * d1).abs() < 1e-12);
        assert!(d1 > 0.0);
    }

    #[test]
    fn nhop_discipline_gets_exactly_one_channel_per_port() {
        for distance in 1..=6 {
            for hop in 1..=distance {
                for color in [Color::Zero, Color::One] {
                    assert_eq!(selectable_vcs(SPLIT_NHOP_V6, color, hop, distance), 1);
                }
            }
        }
    }

    #[test]
    fn bonus_cards_widen_the_window_over_plain_nhop() {
        let mut strictly_wider = 0;
        for distance in 1..=6 {
            for hop in 1..=distance {
                for color in [Color::Zero, Color::One] {
                    let nbc = selectable_vcs(SPLIT_NBC_V6, color, hop, distance);
                    let nhop = selectable_vcs(SPLIT_NHOP_V6, color, hop, distance);
                    assert!(nbc >= nhop);
                    if nbc > nhop {
                        strictly_wider += 1;
                    }
                }
            }
        }
        assert!(strictly_wider > 0);
    }

    #[test]
    fn nhop_blocks_more_than_nbc_at_the_same_occupancy() {
        let profile = profile_for(&[5, 4, 3, 2, 1]);
        let occ = ChannelOccupancy::new(0.006, 60.0, 6);
        for hop in 1..=profile.distance {
            let nhop =
                hop_blocking_probability(SPLIT_NHOP_V6, &occ, &profile, hop, profile.distance);
            let nbc = hop_blocking_probability(SPLIT_NBC_V6, &occ, &profile, hop, profile.distance);
            assert!(nhop >= nbc - 1e-12, "hop {hop}: NHop must block at least as much as Nbc");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn hop_zero_is_rejected() {
        let _ = selectable_vcs(SPLIT_V6, Color::Zero, 0, 3);
    }
}
