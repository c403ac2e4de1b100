//! Virtual-channel occupancy chains and the multiplexing degree.
//!
//! Eq. (18) of the paper models the number of busy virtual channels at a
//! physical channel as a Markov chain whose steady state reduces to a
//! truncated geometric distribution in `ρ = λ_c·S̄`; Eq. (19) is Dally's
//! average degree of virtual-channel multiplexing,
//! `V̄ = Σ v²·P_v / Σ v·P_v`, which scales the final latency to account for
//! the physical bandwidth being time-multiplexed between the virtual channels
//! sharing it.
//!
//! A generic finite [`BirthDeathChain`] solver is also provided (and used by
//! tests to confirm that the closed form of Eq. 18 is indeed the steady state
//! of the chain described in the paper).

use serde::{Deserialize, Serialize};

/// Steady-state distribution of the number of busy virtual channels at a
/// physical channel with `v_max` virtual channels (Eq. 18):
///
/// `P_v = (λ·S̄)^v (1 − λ·S̄)` for `0 <= v < V`, and `P_V = (λ·S̄)^V`.
///
/// The result has length `v_max + 1` and sums to 1.  When `λ·S̄ >= 1` the
/// channel is saturated and all mass is placed on `v = V`.
///
/// # Panics
/// Panics if `v_max == 0` or the inputs are negative.
#[must_use]
pub fn vc_occupancy_distribution(arrival_rate: f64, mean_service: f64, v_max: usize) -> Vec<f64> {
    let mut p = vec![0.0; v_max + 1];
    vc_occupancy_distribution_into(arrival_rate, mean_service, &mut p);
    p
}

/// [`vc_occupancy_distribution`] written into `out`, whose length `V + 1`
/// sets the number of virtual channels: the allocation-free form for a
/// fixed-point loop that evaluates Eq. 18 once per iteration.
///
/// # Panics
/// Panics if `out.len() < 2` or the inputs are negative.
pub fn vc_occupancy_distribution_into(arrival_rate: f64, mean_service: f64, out: &mut [f64]) {
    assert!(out.len() >= 2, "need at least one virtual channel");
    assert!(arrival_rate >= 0.0 && mean_service >= 0.0, "inputs must be non-negative");
    let v_max = out.len() - 1;
    let rho = arrival_rate * mean_service;
    if rho >= 1.0 {
        out.fill(0.0);
        out[v_max] = 1.0;
        return;
    }
    for (v, slot) in out.iter_mut().enumerate().take(v_max) {
        *slot = rho.powi(v as i32) * (1.0 - rho);
    }
    out[v_max] = rho.powi(v_max as i32);
}

/// Dally's average degree of virtual-channel multiplexing (Eq. 19):
/// `V̄ = Σ v²·P_v / Σ v·P_v`.  Returns 1.0 when no virtual channel is ever
/// busy (zero load), so that multiplying by `V̄` is always meaningful.
///
/// # Panics
/// Panics if the distribution is empty.
#[must_use]
pub fn multiplexing_degree(occupancy: &[f64]) -> f64 {
    assert!(!occupancy.is_empty(), "occupancy distribution must not be empty");
    let num: f64 = occupancy.iter().enumerate().map(|(v, &p)| (v * v) as f64 * p).sum();
    let den: f64 = occupancy.iter().enumerate().map(|(v, &p)| v as f64 * p).sum();
    if den <= 0.0 {
        1.0
    } else {
        num / den
    }
}

/// A finite birth–death Markov chain with state-dependent birth rates
/// `λ_v` (state `v → v+1`) and death rates `μ_v` (state `v → v-1`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BirthDeathChain {
    /// Birth rate out of each state `0..states-1` (last state has none).
    birth_rates: Vec<f64>,
    /// Death rate out of each state `1..states` (`death_rates[v-1]` leaves state `v`).
    death_rates: Vec<f64>,
}

impl BirthDeathChain {
    /// Builds a chain with `birth_rates.len() + 1` states.
    ///
    /// # Panics
    /// Panics if the lengths differ, are empty, or any rate is negative.
    #[must_use]
    pub fn new(birth_rates: Vec<f64>, death_rates: Vec<f64>) -> Self {
        assert_eq!(birth_rates.len(), death_rates.len(), "need one death rate per birth rate");
        assert!(!birth_rates.is_empty(), "chain needs at least two states");
        assert!(
            birth_rates.iter().chain(death_rates.iter()).all(|&r| r >= 0.0),
            "rates must be non-negative"
        );
        Self { birth_rates, death_rates }
    }

    /// A chain with the same birth rate `lambda` out of every state and the
    /// same death rate `mu` into every state — the structure the paper uses
    /// for virtual-channel occupancy (birth = message arrival at rate `λ_c`,
    /// death = service completion at rate `1/S̄`).
    #[must_use]
    pub fn homogeneous(lambda: f64, mu: f64, states: usize) -> Self {
        assert!(states >= 2, "chain needs at least two states");
        Self::new(vec![lambda; states - 1], vec![mu; states - 1])
    }

    /// Number of states.
    #[must_use]
    pub fn states(&self) -> usize {
        self.birth_rates.len() + 1
    }

    /// Exact steady-state distribution via the detailed-balance product form
    /// `π_v ∝ Π_{i<v} λ_i/μ_{i+1}`.
    ///
    /// States with an unreachable prefix (a zero birth rate upstream) simply
    /// receive zero probability.
    #[must_use]
    pub fn steady_state(&self) -> Vec<f64> {
        let n = self.states();
        let mut weights = vec![0.0; n];
        weights[0] = 1.0;
        for v in 1..n {
            let lambda = self.birth_rates[v - 1];
            let mu = self.death_rates[v - 1];
            weights[v] = if mu > 0.0 { weights[v - 1] * lambda / mu } else { 0.0 };
        }
        let total: f64 = weights.iter().sum();
        if total > 0.0 {
            for w in &mut weights {
                *w /= total;
            }
        }
        weights
    }

    /// Mean state value under the steady-state distribution.
    #[must_use]
    pub fn mean_state(&self) -> f64 {
        self.steady_state().iter().enumerate().map(|(v, &p)| v as f64 * p).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_distribution(p: &[f64]) {
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "distribution must sum to 1, got {sum}");
        assert!(p.iter().all(|&x| (-1e-12..=1.0 + 1e-12).contains(&x)));
    }

    #[test]
    fn occupancy_is_a_distribution() {
        for &(lambda, s, v) in
            &[(0.001, 40.0, 4usize), (0.01, 60.0, 6), (0.0, 10.0, 3), (0.02, 45.0, 12)]
        {
            assert_distribution(&vc_occupancy_distribution(lambda, s, v));
        }
    }

    #[test]
    fn occupancy_closed_form_values() {
        let p = vc_occupancy_distribution(0.01, 50.0, 3);
        let rho: f64 = 0.5;
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!((p[1] - 0.25).abs() < 1e-12);
        assert!((p[2] - 0.125).abs() < 1e-12);
        assert!((p[3] - rho.powi(3)).abs() < 1e-12);
    }

    #[test]
    fn saturation_concentrates_on_full_occupancy() {
        let p = vc_occupancy_distribution(0.1, 20.0, 5);
        assert_eq!(p[5], 1.0);
        assert!(p[..5].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn the_in_place_form_overwrites_a_reused_buffer() {
        let mut buffer = vec![0.0; 7];
        for &(lambda, s) in &[(0.01, 50.0), (0.1, 20.0), (0.0, 40.0), (0.004, 60.0)] {
            vc_occupancy_distribution_into(lambda, s, &mut buffer);
            assert_eq!(buffer, vc_occupancy_distribution(lambda, s, 6));
        }
    }

    #[test]
    fn zero_load_gives_unit_multiplexing() {
        let p = vc_occupancy_distribution(0.0, 40.0, 6);
        assert_eq!(multiplexing_degree(&p), 1.0);
    }

    #[test]
    fn multiplexing_degree_between_one_and_v() {
        for &rho in &[0.1, 0.3, 0.5, 0.7, 0.9, 0.99] {
            for v in 2..=12 {
                let p = vc_occupancy_distribution(rho / 40.0, 40.0, v);
                let m = multiplexing_degree(&p);
                assert!(m >= 1.0 - 1e-12, "multiplexing below 1: {m}");
                assert!(m <= v as f64 + 1e-12, "multiplexing above V: {m}");
            }
        }
    }

    #[test]
    fn multiplexing_degree_increases_with_load() {
        let v = 6;
        let mut last = 0.0;
        for &rho in &[0.1, 0.3, 0.5, 0.7, 0.9] {
            let m = multiplexing_degree(&vc_occupancy_distribution(rho / 30.0, 30.0, v));
            assert!(m > last);
            last = m;
        }
    }

    #[test]
    fn birth_death_homogeneous_matches_truncated_geometric_shape() {
        // The paper's chain: arrivals at λ_c, service at 1/S̄.  Its exact
        // steady state is the normalised geometric; Eq. (18) uses an
        // un-normalised variant (the transition rates out of each state are
        // "reduced by λ_c"), so we only compare shapes (ratios of successive
        // probabilities).
        let lambda = 0.004;
        let s = 55.0;
        let v = 6;
        let chain = BirthDeathChain::homogeneous(lambda, 1.0 / s, v + 1);
        let pi = chain.steady_state();
        assert_distribution(&pi);
        let rho = lambda * s;
        for i in 0..v {
            assert!((pi[i + 1] / pi[i] - rho).abs() < 1e-9);
        }
    }

    #[test]
    fn birth_death_mean_state_increases_with_load() {
        let s = 40.0;
        let mut last = 0.0;
        for &lambda in &[0.001, 0.004, 0.008, 0.012, 0.02] {
            let mean = BirthDeathChain::homogeneous(lambda, 1.0 / s, 7).mean_state();
            assert!(mean > last);
            last = mean;
        }
    }

    #[test]
    fn birth_death_zero_death_rate_is_handled() {
        let chain = BirthDeathChain::new(vec![1.0, 1.0], vec![1.0, 0.0]);
        let pi = chain.steady_state();
        // the state after the zero death rate is unreachable in product form
        assert_eq!(pi[2], 0.0);
        assert_distribution(&pi[..2]);
    }

    #[test]
    #[should_panic(expected = "at least one virtual channel")]
    fn occupancy_rejects_zero_channels() {
        let _ = vc_occupancy_distribution(0.01, 10.0, 0);
    }

    mod prop {
        use super::*;

        #[test]
        fn occupancy_always_a_distribution() {
            for v in 1usize..16 {
                for &s in &[1.0f64, 7.3, 40.0, 199.0] {
                    // inclusive top: rho reaches 1.999 (past saturation)
                    for i in 0..=20 {
                        let rho = 1.999 * f64::from(i) / 20.0;
                        let p = vc_occupancy_distribution(rho / s, s, v);
                        let sum: f64 = p.iter().sum();
                        assert!((sum - 1.0).abs() < 1e-9, "sum {sum} for rho={rho}, s={s}, v={v}");
                    }
                }
            }
        }

        #[test]
        fn multiplexing_bounded() {
            for v in 1usize..16 {
                // inclusive top so the near-saturation regime is exercised
                for i in 0..=40 {
                    let rho = 0.9985 * f64::from(i) / 40.0;
                    let p = vc_occupancy_distribution(rho, 1.0, v);
                    let m = multiplexing_degree(&p);
                    assert!(
                        m >= 1.0 - 1e-12 && m <= v as f64 + 1e-12,
                        "multiplexing {m} out of [1, {v}] at rho={rho}"
                    );
                }
            }
        }
    }
}
