//! The analytical latency model (Eq. 1) and its fixed-point solution, on
//! any [`TraversalSpectrum`].
//!
//! The model is one fixed point solved over a destination spectrum: the
//! mean network latency `S̄` (Eqs. 4-5) depends on the per-hop blocking
//! delays (Eqs. 6-11), which depend on the channel waiting time (Eqs.
//! 12-16), which depends on `S̄` again.  [`SpectrumModel`] iterates that
//! dependency with a damped solver and composes the answer
//! `(S̄ + W_s)·V̄`.  The star's cycle types, the hypercube's Hamming classes
//! and the BFS census of any other [`star_graph::Topology`] are just
//! different spectra fed to the same solve; [`saturation_rate`] is the one
//! bisection over it.

use std::sync::Arc;

use serde::{Deserialize, Serialize};
use star_queueing::{FixedPointOutcome, FixedPointSolver};

use crate::kernel::{StepKernel, StepScratch};
use crate::occupancy::ChannelOccupancy;
use crate::params::ModelParams;
use crate::spectrum::TraversalSpectrum;
use crate::waiting::{channel_waiting_time, source_waiting_time};

/// Result of evaluating the model at one operating point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpectrumResult {
    /// The parameters that were evaluated.
    pub params: ModelParams,
    /// Name of the topology the spectrum was built from.
    pub topology: String,
    /// Whether the operating point is beyond saturation (the fixed point
    /// diverged or a queue became unstable).
    pub saturated: bool,
    /// Whether the fixed-point iteration met its tolerance.  An unsaturated
    /// result with `converged == false` ran out of iterations: its latency
    /// is the last iterate, not an answer.
    pub converged: bool,
    /// Relative change of `S̄` at the last iteration (infinite when the
    /// iteration diverged or never ran).
    pub residual: f64,
    /// Mean network latency `S̄` (time to cross the network), in cycles.
    pub mean_network_latency: f64,
    /// Mean waiting time at the source queue `W_s`, in cycles.
    pub source_waiting: f64,
    /// Average degree of virtual-channel multiplexing `V̄` (Eq. 19).
    pub multiplexing: f64,
    /// Mean message latency `(S̄ + W_s)·V̄`, in cycles.
    pub mean_latency: f64,
    /// Mean minimal distance `d̄` (Eq. 2).
    pub mean_distance: f64,
    /// Traffic rate per channel `λ_c = λ_g·d̄/degree` (Eq. 3).
    pub channel_rate: f64,
    /// Channel utilisation `λ_c · S̄` at the solution.
    pub channel_utilization: f64,
    /// Mean waiting time `w̄` at a channel when blocking occurs (Eq. 15).
    pub channel_waiting: f64,
    /// Number of fixed-point iterations used.
    pub iterations: usize,
}

impl SpectrumResult {
    /// A saturated placeholder result (infinite latency).
    fn saturated(
        params: ModelParams,
        topology: String,
        mean_distance: f64,
        channel_rate: f64,
        iterations: usize,
        converged: bool,
        residual: f64,
    ) -> Self {
        Self {
            params,
            topology,
            saturated: true,
            converged,
            residual,
            mean_network_latency: f64::INFINITY,
            source_waiting: f64::INFINITY,
            multiplexing: params.virtual_channels as f64,
            mean_latency: f64::INFINITY,
            mean_distance,
            channel_rate,
            channel_utilization: 1.0,
            channel_waiting: f64::INFINITY,
            iterations,
        }
    }
}

/// The damped fixed-point solver the latency model iterates with.
///
/// Tolerance 1e-12 (not the solver default 1e-9): near the knee the
/// contraction factor approaches 1 and the per-iteration residual understates
/// the distance to the fixed point, and warm- and cold-started solves must
/// agree to 1e-9 relative latency.
fn latency_solver() -> FixedPointSolver {
    FixedPointSolver {
        damping: 0.5,
        tolerance: 1e-12,
        max_iterations: 20_000,
        divergence_ceiling: 1e7,
    }
}

/// The analytical model of mean message latency on a [`TraversalSpectrum`].
///
/// Building a model also flattens the rate-independent half of the
/// fixed-point step: per class `M + distance` and population, per hop the
/// admissible virtual-channel count of each source colour and its
/// adaptivity distribution, and the binomial weights of
/// `P(all a busy)`.  Each iteration of a solve then only fills the Eq. 18
/// occupancy, `P(all a busy)` and the powers `P^f` it reads into buffers
/// the solve owns, and walks those flat arrays without allocating.  The
/// per-hop formula of [`crate::blocking::total_blocking_delay`] stays the
/// documented reference the step reproduces bit for bit.
#[derive(Debug, Clone)]
pub struct SpectrumModel {
    params: ModelParams,
    spectrum: Arc<TraversalSpectrum>,
    kernel: StepKernel,
}

impl SpectrumModel {
    /// Builds the model around an already computed spectrum (the spectrum
    /// only depends on the topology, so a sweep — or several threads — can
    /// reuse one allocation).
    ///
    /// # Panics
    /// Panics if the parameters are invalid for the spectrum's topology
    /// (diameter-derived virtual-channel floor, message length, rate).
    #[must_use]
    pub fn new(params: ModelParams, spectrum: Arc<TraversalSpectrum>) -> Self {
        if let Err(e) = params.validate(spectrum.node_count(), spectrum.diameter()) {
            panic!("invalid parameters for {}: {e}", spectrum.topology_name());
        }
        let kernel = StepKernel::new(&params, &spectrum);
        Self { params, spectrum, kernel }
    }

    /// Builds the model and the BFS spectrum in one go.
    ///
    /// # Panics
    /// As [`Self::new`] and [`TraversalSpectrum::new`].
    #[must_use]
    pub fn for_topology(params: ModelParams, topology: &dyn star_graph::Topology) -> Self {
        Self::new(params, Arc::new(TraversalSpectrum::new(topology)))
    }

    /// The parameters being evaluated.
    #[must_use]
    pub fn params(&self) -> &ModelParams {
        &self.params
    }

    /// The traversal spectrum (shared across operating points of the same
    /// topology).
    #[must_use]
    pub fn spectrum(&self) -> &TraversalSpectrum {
        &self.spectrum
    }

    /// Solves the model at the configured operating point from the cold
    /// (zero-load) initial state.
    #[must_use]
    pub fn solve(&self) -> SpectrumResult {
        self.solve_from(&[])
    }

    /// Solves the model, warm-starting the damped fixed-point iteration from
    /// a previously converged state vector (one component: the mean network
    /// latency `S̄`).
    ///
    /// Sweeps over increasing traffic rates converge to nearby fixed points,
    /// so seeding each rate with the previous rate's converged state cuts the
    /// iteration count substantially near the saturation knee while reaching
    /// the same fixed point (the solver tolerance bounds the answer, not the
    /// path to it).  An empty slice or a non-finite / below-zero-load seed
    /// (e.g. from a saturated previous point) falls back to the cold start,
    /// so callers can pass the previous state unconditionally.
    #[must_use]
    pub fn solve_from(&self, warm_state: &[f64]) -> SpectrumResult {
        let params = &self.params;
        let name = self.spectrum.topology_name().to_string();
        let mean_distance = self.spectrum.mean_distance();
        let channel_rate = params.traffic_rate * mean_distance / self.spectrum.degree() as f64;
        let zero_load = params.message_length as f64 + mean_distance;
        let saturated = |name, iterations, converged, residual| {
            SpectrumResult::saturated(
                *params,
                name,
                mean_distance,
                channel_rate,
                iterations,
                converged,
                residual,
            )
        };

        // a channel can never serve more than one message of M flits at a
        // time, so λ_c·M ≥ 1 is beyond saturation
        if channel_rate * params.message_length as f64 >= 1.0 {
            return saturated(name, 0, false, f64::INFINITY);
        }

        let initial = match warm_state.first() {
            Some(&seed) if seed.is_finite() && seed >= zero_load => seed,
            _ => zero_load,
        };
        let solver = latency_solver();
        // one application of Eqs. 4-15 per iteration, through the kernel
        // built with the model and scratch tables the closure owns
        let mut scratch = StepScratch::default();
        let outcome = solver.solve_scalar(initial, move |mean_service| {
            self.kernel.network_latency_step(mean_service, channel_rate, &mut scratch)
        });
        let (mean_network_latency, iterations, converged, residual) = match outcome {
            FixedPointOutcome::Converged { state, iterations, residual } => {
                (state, iterations, true, residual)
            }
            FixedPointOutcome::Diverged { iterations, .. } => {
                return saturated(name, iterations, false, f64::INFINITY);
            }
            FixedPointOutcome::MaxIterations { state, residual } => {
                (state, solver.max_iterations, false, residual)
            }
        };

        let occupancy =
            ChannelOccupancy::new(channel_rate, mean_network_latency, params.virtual_channels);
        let multiplexing = occupancy.multiplexing_degree();
        let channel_waiting =
            channel_waiting_time(channel_rate, mean_network_latency, params.message_length);
        let source_waiting = source_waiting_time(
            params.traffic_rate,
            params.virtual_channels,
            mean_network_latency,
            params.message_length,
        );
        if !source_waiting.is_finite() || !channel_waiting.is_finite() {
            return saturated(name, iterations, converged, residual);
        }
        let mean_latency = (mean_network_latency + source_waiting) * multiplexing;
        SpectrumResult {
            params: *params,
            topology: name,
            saturated: false,
            converged,
            residual,
            mean_network_latency,
            source_waiting,
            multiplexing,
            mean_latency,
            mean_distance,
            channel_rate,
            channel_utilization: channel_rate * mean_network_latency,
            channel_waiting,
            iterations,
        }
    }
}

/// Largest traffic generation rate at which the model still solves
/// unsaturated (the predicted saturation rate), found by bisection on the
/// `saturated` flag to the given relative tolerance.
///
/// Each probe warm-starts from the `S̄` of the highest rate known to solve
/// ([`SpectrumModel::solve_from`]).  The latency map is monotone in `S̄` and
/// in the rate, so that seed lies below the fixed point of any higher rate
/// and the damped iteration climbs to the same answer a cold start reaches.
/// Near the knee every probe still needs thousands of iterations wherever
/// it starts, so this saves about a tenth of them.
///
/// # Panics
/// Panics if the parameters are invalid for the spectrum's topology or
/// `tolerance` is outside `(0, 1)`.
#[must_use]
pub fn saturation_rate(
    base: ModelParams,
    spectrum: &Arc<TraversalSpectrum>,
    tolerance: f64,
) -> f64 {
    assert!(tolerance > 0.0 && tolerance < 1.0, "tolerance must be in (0, 1)");
    let probe = |rate: f64, seed: f64| {
        SpectrumModel::new(base.with_rate(rate), Arc::clone(spectrum)).solve_from(&[seed])
    };
    // NaN: no rate is known to solve yet, so the first probe starts cold
    let mut seed = f64::NAN;
    let m = base.message_length as f64;
    let mut low = 0.0;
    // λ_c·M ≥ 1 (one message of M flits per channel at a time) is certainly
    // beyond saturation: λ_g = degree/(d̄·M).  The closed-form star keeps the
    // 1/M bracket its pinned curves were bisected from.
    let mut high = if spectrum.is_closed_form_star() {
        1.0 / m
    } else {
        spectrum.degree() as f64 / (spectrum.mean_distance() * m)
    };
    debug_assert!(probe(high, seed).saturated);
    while (high - low) / high.max(1e-12) > tolerance {
        let mid = 0.5 * (low + high);
        let result = probe(mid, seed);
        if result.saturated {
            high = mid;
        } else {
            low = mid;
            seed = result.mean_network_latency;
        }
    }
    low
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ModelDiscipline;
    use star_graph::{Ring, Torus};

    /// The spectra every model property is checked on: the two closed forms
    /// and the BFS census of a torus.
    fn spectra() -> [Arc<TraversalSpectrum>; 3] {
        [
            Arc::new(TraversalSpectrum::star(5)),
            Arc::new(TraversalSpectrum::hypercube(7)),
            Arc::new(TraversalSpectrum::new(&Torus::new(8))),
        ]
    }

    fn params(v: usize, m: usize, rate: f64) -> ModelParams {
        ModelParams {
            virtual_channels: v,
            message_length: m,
            traffic_rate: rate,
            ..ModelParams::default()
        }
    }

    fn solve(spectrum: &Arc<TraversalSpectrum>, params: ModelParams) -> SpectrumResult {
        SpectrumModel::new(params, Arc::clone(spectrum)).solve()
    }

    /// V = 7 covers the escape-level floor of every spectrum above.
    fn sat(spectrum: &Arc<TraversalSpectrum>) -> f64 {
        saturation_rate(params(7, 32, 0.0), spectrum, 0.02)
    }

    #[test]
    fn zero_load_latency_equals_message_length_plus_mean_distance() {
        for spectrum in spectra() {
            for (v, m) in [(7, 32), (9, 64), (12, 32)] {
                let r = solve(&spectrum, params(v, m, 0.0));
                assert!(!r.saturated && r.converged);
                assert_eq!(r.topology, spectrum.topology_name());
                assert!((r.mean_network_latency - (m as f64 + r.mean_distance)).abs() < 1e-6);
                assert!((r.mean_latency - r.mean_network_latency).abs() < 1e-6);
                assert_eq!(r.source_waiting, 0.0);
                assert!((r.multiplexing - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn latency_is_monotone_in_load_until_saturation() {
        for spectrum in spectra() {
            let step = sat(&spectrum) / 20.0;
            let mut last = 0.0;
            let mut saturated_seen = false;
            for i in 1..=40 {
                let r = solve(&spectrum, params(7, 32, i as f64 * step));
                if r.saturated {
                    saturated_seen = true;
                    break;
                }
                assert!(r.mean_latency > last, "{}: latency must grow with load", r.topology);
                last = r.mean_latency;
            }
            assert!(saturated_seen, "the sweep must eventually saturate");
        }
    }

    #[test]
    fn more_virtual_channels_lower_latency_and_push_saturation_right() {
        for spectrum in spectra() {
            let rate = 0.7 * sat(&spectrum);
            let r7 = solve(&spectrum, params(7, 32, rate));
            let r9 = solve(&spectrum, params(9, 32, rate));
            let r12 = solve(&spectrum, params(12, 32, rate));
            assert!(!r7.saturated && !r9.saturated && !r12.saturated);
            assert!(r9.mean_latency <= r7.mean_latency + 1e-9);
            assert!(r12.mean_latency <= r9.mean_latency + 1e-9);
            let sat12 = saturation_rate(params(12, 32, 0.0), &spectrum, 0.02);
            assert!(sat12 >= sat(&spectrum) * 0.95, "{}", r7.topology);
        }
    }

    #[test]
    fn longer_messages_raise_latency_and_saturate_earlier() {
        for spectrum in spectra() {
            let sat32 = sat(&spectrum);
            let sat64 = saturation_rate(params(7, 64, 0.0), &spectrum, 0.02);
            assert!(sat64 < sat32 && sat64 > sat32 * 0.3, "{}", spectrum.topology_name());
            let rate = 0.3 * sat64;
            let m32 = solve(&spectrum, params(7, 32, rate));
            let m64 = solve(&spectrum, params(7, 64, rate));
            assert!(m64.mean_latency > m32.mean_latency + 20.0);
        }
    }

    #[test]
    fn plain_negative_hop_is_the_slowest_discipline() {
        // with the same V and load, plain negative-hop offers the least
        // choice per hop of the three adaptive schemes
        for spectrum in spectra() {
            let with = |discipline| ModelParams { discipline, ..params(7, 32, 0.0) };
            let rate = 0.6 * saturation_rate(with(ModelDiscipline::NHop), &spectrum, 0.02);
            let enhanced = solve(&spectrum, with(ModelDiscipline::EnhancedNbc).with_rate(rate));
            let nbc = solve(&spectrum, with(ModelDiscipline::Nbc).with_rate(rate));
            let nhop = solve(&spectrum, with(ModelDiscipline::NHop).with_rate(rate));
            assert!(!enhanced.saturated && !nbc.saturated && !nhop.saturated);
            assert!(nhop.mean_latency >= nbc.mean_latency - 1e-9);
            assert!(nhop.mean_latency >= enhanced.mean_latency - 1e-9);
            let sat_of = |d| saturation_rate(with(d), &spectrum, 0.03);
            let nhop_sat = sat_of(ModelDiscipline::NHop);
            assert!(nhop_sat <= sat_of(ModelDiscipline::Nbc) * 1.05);
            assert!(nhop_sat <= sat_of(ModelDiscipline::EnhancedNbc) * 1.05);
        }
    }

    #[test]
    fn deterministic_routing_is_slower_than_adaptive() {
        for spectrum in spectra() {
            let det =
                ModelParams { discipline: ModelDiscipline::Deterministic, ..params(7, 32, 0.0) };
            let rate = 0.7 * sat(&spectrum);
            let adaptive = solve(&spectrum, params(7, 32, rate));
            let deterministic = solve(&spectrum, det.with_rate(rate));
            assert!(!adaptive.saturated);
            if !deterministic.saturated {
                assert!(deterministic.mean_latency >= adaptive.mean_latency - 1e-9);
            }
            assert!(saturation_rate(det, &spectrum, 0.02) <= sat(&spectrum) * 1.05);
        }
    }

    #[test]
    fn channel_rate_follows_equation_three_and_multiplexing_stays_in_range() {
        for spectrum in spectra() {
            for fraction in [0.1, 0.5, 0.9] {
                let rate = fraction * sat(&spectrum);
                let r = solve(&spectrum, params(9, 32, rate));
                let expected = rate * r.mean_distance / spectrum.degree() as f64;
                assert!((r.channel_rate - expected).abs() < 1e-12);
                assert!(!r.saturated);
                assert!((1.0..=9.0).contains(&r.multiplexing), "V̄ = {}", r.multiplexing);
            }
        }
        assert_eq!(TraversalSpectrum::star(5).degree(), 4);
        assert_eq!(TraversalSpectrum::hypercube(7).degree(), 7);
    }

    #[test]
    fn larger_networks_have_higher_zero_load_latency() {
        for family in [
            [TraversalSpectrum::star(4), TraversalSpectrum::star(5), TraversalSpectrum::star(6)],
            [
                TraversalSpectrum::hypercube(6),
                TraversalSpectrum::hypercube(8),
                TraversalSpectrum::hypercube(10),
            ],
        ] {
            let zero: Vec<f64> = family
                .into_iter()
                .map(|s| solve(&Arc::new(s), params(8, 32, 0.0)).mean_network_latency)
                .collect();
            assert!(zero.windows(2).all(|w| w[0] < w[1]), "{zero:?}");
        }
    }

    #[test]
    fn warm_start_reaches_the_cold_fixed_point_with_fewer_iterations() {
        for spectrum in spectra() {
            let sat = sat(&spectrum);
            let seed = solve(&spectrum, params(7, 32, sat * 0.9));
            assert!(!seed.saturated);
            let model = SpectrumModel::new(params(7, 32, sat * 0.92), Arc::clone(&spectrum));
            let cold = model.solve();
            let warm = model.solve_from(&[seed.mean_network_latency]);
            assert!(!cold.saturated && !warm.saturated);
            let rel = (warm.mean_latency - cold.mean_latency).abs() / cold.mean_latency;
            assert!(rel < 1e-9, "warm and cold fixed points differ by {rel}");
            assert!(warm.iterations < cold.iterations, "{}", cold.topology);
        }
    }

    #[test]
    fn warm_started_sweep_matches_the_cold_sweep_with_fewer_iterations() {
        for spectrum in spectra() {
            let sat = sat(&spectrum);
            let rates: Vec<f64> = (1..=12).map(|i| sat * i as f64 / 10.0).collect();
            let mut seed: Vec<f64> = Vec::new();
            let (mut warm_iters, mut cold_iters) = (0, 0);
            for &rate in &rates {
                let model = SpectrumModel::new(params(7, 32, rate), Arc::clone(&spectrum));
                let warm = model.solve_from(&seed);
                let cold = model.solve();
                seed = vec![warm.mean_network_latency];
                assert_eq!(warm.saturated, cold.saturated);
                if !warm.saturated {
                    let rel = (warm.mean_latency - cold.mean_latency).abs() / cold.mean_latency;
                    assert!(rel < 1e-9, "rate {rate}: warm/cold differ by {rel}");
                }
                warm_iters += warm.iterations;
                cold_iters += cold.iterations;
            }
            assert!(warm_iters < cold_iters, "{warm_iters} vs {cold_iters}");
        }
    }

    #[test]
    fn solve_from_falls_back_to_cold_start_on_unusable_seeds() {
        for spectrum in spectra() {
            let model = SpectrumModel::new(params(7, 32, 0.5 * sat(&spectrum)), spectrum);
            let cold = model.solve();
            for seed in [&[][..], &[f64::INFINITY][..], &[f64::NAN][..], &[1.0][..]] {
                assert_eq!(model.solve_from(seed), cold);
            }
        }
    }

    /// [`saturation_rate`] with every probe started cold, as the bisection
    /// ran before its probes were warm-started.
    fn cold_saturation_rate(
        base: ModelParams,
        spectrum: &Arc<TraversalSpectrum>,
        tolerance: f64,
    ) -> f64 {
        let solves = |rate: f64| !solve(spectrum, base.with_rate(rate)).saturated;
        let m = base.message_length as f64;
        let (mut low, mut high) = if spectrum.is_closed_form_star() {
            (0.0, 1.0 / m)
        } else {
            (0.0, spectrum.degree() as f64 / (spectrum.mean_distance() * m))
        };
        while (high - low) / high.max(1e-12) > tolerance {
            let mid = 0.5 * (low + high);
            if solves(mid) {
                low = mid;
            } else {
                high = mid;
            }
        }
        low
    }

    #[test]
    fn warm_started_bisection_finds_the_cold_knee_bit_for_bit() {
        for spectrum in spectra() {
            for discipline in [
                ModelDiscipline::EnhancedNbc,
                ModelDiscipline::Nbc,
                ModelDiscipline::NHop,
                ModelDiscipline::Deterministic,
            ] {
                let floor = ModelParams::min_virtual_channels(discipline, spectrum.diameter());
                let base = ModelParams { discipline, ..params(floor, 32, 0.0) };
                // the tolerance the rate grids are bisected to
                let warm = saturation_rate(base, &spectrum, 1e-5);
                let cold = cold_saturation_rate(base, &spectrum, 1e-5);
                assert_eq!(
                    warm.to_bits(),
                    cold.to_bits(),
                    "{} {discipline:?}: warm {warm} vs cold {cold}",
                    spectrum.topology_name()
                );
            }
        }
    }

    #[test]
    fn saturation_rate_is_consistent_with_solves() {
        for spectrum in spectra() {
            let sat = sat(&spectrum);
            assert!(sat > 0.0);
            assert!(!solve(&spectrum, params(7, 32, sat * 0.9)).saturated);
            assert!(solve(&spectrum, params(7, 32, sat * 1.2)).saturated);
        }
    }

    #[test]
    fn heavy_load_is_reported_as_saturated() {
        for spectrum in spectra() {
            let r = solve(&spectrum, params(7, 32, 0.5));
            assert!(r.saturated && !r.converged);
            assert!(r.mean_latency.is_infinite());
        }
    }

    #[test]
    fn a_solve_that_runs_out_of_iterations_is_not_converged() {
        // right at the knee the iteration stops contracting: the solver
        // spends its whole budget without meeting its tolerance, so the
        // point is not saturated, but its latency is no answer either.
        // KNEE is `saturation_rate(ModelParams::default(), T8, 1e-13)`,
        // pinned because that bisection takes half a minute in a debug build
        const KNEE: f64 = 0.014_881_188_037_297_724;
        let spectrum = Arc::new(TraversalSpectrum::new(&Torus::new(8)));
        assert!(solve(&spectrum, ModelParams::default().with_rate(KNEE * (1.0 + 1e-9))).saturated);
        let r = solve(&spectrum, ModelParams::default().with_rate(KNEE));
        assert!(!r.saturated);
        assert!(!r.converged);
        assert_eq!(r.iterations, latency_solver().max_iterations);
        assert!(r.residual >= latency_solver().tolerance && r.residual.is_finite());
        // an ordinary point converges with a residual under the tolerance
        let fine = solve(&spectrum, ModelParams::default().with_rate(KNEE * 0.5));
        assert!(fine.converged && fine.residual < latency_solver().tolerance);
    }

    #[test]
    fn large_spectra_solve_in_the_model_only_regime() {
        // Q10/Q13 and S7: sizes the simulator cannot reach
        for spectrum in [
            TraversalSpectrum::hypercube(10),
            TraversalSpectrum::hypercube(13),
            TraversalSpectrum::star(7),
        ] {
            let r = solve(&Arc::new(spectrum), params(8, 32, 0.001));
            assert!(!r.saturated && r.converged, "{} must solve at light load", r.topology);
            assert!(r.mean_latency > 32.0 + r.mean_distance);
        }
    }

    #[test]
    fn ring_solves_at_light_load() {
        let r = SpectrumModel::for_topology(params(4, 32, 0.001), &Ring::new(8)).solve();
        assert!(!r.saturated);
        assert!(r.mean_latency > 32.0 + r.mean_distance);
    }

    #[test]
    #[should_panic(expected = "invalid parameters for T12")]
    fn too_few_virtual_channels_are_rejected() {
        // T12: diameter 12 → 7 levels → Enhanced-Nbc needs V ≥ 8
        let _ = SpectrumModel::for_topology(params(7, 32, 0.001), &Torus::new(12));
    }
}
