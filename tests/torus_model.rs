//! Cross-validation of the generic traversal-spectrum model against the
//! flit-level simulator on the torus — a topology with no closed-form
//! spectrum in this workspace, so every analytical answer here flows through
//! the BFS census of `TraversalSpectrum` and the `SpectrumModel` solver.  The
//! same operating point answered by both backends must agree within the
//! tolerance bands of the star and hypercube validations (10% at light
//! load, 25% at moderate load), for the adaptive scheme and the
//! deterministic baseline.

use std::sync::Arc;

use star_wormhole::{
    saturation_rate, Discipline, Evaluator as _, ModelBackend, PointEstimate, Scenario, SimBackend,
    SimBudget, SweepRunner, SweepSpec, TraversalSpectrum,
};

/// A `T_k` scenario with short messages so the simulated points stay fast in
/// a debug test run (single replicate — the star-side validation exercises
/// the replicate-mean path).
fn torus(side: usize, discipline: Discipline) -> Scenario {
    Scenario::torus(side).with_message_length(16).with_discipline(discipline)
}

/// The generation rate that targets channel utilisation `u` on the scenario's
/// topology (`λ_g = u·degree/(d̄·M)`).
fn rate_at_utilisation(scenario: &Scenario, u: f64) -> f64 {
    let topology = scenario.topology();
    u * topology.degree() as f64 / (topology.mean_distance() * scenario.message_length as f64)
}

fn relative_error(model: &PointEstimate, sim: &PointEstimate) -> f64 {
    (model.mean_latency - sim.mean_latency).abs() / sim.mean_latency
}

#[test]
fn model_matches_simulation_at_light_load_t4_to_t8() {
    // ~3% channel utilisation, the regime the star light-load validation
    // runs in, held to the same 10% band.  T8 (64 nodes) rides along now
    // that the event-driven simulator only pays for active channels.
    let model = ModelBackend::new();
    let sim = SimBackend::new(SimBudget::Quick);
    for side in [4usize, 6, 8] {
        let scenario = torus(side, Discipline::EnhancedNbc).with_seed_base(501);
        let point = scenario.at(rate_at_utilisation(&scenario, 0.03));
        let m = model.evaluate(&point);
        let s = sim.evaluate(&point);
        assert!(!m.saturated && !s.saturated, "T{side} must not saturate at light load");
        let err = relative_error(&m, &s);
        assert!(
            err < 0.10,
            "T{side} light load: model {} vs sim {} ({:.1}%)",
            m.mean_latency,
            s.mean_latency,
            err * 100.0
        );
    }
}

#[test]
fn model_matches_simulation_at_moderate_load_both_disciplines() {
    // ~10% channel utilisation, matching the star and hypercube
    // moderate-load validations' regime and 25% band — for the adaptive
    // scheme *and* the deterministic baseline
    let model = ModelBackend::new();
    let sim = SimBackend::new(SimBudget::Quick);
    for side in [4usize, 6] {
        for discipline in [Discipline::EnhancedNbc, Discipline::Deterministic] {
            let scenario = torus(side, discipline).with_seed_base(502);
            let point = scenario.at(rate_at_utilisation(&scenario, 0.10));
            let m = model.evaluate(&point);
            let s = sim.evaluate(&point);
            assert!(!m.saturated && !s.saturated, "T{side}/{discipline:?} must not saturate");
            let err = relative_error(&m, &s);
            assert!(
                err < 0.25,
                "T{side}/{discipline:?} moderate load: model {} vs sim {} ({:.1}%)",
                m.mean_latency,
                s.mean_latency,
                err * 100.0
            );
        }
    }
}

#[test]
fn both_backends_show_latency_growth_with_load_on_the_torus() {
    let model = ModelBackend::new();
    let sim = SimBackend::new(SimBudget::Quick);
    let scenario = torus(6, Discipline::EnhancedNbc).with_seed_base(503);
    let mut last_model = 0.0;
    let mut last_sim = 0.0;
    for u in [0.10, 0.25, 0.40] {
        let point = scenario.at(rate_at_utilisation(&scenario, u));
        let m = model.evaluate(&point);
        let s = sim.evaluate(&point);
        assert!(!m.saturated && !s.saturated, "utilisation {u} unexpectedly saturated");
        assert!(m.mean_latency > last_model);
        assert!(s.mean_latency > last_sim);
        last_model = m.mean_latency;
        last_sim = s.mean_latency;
    }
}

#[test]
fn warm_started_torus_sweep_equals_cold_start() {
    // the warm-start contract on a BFS-census spectrum: same
    // fixed points (to solver tolerance), strictly fewer total iterations.
    // The grid clusters just below the saturation knee — far below it the
    // torus fixed point barely moves between rates and a warm seed saves
    // nothing, so the iteration win is only observable near the knee
    let scenario = torus(6, Discipline::EnhancedNbc);
    let params = scenario.model_params(0.0).expect("valid pairing").expect("modelled");
    let spectrum = Arc::new(TraversalSpectrum::new(scenario.topology().as_ref()));
    let knee = saturation_rate(params, &spectrum, 0.02);
    let rates: Vec<f64> = (1..=8).map(|i| knee * (0.60 + 0.04 * i as f64)).collect();
    let spec = SweepSpec::new("t6", scenario, rates);
    let runner = SweepRunner::with_threads(1);
    let warm = runner.run_one(&ModelBackend::new(), &spec);
    let cold = runner.run_one(&ModelBackend::cold(), &spec);
    let mut warm_iterations = 0;
    let mut cold_iterations = 0;
    for (w, c) in warm.estimates.iter().zip(&cold.estimates) {
        assert_eq!(w.saturated, c.saturated);
        if !w.saturated {
            let rel = (w.mean_latency - c.mean_latency).abs() / c.mean_latency;
            assert!(rel < 1e-9, "warm/cold fixed points differ by {rel}");
        }
        warm_iterations += w.iterations().unwrap();
        cold_iterations += c.iterations().unwrap();
    }
    assert!(
        warm_iterations < cold_iterations,
        "warm-started sweep must use fewer iterations ({warm_iterations} vs {cold_iterations})"
    );
}
