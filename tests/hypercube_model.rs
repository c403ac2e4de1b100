//! Cross-validation of the analytical hypercube model against the flit-level
//! simulator at small sizes (`Q4`–`Q6`, plus light-load spot checks at `Q8`
//! and `Q10` on the event engine), mirroring `tests/model_vs_sim.rs`
//! for the star graph: the same operating point answered by both backends
//! must agree within the star validation's tolerance band (10% at light
//! load, 25% at moderate load), for both the adaptive scheme and the
//! dimension-order baseline.

use star_wormhole::{
    Discipline, Evaluator as _, ModelBackend, PointEstimate, Scenario, ScenarioModel,
    ScenarioSpectrum, SimBackend, SimBudget, SweepRunner, SweepSpec,
};

/// A `Q_d` scenario with short messages so the simulated points stay fast in
/// a debug test run (single replicate — the star-side validation exercises
/// the replicate-mean path).
fn cube(dims: usize, discipline: Discipline) -> Scenario {
    Scenario::hypercube(dims).with_message_length(16).with_discipline(discipline)
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
fn model_matches_simulation_at_light_load_q4_to_q6() {
    // ~3% channel utilisation, the regime the star light-load validation
    // runs in (S4 at λ_g = 0.003), held to the same 10% band
    let model = ModelBackend::new();
    let sim = SimBackend::new(SimBudget::Quick);
    for dims in 4..=6 {
        let scenario = cube(dims, Discipline::EnhancedNbc).with_seed_base(401);
        let point = scenario.at(rate_at_utilisation(&scenario, 0.03));
        let m = model.evaluate(&point);
        let s = sim.evaluate(&point);
        assert!(!m.saturated && !s.saturated, "Q{dims} must not saturate at light load");
        let err = relative_error(&m, &s);
        assert!(
            err < 0.10,
            "Q{dims} light load: model {} vs sim {} ({:.1}%)",
            m.mean_latency,
            s.mean_latency,
            err * 100.0
        );
    }
}

#[test]
fn model_tracks_simulation_at_light_load_q8_on_the_event_engine() {
    // One size class above the historical Q4–Q6 ceiling, affordable in a
    // debug run now that the event-driven simulator only pays for active
    // channels.  The closed form's fixed per-hop overhead
    // compounds with the dimension, so at d = 8 the model sits a systematic
    // ~12% above the simulator even as load → 0 (seed-independent); the band
    // is 15% to document that accuracy, not the 10% the small cubes hold.
    let model = ModelBackend::new();
    let sim = SimBackend::new(SimBudget::Quick);
    let scenario = cube(8, Discipline::EnhancedNbc).with_seed_base(801);
    let point = scenario.at(rate_at_utilisation(&scenario, 0.03));
    let m = model.evaluate(&point);
    let s = sim.evaluate(&point);
    assert!(!m.saturated && !s.saturated, "Q8 must not saturate at light load");
    let err = relative_error(&m, &s);
    assert!(
        err < 0.15,
        "Q8 light load: model {} vs sim {} ({:.1}%)",
        m.mean_latency,
        s.mean_latency,
        err * 100.0
    );
}

#[test]
fn model_tracks_simulation_at_light_load_q10_on_the_event_engine() {
    // The largest cube the debug test budget affords (1,024 nodes), reachable
    // only because the event engine's dense active sets and stage skipping
    // keep the per-cycle cost proportional to live work.  Q10's diameter
    // requires ⌊10/2⌋ + 1 = 6 escape levels, so V = 7 keeps the default's
    // shape of exactly one adaptive channel.  The model's fixed per-hop
    // overhead holds the same systematic ~12% overestimate here as at d = 8
    // (11.8% observed, seed-independent), so the same 15% band documents the
    // d = 10 accuracy.
    let model = ModelBackend::new();
    let sim = SimBackend::new(SimBudget::Quick);
    let scenario = cube(10, Discipline::EnhancedNbc).with_virtual_channels(7).with_seed_base(1001);
    let point = scenario.at(rate_at_utilisation(&scenario, 0.03));
    let m = model.evaluate(&point);
    let s = sim.evaluate(&point);
    assert!(!m.saturated && !s.saturated, "Q10 must not saturate at light load");
    let err = relative_error(&m, &s);
    assert!(
        err < 0.15,
        "Q10 light load: model {} vs sim {} ({:.1}%)",
        m.mean_latency,
        s.mean_latency,
        err * 100.0
    );
}

#[test]
fn model_matches_simulation_at_moderate_load_q4_to_q6_both_routings() {
    // ~10% channel utilisation, matching the star moderate-load validation's
    // regime and 25% band — for the adaptive scheme *and* the dimension-order
    // baseline (which the star model does not even cover)
    let model = ModelBackend::new();
    let sim = SimBackend::new(SimBudget::Quick);
    for dims in 4..=6 {
        for discipline in [Discipline::EnhancedNbc, Discipline::Deterministic] {
            let scenario = cube(dims, discipline).with_seed_base(402);
            let point = scenario.at(rate_at_utilisation(&scenario, 0.10));
            let m = model.evaluate(&point);
            let s = sim.evaluate(&point);
            assert!(!m.saturated && !s.saturated, "Q{dims}/{discipline:?} must not saturate");
            let err = relative_error(&m, &s);
            assert!(
                err < 0.25,
                "Q{dims}/{discipline:?} moderate load: model {} vs sim {} ({:.1}%)",
                m.mean_latency,
                s.mean_latency,
                err * 100.0
            );
        }
    }
}

#[test]
fn both_backends_show_latency_growth_with_load_on_the_cube() {
    let model = ModelBackend::new();
    let sim = SimBackend::new(SimBudget::Quick);
    let scenario = cube(5, Discipline::EnhancedNbc).with_seed_base(403);
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
fn warm_started_hypercube_sweep_equals_cold_start() {
    // the warm-start contract carried over from the star path: same fixed
    // points (to solver tolerance), strictly fewer total iterations
    let scenario = cube(6, Discipline::EnhancedNbc);
    let rates: Vec<f64> =
        (1..=8).map(|i| rate_at_utilisation(&scenario, 0.08 * i as f64)).collect();
    let model = ScenarioModel::build(&scenario, &ScenarioSpectrum::build(&scenario)).unwrap();
    let cold: Vec<_> = rates
        .iter()
        .map(|&rate| ModelBackend::new().estimate_on(&scenario.at(rate), &model))
        .collect();
    let spec = SweepSpec::new("q6", scenario, rates);
    let warm = SweepRunner::with_threads(1).run_one(&ModelBackend::new(), &spec);
    let mut warm_iterations = 0;
    let mut cold_iterations = 0;
    for (w, c) in warm.estimates.iter().zip(&cold) {
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
