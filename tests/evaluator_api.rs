//! Integration tests for the unified evaluation API: warm-started sweeps
//! must reproduce cold-started sweeps (while spending fewer fixed-point
//! iterations near the saturation knee), the `SweepRunner` must produce
//! byte-identical reports for any thread count, for both backends and any
//! replicate fan-out, the seed → replicate derivation must be stable
//! across runs, and a scenario family must share one spectrum build.

use std::sync::{Arc, Barrier};

use star_wormhole::{
    encode_estimate, load_rate_grid, replicate_seed, Discipline, Evaluator as _, ModelBackend,
    ModelParams, PointEstimate, Scenario, ScenarioModel, ScenarioSpectrum, SimBackend, SimBudget,
    SpectrumModel, SweepRunner, SweepSpec, TopologyKind, TraversalSpectrum,
};

/// The acceptance sweep: the paper's `S5`, `V = 6`, `M = 32` curve sampled
/// densely up through the saturation knee (the model saturates near
/// `λ_g ≈ 0.0155` for this configuration).
fn s5_rates() -> Vec<f64> {
    (1..=34).map(|i| 0.0005 * i as f64).collect()
}

fn s5_scenario() -> Scenario {
    Scenario::star(5).with_virtual_channels(6).with_message_length(32)
}

/// The S5 curve solved warm-started and cold-started (each rate on one
/// prebuilt model), point for point.
fn warm_and_cold() -> (Vec<PointEstimate>, Vec<PointEstimate>) {
    let (scenario, rates) = (s5_scenario(), s5_rates());
    let backend = ModelBackend::new();
    let model = ScenarioModel::build(&scenario, &ScenarioSpectrum::build(&scenario)).unwrap();
    (
        backend.evaluate_sweep(&scenario, &rates),
        rates.iter().map(|&rate| backend.estimate_on(&scenario.at(rate), &model)).collect(),
    )
}

#[test]
fn warm_started_sweep_matches_cold_start_point_for_point() {
    let (warm, cold) = warm_and_cold();
    assert_eq!(warm.len(), cold.len());
    let mut compared = 0;
    for (w, c) in warm.iter().zip(&cold) {
        let rate = w.point.traffic_rate;
        assert_eq!(w.saturated, c.saturated, "warm and cold must agree on saturation at {rate}");
        if !w.saturated {
            let rel = (w.mean_latency - c.mean_latency).abs() / c.mean_latency;
            assert!(
                rel < 1e-9,
                "rate {rate}: warm {} vs cold {} differ by {rel}",
                w.mean_latency,
                c.mean_latency
            );
            compared += 1;
        }
    }
    assert!(compared >= 10, "the sweep must compare a real span below saturation");
    assert!(warm.iter().any(|p| p.saturated), "the sweep must reach the knee");
}

#[test]
fn warm_start_spends_strictly_fewer_iterations_near_the_knee() {
    let (warm, cold) = warm_and_cold();
    let warm_total: usize = warm.iter().filter_map(PointEstimate::iterations).sum();
    let cold_total: usize = cold.iter().filter_map(PointEstimate::iterations).sum();
    assert!(
        warm_total < cold_total,
        "warm-started sweep must spend fewer total iterations ({warm_total} vs {cold_total})"
    );
    // near the knee (the last unsaturated points) every warm solve must be
    // strictly cheaper than its cold counterpart
    let knee: Vec<(usize, usize)> = warm
        .iter()
        .zip(&cold)
        .filter(|(w, _)| !w.saturated)
        .map(|(w, c)| (w.iterations().unwrap(), c.iterations().unwrap()))
        .collect();
    let tail = &knee[knee.len().saturating_sub(3)..];
    for &(w_iters, c_iters) in tail {
        assert!(
            w_iters < c_iters,
            "near the knee warm start must win ({w_iters} vs {c_iters} iterations)"
        );
    }
}

#[test]
fn model_backend_through_the_runner_matches_the_core_sweep() {
    let sweep = SweepSpec::new("fig1a-M32", s5_scenario(), s5_rates());
    let report = SweepRunner::with_threads(2).run_one(&ModelBackend::new(), &sweep);
    // the same warm-started chain, straight through the core model
    let spectrum = Arc::new(TraversalSpectrum::star(5));
    let mut seed = Vec::new();
    let core: Vec<_> = s5_rates()
        .into_iter()
        .map(|rate| {
            let params = ModelParams { traffic_rate: rate, ..ModelParams::default() };
            let result = SpectrumModel::new(params, Arc::clone(&spectrum)).solve_from(&seed);
            seed = vec![result.mean_network_latency];
            result
        })
        .collect();
    assert_eq!(report.estimates.len(), core.len());
    for (est, result) in report.estimates.iter().zip(&core) {
        assert_eq!(est.saturated, result.saturated);
        if !est.saturated {
            assert!((est.mean_latency - result.mean_latency).abs() < 1e-12);
        }
    }
}

#[test]
fn model_sharding_is_deterministic_across_thread_counts() {
    // several independent curves so multiple workers actually get work
    let sweeps: Vec<SweepSpec> = [6usize, 9, 12]
        .iter()
        .map(|&v| {
            SweepSpec::new(
                format!("V={v}"),
                s5_scenario().with_virtual_channels(v),
                (1..=10).map(|i| 0.0012 * i as f64).collect(),
            )
        })
        .collect();
    let backend = ModelBackend::new();
    let serial = SweepRunner::with_threads(1).run(&backend, &sweeps);
    let sharded = SweepRunner::with_threads(4).run(&backend, &sweeps);
    let oversubscribed = SweepRunner::with_threads(17).run(&backend, &sweeps);
    assert_eq!(serial, sharded);
    assert_eq!(serial, oversubscribed);
    assert_eq!(
        format!("{serial:?}"),
        format!("{sharded:?}"),
        "reports must be byte-identical for any thread count"
    );
}

#[test]
fn sim_sharding_is_deterministic_across_thread_counts() {
    // a small network so the flit-level runs stay quick; two curves so the
    // point-granularity sharding has four independent units to scatter
    for seed_base in [1u64, 2] {
        let sweeps: Vec<SweepSpec> = [16usize, 24]
            .iter()
            .map(|&m| {
                SweepSpec::new(
                    format!("M{m}"),
                    Scenario::star(4).with_message_length(m).with_seed_base(seed_base),
                    vec![0.003, 0.006],
                )
            })
            .collect();
        let backend = SimBackend::new(SimBudget::Quick);
        let serial = SweepRunner::with_threads(1).run(&backend, &sweeps);
        let sharded = SweepRunner::with_threads(4).run(&backend, &sweeps);
        assert_eq!(serial, sharded);
        assert_eq!(
            format!("{serial:?}"),
            format!("{sharded:?}"),
            "sim reports must be byte-identical for any thread count (seed base {seed_base})"
        );
    }
}

#[test]
fn replicate_aggregation_is_byte_identical_for_one_vs_many_threads() {
    // the tentpole contract: R replicates per point are sharded as
    // independent (point × replicate) work items, and any thread count —
    // undersubscribed, matched, oversubscribed — reassembles them into the
    // same bytes the sequential evaluation produces
    let scenario = Scenario::star(4).with_message_length(16).with_replicates(3).with_seed_base(41);
    let sweep = SweepSpec::new("r3", scenario.clone(), vec![0.003, 0.006]);
    let backend = SimBackend::new(SimBudget::Quick);
    let sequential: Vec<_> =
        sweep.rates.iter().map(|&rate| backend.evaluate(&scenario.at(rate))).collect();
    for threads in [1usize, 2, 4, 9] {
        let report = SweepRunner::with_threads(threads).run_one(&backend, &sweep);
        assert_eq!(report.estimates, sequential, "threads = {threads}");
        assert_eq!(
            format!("{:?}", report.estimates),
            format!("{sequential:?}"),
            "replicate aggregation must be byte-identical (threads = {threads})"
        );
        for estimate in &report.estimates {
            assert_eq!(estimate.replicates(), 3);
            assert!(estimate.latency_ci95() > 0.0, "3 seeds must yield a real interval");
        }
    }
}

#[test]
fn seed_to_replicate_derivation_is_stable_across_runs() {
    // the derivation is pure: recomputing yields the same seeds, and the
    // per-replicate simulations they drive reproduce bit for bit
    for base in [0u64, 41, u64::MAX] {
        for replicate in 0..4 {
            assert_eq!(replicate_seed(base, replicate), replicate_seed(base, replicate));
        }
    }
    let backend = SimBackend::new(SimBudget::Quick);
    let point = Scenario::star(4).with_message_length(16).with_seed_base(41).at(0.003);
    let first = backend.evaluate_replicate(&point, 1);
    let again = backend.evaluate_replicate(&point, 1);
    assert_eq!(first, again, "replicate 1 must be the same simulation every run");
    let other = backend.evaluate_replicate(&point, 2);
    assert_ne!(
        first.mean_latency, other.mean_latency,
        "different replicate indices must drive different RNG streams"
    );
    // the derived seeds are what lands in the per-replicate reports
    let report = first.sim_report().unwrap();
    assert_eq!(report.runs.len(), 1);
}

#[test]
fn both_backends_answer_the_same_point_within_tolerance() {
    // the backend-swap contract: one operating point, two backends, one
    // answer within the validation tolerance used throughout the paper; the
    // simulated side is a replicate mean with its CI in the failure message
    let scenario = Scenario::star(4).with_message_length(16).with_replicates(3).with_seed_base(101);
    let model = SweepRunner::with_threads(1)
        .run_one(&ModelBackend::new(), &SweepSpec::new("m", scenario.clone(), vec![0.004]));
    let sim = SweepRunner::with_threads(1)
        .run_one(&SimBackend::new(SimBudget::Quick), &SweepSpec::new("s", scenario, vec![0.004]));
    let m = &model.estimates[0];
    let s = &sim.estimates[0];
    assert!(!m.saturated && !s.saturated);
    let err = (m.mean_latency - s.mean_latency).abs() / s.mean_latency;
    assert!(
        err < 0.15,
        "model {} vs sim {} (over {} replicates) differ by {err}",
        m.mean_latency,
        s.latency_stats.pretty(),
        s.replicates()
    );
}

#[test]
fn a_scenario_family_shares_one_spectrum_build() {
    let base = Scenario::star(5);
    let built = ScenarioSpectrum::build(&base);
    for variant in [
        base.clone(),
        base.clone().with_discipline(Discipline::Nbc),
        base.clone().with_virtual_channels(9),
        base.clone().with_message_length(16),
        base.at(0.004).scenario,
    ] {
        assert!(
            Arc::ptr_eq(built.spectrum(), ScenarioSpectrum::build(&variant).spectrum()),
            "{} rebuilt its spectrum",
            variant.label()
        );
    }
}

#[test]
fn a_fresh_topology_value_builds_its_own_spectrum_with_identical_bits() {
    let backend = ModelBackend::new();
    for (kind, size) in [(TopologyKind::Star, 7), (TopologyKind::Torus, 12)] {
        let shared = kind.scenario(size);
        let diameter = shared.topology().diameter();
        for discipline in Discipline::ALL {
            let floor = ModelParams::min_virtual_channels(discipline.model_discipline(), diameter);
            let configure = |scenario: Scenario| {
                scenario.with_discipline(discipline).with_virtual_channels(floor + 1)
            };
            let (reused, fresh) = (configure(shared.clone()), configure(kind.scenario(size)));
            if !backend.supports(&reused) {
                continue;
            }
            assert!(!Arc::ptr_eq(
                ScenarioSpectrum::build(&reused).spectrum(),
                ScenarioSpectrum::build(&fresh).spectrum()
            ));
            let (grid, fresh_grid) = (load_rate_grid(&reused, 6), load_rate_grid(&fresh, 6));
            let bits = |rates: &[f64]| rates.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&grid), bits(&fresh_grid), "{}", reused.label());
            let encode = |estimates: Vec<PointEstimate>| {
                estimates.iter().map(encode_estimate).collect::<Vec<_>>()
            };
            assert_eq!(
                encode(backend.evaluate_sweep(&reused, &grid)),
                encode(backend.evaluate_sweep(&fresh, &grid)),
                "{}",
                reused.label()
            );
        }
    }
}

#[test]
fn threads_racing_first_use_see_one_spectrum() {
    let scenario = Scenario::torus(10);
    let barrier = Barrier::new(2);
    let [a, b] = std::thread::scope(|scope| {
        let race = || {
            let scenario = scenario.clone();
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                Arc::clone(ScenarioSpectrum::build(&scenario).spectrum())
            })
        };
        [race(), race()].map(|handle| handle.join().unwrap())
    });
    assert!(Arc::ptr_eq(&a, &b));
    assert!(Arc::ptr_eq(&a, ScenarioSpectrum::build(&scenario).spectrum()));
}
