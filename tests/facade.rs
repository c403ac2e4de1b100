//! Facade-surface test: the `star_wormhole` root re-exports documented in the
//! crate docs must keep resolving, and the root doc example's operating point
//! (`S5`, 9 virtual channels, M = 32 flits, λ_g = 0.005) must keep solving
//! unsaturated.  This is the doctest's contract restated as an integration
//! test, so a regression fails `cargo test` even if doctests are skipped.

use star_wormhole::{
    replicate_seed, CiTarget, DeterministicMinimal, Discipline, EnhancedNbc, Evaluator as _,
    Hypercube, ModelBackend, ModelDiscipline, ModelParams, ModelParamsError, NHop, Nbc,
    Permutation, ReplicateStats, Ring, RoutingAlgorithm, RunReport, Scenario, ScenarioSpectrum,
    SimBackend, SimBudget, SimConfig, SpectrumModel, SpectrumResult, StarGraph, SweepRunner,
    SweepSpec, Topology, TopologyKind, TopologyProperties, Torus, TrafficPattern,
    TraversalSpectrum,
};

/// The root doc example, restated: the documented sweep must solve
/// unsaturated with a monotone latency curve.
#[test]
fn root_doc_example_sweep_solves_unsaturated() {
    let scenario = Scenario::star(5).with_virtual_channels(9);
    let sweep = SweepSpec::new("demo", scenario, vec![0.002, 0.004, 0.006]);
    let report = SweepRunner::new().run_one(&ModelBackend::new(), &sweep);
    assert_eq!(report.estimates.len(), 3);
    assert!(report.estimates.iter().all(|e| !e.saturated));
    let curve = report.latency_curve();
    assert!(curve.windows(2).all(|w| w[0] < w[1]));
    // the single-point entry keeps working too
    let params = ModelParams { virtual_channels: 9, traffic_rate: 0.005, ..ModelParams::default() };
    let result: SpectrumResult =
        SpectrumModel::new(params, std::sync::Arc::new(TraversalSpectrum::star(5))).solve();
    assert!(!result.saturated, "the documented quickstart point must be below saturation");
    assert!(result.mean_latency.is_finite());
    assert!(result.mean_latency > 32.0 + result.mean_distance);
}

/// The unified-evaluator surface re-exported at the root must compose: both
/// backends answer the same scenario type.
#[test]
fn evaluator_reexports_compose() {
    let scenario = Scenario::star(4)
        .with_discipline(Discipline::EnhancedNbc)
        .with_message_length(16)
        .with_pattern(TrafficPattern::Uniform);
    assert_eq!(scenario.network_label(), "S4");
    assert_eq!(scenario, TopologyKind::Star.scenario(4).with_message_length(16));
    let model = ModelBackend::new();
    assert!(model.supports(&scenario));
    let estimate = model.evaluate(&scenario.at(0.003));
    assert!(!estimate.saturated);
    assert_eq!(estimate.latency_ci95(), 0.0, "the model's interval is degenerate");
    let sim = SimBackend::new(SimBudget::Quick).with_ci_target(CiTarget::new(0.2));
    assert!(sim.supports(&Scenario::hypercube(3)));
    // the topology-plugin surface travels through the facade: a torus
    // scenario answered by the generic spectrum model, no closed form
    let torus = Scenario::torus(4).with_message_length(16);
    assert!(model.supports(&torus));
    let params: ModelParams = torus.model_params(0.002).expect("valid pairing").expect("modelled");
    let spectrum = TraversalSpectrum::new(torus.topology().as_ref());
    assert_eq!(spectrum.topology_name(), "T4");
    let result = SpectrumModel::new(params, std::sync::Arc::new(spectrum)).solve();
    assert!(!result.saturated);
    assert_eq!(Torus::new(4).node_count(), 16);
    assert_eq!(Ring::new(8).node_count(), 8);
    // the replicate-statistics surface travels through the facade
    let stats = ReplicateStats::from_samples(&[40.0, 44.0]);
    assert!(stats.ci95 > 0.0);
    assert_ne!(replicate_seed(7, 0), replicate_seed(7, 1));
    assert_eq!(RunReport::csv_header().split(',').count(), 10);
    // non-panicking validation travels through the facade: S2 is a single
    // link, out of the model's range
    let err: ModelParamsError =
        Scenario::star(2).model_params(0.001).expect_err("S2 is out of model range");
    assert!(err.to_string().contains("at least 3 nodes"));
    assert_eq!(
        ScenarioSpectrum::build(&Scenario::star(5)).spectrum().topology_name(),
        "S5",
        "star scenarios get the closed-form spectrum"
    );
}

/// Every module alias documented in the crate root must resolve.
#[test]
fn module_aliases_resolve() {
    assert_eq!(star_wormhole::graph::factorial(5), 120);
    let _ = star_wormhole::queueing::mg1_waiting_time(0.001, 30.0, 30.0);
    let layout = star_wormhole::routing::VirtualChannelLayout { adaptive: 2, escape_levels: 4 };
    assert_eq!(layout.total(), 6);
    let _ = star_wormhole::sim::TrafficPattern::Uniform;
    let _ = star_wormhole::model::ModelDiscipline::EnhancedNbc;
    let _ = ModelDiscipline::Deterministic;
    let _ = star_wormhole::workloads::SimBudget::Quick;
}

/// The flat re-exports must stay usable together: build every routing
/// algorithm against a topology obtained through the facade.
#[test]
fn flat_reexports_compose() {
    let s4 = StarGraph::new(4);
    let props = TopologyProperties::of(&s4);
    assert_eq!(props.nodes, 24);
    let algorithms: Vec<Box<dyn RoutingAlgorithm>> = vec![
        Box::new(EnhancedNbc::for_topology(&s4, 6)),
        Box::new(Nbc::for_topology(&s4, 6)),
        Box::new(NHop::for_topology(&s4, 6)),
        Box::new(DeterministicMinimal::for_topology(&s4, 6)),
    ];
    for algo in &algorithms {
        assert_eq!(algo.virtual_channels(), 6);
    }
    let q5 = Hypercube::at_least(s4.node_count());
    assert!(q5.node_count() >= s4.node_count());
    let p = Permutation::identity(4);
    assert_eq!(p.distance_to_identity(), 0);
    let _ = SimConfig::builder();
    let _ = SimBudget::Quick;
    let _ = TrafficPattern::Uniform;
}
