//! Cross-crate integration tests: the analytical model (`star-core`) against
//! the flit-level simulator (`star-sim`) on small networks, mirroring the
//! validation methodology of the paper's Section 5 at a scale that stays fast
//! in a debug test run.
//!
//! The simulated side of every tolerance check is a **replicate mean**: each
//! operating point runs three independently seeded replicates (seeds derived
//! from the base seed), so no band is anchored to one arbitrary RNG stream,
//! and every failure message reports the across-replicate 95% confidence
//! interval alongside the mean.

use std::sync::Arc;

use star_wormhole::{
    EnhancedNbc, ModelParams, ReplicateReport, ReplicateRun, SimConfig, SpectrumModel,
    SpectrumResult, StarGraph, Topology as _, TrafficPattern, TraversalSpectrum,
};

/// Replicates per simulated operating point.
const REPLICATES: usize = 3;

fn simulate(symbols: usize, v: usize, m: usize, rate: f64, seed_base: u64) -> ReplicateReport {
    let topology = Arc::new(StarGraph::new(symbols));
    let routing = Arc::new(EnhancedNbc::for_topology(topology.as_ref(), v));
    let config = SimConfig::builder()
        .message_length(m)
        .traffic_rate(rate)
        .warmup_cycles(3_000)
        .measured_messages(3_500)
        .max_cycles(400_000)
        .seed(seed_base)
        .build();
    ReplicateRun::new(topology, routing, config, TrafficPattern::Uniform, REPLICATES).run()
}

fn model(symbols: usize, v: usize, m: usize, rate: f64) -> SpectrumResult {
    let params = ModelParams {
        virtual_channels: v,
        message_length: m,
        traffic_rate: rate,
        ..ModelParams::default()
    };
    SpectrumModel::new(params, Arc::new(TraversalSpectrum::star(symbols))).solve()
}

#[test]
fn model_matches_simulation_at_light_load_s4() {
    let rate = 0.003;
    let m = model(4, 6, 16, rate);
    let s = simulate(4, 6, 16, rate, 101);
    assert!(!m.saturated);
    assert!(!s.saturated);
    let err = (m.mean_latency - s.latency.mean).abs() / s.latency.mean;
    assert!(
        err < 0.10,
        "light-load error must be small: model {} vs sim {} over {} replicates ({:.1}%)",
        m.mean_latency,
        s.latency.pretty(),
        s.replicates(),
        err * 100.0
    );
}

#[test]
fn model_matches_simulation_at_moderate_load_s4() {
    let rate = 0.015;
    let m = model(4, 6, 16, rate);
    let s = simulate(4, 6, 16, rate, 202);
    assert!(!m.saturated && !s.saturated);
    let err = (m.mean_latency - s.latency.mean).abs() / s.latency.mean;
    assert!(
        err < 0.25,
        "moderate-load error should stay within 25%: model {} vs sim {} over {} replicates \
         ({:.1}%)",
        m.mean_latency,
        s.latency.pretty(),
        s.replicates(),
        err * 100.0
    );
}

#[test]
fn model_and_simulation_agree_on_network_latency_split() {
    // Below saturation the network latency (excluding source queueing) should
    // also track between model and simulator.
    let rate = 0.01;
    let m = model(4, 6, 16, rate);
    let s = simulate(4, 6, 16, rate, 303);
    assert!(!m.saturated && !s.saturated);
    let err = (m.mean_network_latency - s.network_latency.mean).abs() / s.network_latency.mean;
    assert!(
        err < 0.25,
        "network latency: model {} vs sim {}",
        m.mean_network_latency,
        s.network_latency.pretty()
    );
}

#[test]
fn both_model_and_simulation_show_latency_growth_with_load() {
    let rates = [0.004, 0.010, 0.016];
    let mut last_model = 0.0;
    let mut last_sim = 0.0;
    for (i, &rate) in rates.iter().enumerate() {
        let m = model(4, 6, 16, rate);
        let s = simulate(4, 6, 16, rate, 400 + i as u64);
        assert!(!m.saturated && !s.saturated, "rate {rate} unexpectedly saturated");
        assert!(m.mean_latency > last_model);
        assert!(
            s.latency.mean > last_sim,
            "replicate-mean latency must grow with load (rate {rate}: {} after {last_sim})",
            s.latency.pretty()
        );
        last_model = m.mean_latency;
        last_sim = s.latency.mean;
    }
}

#[test]
fn model_matches_simulation_at_light_load_s6_on_the_event_engine() {
    // A full size class above the historical S4/S5 validation ceiling: S6 has
    // 720 nodes and 3600 channels, which the event-driven engine (the
    // default core) makes affordable inside a debug test run — only active
    // channels cost work at ~3% utilisation.
    use star_wormhole::{
        Discipline, Evaluator as _, ModelBackend, Scenario, SimBackend, SimBudget, SimCore,
    };
    let scenario = Scenario::star(6)
        .with_message_length(16)
        .with_discipline(Discipline::EnhancedNbc)
        .with_seed_base(601);
    assert_eq!(scenario.core, SimCore::EventDriven, "event-driven is the default engine");
    let topology = scenario.topology();
    let rate = 0.03 * topology.degree() as f64 / (topology.mean_distance() * 16.0);
    let point = scenario.at(rate);
    let m = ModelBackend::new().evaluate(&point);
    let s = SimBackend::new(SimBudget::Quick).evaluate(&point);
    assert!(!m.saturated && !s.saturated, "S6 must not saturate at light load");
    let err = (m.mean_latency - s.mean_latency).abs() / s.mean_latency;
    assert!(
        err < 0.10,
        "S6 light load: model {} vs sim {} ({:.1}%)",
        m.mean_latency,
        s.mean_latency,
        err * 100.0
    );
}

#[test]
fn simulated_hop_count_matches_mean_distance() {
    let s = simulate(4, 6, 16, 0.005, 7);
    let topo = StarGraph::new(4);
    for run in &s.runs {
        assert!(
            (run.mean_hops - topo.mean_distance()).abs() < 0.15,
            "uniform traffic must produce the analytic mean distance (got {}, want {})",
            run.mean_hops,
            topo.mean_distance()
        );
    }
}

#[test]
fn model_multiplexing_tracks_observed_multiplexing() {
    let rate = 0.015;
    let m = model(4, 6, 16, rate);
    let s = simulate(4, 6, 16, rate, 17);
    assert!(!m.saturated && !s.saturated);
    let observed =
        s.runs.iter().map(|r| r.observed_multiplexing).sum::<f64>() / s.replicates() as f64;
    // Both are ≥ 1 and should agree loosely well below saturation.
    assert!(m.multiplexing >= 1.0 && observed >= 1.0);
    assert!((m.multiplexing - observed).abs() < 0.5);
}

#[test]
fn replicate_interval_brackets_the_replicate_mean_sensibly() {
    // the CI the tolerance checks report must be a plausible summary: finite,
    // positive for independent seeds, and small relative to the mean at
    // light load
    let s = simulate(4, 6, 16, 0.005, 808);
    assert_eq!(s.replicates(), REPLICATES);
    assert!(s.latency.ci95 > 0.0);
    assert!(s.latency.ci95.is_finite());
    assert!(
        s.latency.relative_ci95() < 0.25,
        "independent light-load replicates should agree: {}",
        s.latency.pretty()
    );
}
