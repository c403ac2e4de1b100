//! The knee search decides its probes from certificates instead of a
//! converged or diverged fixed point.  That must not move a single knee:
//! here every search is held, bit for bit, to the bisection as it ran over
//! converged solves (one `SpectrumModel::solve_from` per probe, the same
//! brackets and the same warm-start seeds).  The configurations are off the
//! benchmark's pinned design, which `tests/model_golden.rs` already covers:
//! S4, Q5, T6 and R8, every discipline the model covers, `V` at the floor
//! and five above it, `M` of 8 and 64, at the grid's tolerance and a coarse
//! one.

use std::sync::Arc;

use star_wormhole::{
    saturation_rate, saturation_search, Discipline, ModelParams, Scenario, ScenarioSpectrum,
    SpectrumModel, TopologyKind, TraversalSpectrum,
};

/// The bisection over converged solves: every probe is a full
/// `solve_from`, seeded with the `S̄` of the highest rate known to solve.
fn converged_bisection(
    base: ModelParams,
    spectrum: &Arc<TraversalSpectrum>,
    closed_form_star: bool,
    tolerance: f64,
) -> f64 {
    let m = base.message_length as f64;
    let mut high = if closed_form_star {
        1.0 / m
    } else {
        spectrum.degree() as f64 / (spectrum.mean_distance() * m)
    };
    let (mut low, mut seed) = (0.0, f64::NAN);
    while (high - low) / high.max(1e-12) > tolerance {
        let mid = 0.5 * (low + high);
        let result =
            SpectrumModel::new(base.with_rate(mid), Arc::clone(spectrum)).solve_from(&[seed]);
        if result.saturated {
            high = mid;
        } else {
            low = mid;
            seed = result.mean_network_latency;
        }
    }
    low
}

/// Holds every search on one network to the converged bisection; returns
/// how many searches ran and how many probes the certificates decided.
fn check(kind: TopologyKind, size: usize) -> (usize, usize) {
    let network = kind.scenario(size);
    let spectrum = ScenarioSpectrum::build(&network);
    let spectrum = spectrum.spectrum();
    let (mut searched, mut certified, mut certified_saturated) = (0, 0, 0);
    for discipline in Discipline::ALL {
        let floor =
            ModelParams::min_virtual_channels(discipline.model_discipline(), spectrum.diameter());
        for v in [floor, floor + 5] {
            for m in [8, 64] {
                let scenario = network
                    .clone()
                    .with_discipline(discipline)
                    .with_virtual_channels(v)
                    .with_message_length(m);
                // the star graph has no deterministic model
                let Ok(Some(base)) = scenario.model_params(0.0) else { continue };
                for tolerance in [1e-5, 0.02] {
                    let want =
                        converged_bisection(base, spectrum, kind == TopologyKind::Star, tolerance);
                    let search = saturation_search(base, spectrum, tolerance);
                    assert_eq!(
                        search.rate.to_bits(),
                        want.to_bits(),
                        "{} at {tolerance}: {} vs converged {want}",
                        scenario.label(),
                        search.rate
                    );
                    assert!(search.rate > 0.0);
                    // a certificate decides every probe whose solve does
                    // not run out of iterations
                    assert_eq!(
                        search.certified + search.certified_saturated + search.capped,
                        search.probes,
                        "{} at {tolerance}: {search:?}",
                        scenario.label()
                    );
                    searched += 1;
                    certified += search.certified;
                    certified_saturated += search.certified_saturated;
                }
            }
        }
    }
    assert!(certified > searched, "the certificate must decide most solving probes");
    assert!(certified_saturated > searched, "the walk must decide most saturating probes");
    (searched, certified + certified_saturated)
}

// every discipline on each network but the star graph's deterministic one,
// two V, two M and two tolerances

#[test]
fn star_knees_match_the_converged_bisection_bit_for_bit() {
    assert_eq!(check(TopologyKind::Star, 4).0, 3 * 8);
}

#[test]
fn hypercube_knees_match_the_converged_bisection_bit_for_bit() {
    assert_eq!(check(TopologyKind::Hypercube, 5).0, 4 * 8);
}

#[test]
fn torus_knees_match_the_converged_bisection_bit_for_bit() {
    assert_eq!(check(TopologyKind::Torus, 6).0, 4 * 8);
}

#[test]
fn ring_knees_match_the_converged_bisection_bit_for_bit() {
    assert_eq!(check(TopologyKind::Ring, 8).0, 4 * 8);
}

#[test]
fn saturation_rate_is_the_search_rate() {
    let scenario = Scenario::star(4);
    let spectrum = ScenarioSpectrum::build(&scenario);
    let base = scenario.model_params(0.0).unwrap().unwrap();
    let search = saturation_search(base, spectrum.spectrum(), 0.02);
    assert_eq!(saturation_rate(base, spectrum.spectrum(), 0.02).to_bits(), search.rate.to_bits());
}
