//! The knee search decides its probes from certificates instead of a
//! converged or diverged fixed point.  That must not move a single knee:
//! here every search is held, bit for bit, to the bisection as it ran over
//! converged solves (one `SpectrumModel::solve_from` per probe, the same
//! brackets and the same warm-start seeds).  The configurations are off the
//! benchmark's pinned design, which `tests/model_golden.rs` already covers:
//! S4, Q5, T6 and R8, every discipline the model covers, `V` at the floor
//! and five above it, `M` of 8 and 64, at the grid's tolerance and a coarse
//! one.  The `#[ignore]`d knee audit widens that to S4–S6, Q5–Q9, T6–T10
//! and R8–R14; `cargo xtask ci` runs it in release.

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

/// What the searches over a set of configurations did.
#[derive(Debug, Default)]
struct Tally {
    searches: usize,
    probes: usize,
    iterations: usize,
    certified: usize,
    certified_saturated: usize,
    fallbacks: usize,
    capped: usize,
}

/// Holds every search on a family's networks of the given sizes to the
/// converged bisection, for every discipline the model covers there, `V` at
/// the given offsets above the floor, and the given message lengths and
/// tolerances.
fn audit(
    kind: TopologyKind,
    sizes: impl IntoIterator<Item = usize>,
    offsets: &[usize],
    lengths: &[usize],
    tolerances: &[f64],
) -> Tally {
    let mut tally = Tally::default();
    for (network, discipline) in sizes
        .into_iter()
        .flat_map(|size| Discipline::ALL.map(|discipline| (kind.scenario(size), discipline)))
    {
        let spectrum = ScenarioSpectrum::build(&network);
        let spectrum = spectrum.spectrum();
        let floor =
            ModelParams::min_virtual_channels(discipline.model_discipline(), spectrum.diameter());
        for v in offsets.iter().map(|offset| floor + offset) {
            for &m in lengths {
                let scenario = network
                    .clone()
                    .with_discipline(discipline)
                    .with_virtual_channels(v)
                    .with_message_length(m);
                // the star graph has no deterministic model
                let Ok(Some(base)) = scenario.model_params(0.0) else { continue };
                for &tolerance in tolerances {
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
                    tally.searches += 1;
                    tally.probes += search.probes;
                    tally.iterations += search.iterations;
                    tally.certified += search.certified;
                    tally.certified_saturated += search.certified_saturated;
                    tally.fallbacks += search.fallbacks;
                    tally.capped += search.capped;
                }
            }
        }
    }
    tally
}

/// [`audit`] at the floor and five above it, `M` of 8 and 64, at the
/// grid's tolerance and a coarse one; returns how many searches ran.
fn check(kind: TopologyKind, size: usize) -> usize {
    let tally = audit(kind, [size], &[0, 5], &[8, 64], &[1e-5, 0.02]);
    assert!(tally.certified > tally.searches, "the certificate must decide most solving probes");
    assert!(
        tally.certified_saturated > tally.searches,
        "the walk must decide most saturating probes"
    );
    tally.searches
}

// every discipline on each network but the star graph's deterministic one,
// two V, two M and two tolerances

#[test]
fn star_knees_match_the_converged_bisection_bit_for_bit() {
    assert_eq!(check(TopologyKind::Star, 4), 3 * 8);
}

#[test]
fn hypercube_knees_match_the_converged_bisection_bit_for_bit() {
    assert_eq!(check(TopologyKind::Hypercube, 5), 4 * 8);
}

#[test]
fn torus_knees_match_the_converged_bisection_bit_for_bit() {
    assert_eq!(check(TopologyKind::Torus, 6), 4 * 8);
}

#[test]
fn ring_knees_match_the_converged_bisection_bit_for_bit() {
    assert_eq!(check(TopologyKind::Ring, 8), 4 * 8);
}

#[test]
fn saturation_rate_is_the_search_rate() {
    let scenario = Scenario::star(4);
    let spectrum = ScenarioSpectrum::build(&scenario);
    let base = scenario.model_params(0.0).unwrap().unwrap();
    let search = saturation_search(base, spectrum.spectrum(), 0.02);
    assert_eq!(saturation_rate(base, spectrum.spectrum(), 0.02).to_bits(), search.rate.to_bits());
}

/// The knee audit: [`audit`] over a family's sizes, `V` at the floor, three
/// and seven above it, and `M` of 8 and 64, at the grid's tolerance.  Too
/// slow for a debug test run (each converged probe is a full solve), it runs
/// in release as `cargo xtask ci`'s `knee-audit` step:
/// `cargo test --release --test saturation_exact -- --ignored`.
fn knee_audit(kind: TopologyKind, sizes: impl IntoIterator<Item = usize>) -> usize {
    let tally = audit(kind, sizes, &[0, 3, 7], &[8, 64], &[1e-5]);
    println!("{kind:?}: {tally:?}");
    tally.searches
}

#[test]
#[ignore = "knee audit: run in release by `cargo xtask ci`"]
fn audit_star_knees_s4_to_s6() {
    assert_eq!(knee_audit(TopologyKind::Star, 4..=6), 3 * 3 * 3 * 2);
}

#[test]
#[ignore = "knee audit: run in release by `cargo xtask ci`"]
fn audit_hypercube_knees_q5_to_q9() {
    assert_eq!(knee_audit(TopologyKind::Hypercube, 5..=9), 5 * 4 * 3 * 2);
}

#[test]
#[ignore = "knee audit: run in release by `cargo xtask ci`"]
fn audit_torus_knees_t6_to_t10() {
    assert_eq!(knee_audit(TopologyKind::Torus, [6, 8, 10]), 3 * 4 * 3 * 2);
}

#[test]
#[ignore = "knee audit: run in release by `cargo xtask ci`"]
fn audit_ring_knees_r8_to_r14() {
    assert_eq!(knee_audit(TopologyKind::Ring, [8, 10, 12, 14]), 4 * 4 * 3 * 2);
}
