//! Golden guard for the analytical model: the latency curves the benchmark
//! pins in `perfbench/refs/model.txt` must come back **bit for bit**.
//!
//! Each line of that file is `<scenario label> <rates> <latencies>`, with
//! comma-separated `f64`s in Rust's shortest round-trip spelling and `sat`
//! for a point without a latency.  This test recomputes every pinned curve —
//! all disciplines of S5–S7, Q7–Q13, T8–T12 and R8–R16, the benchmark's
//! whole design — through the same calls the benchmark makes
//! (`load_rate_grid` for the grid, a warm-started `ModelBackend` sweep for
//! the latencies) and compares the bits of every number.  The networks are
//! split over several tests so the harness can run them in parallel.

use star_wormhole::{
    load_rate_grid, Discipline, Evaluator as _, ModelBackend, PointEstimate, Scenario, TopologyKind,
};

const PINNED: &str = include_str!("../perfbench/refs/model.txt");

/// Grid points per curve, as pinned.
const RATES: usize = 24;

/// Parses a label such as `Q8/nbc/V7/M16` back into its scenario.
fn scenario(label: &str) -> Scenario {
    let fields: Vec<&str> = label.split('/').collect();
    assert_eq!(fields.len(), 4, "label {label}");
    let (family, size) = fields[0].split_at(1);
    let kind = match family {
        "S" => TopologyKind::Star,
        "Q" => TopologyKind::Hypercube,
        "T" => TopologyKind::Torus,
        "R" => TopologyKind::Ring,
        other => panic!("unknown family {other} in {label}"),
    };
    let number = |field: &str, prefix: char| -> usize {
        field.strip_prefix(prefix).and_then(|n| n.parse().ok()).expect("numeric label field")
    };
    let scenario = kind
        .scenario(size.parse().expect("numeric size"))
        .with_discipline(Discipline::parse(fields[1]).expect("known discipline"))
        .with_virtual_channels(number(fields[2], 'V'))
        .with_message_length(number(fields[3], 'M'));
    assert_eq!(scenario.label(), label, "the label must round-trip");
    scenario
}

fn bits(field: &str) -> Vec<Option<u64>> {
    field
        .split(',')
        .map(|v| (v != "sat").then(|| v.parse::<f64>().expect("numeric field").to_bits()))
        .collect()
}

/// Recomputes every pinned curve of the given networks; returns how many
/// curves were checked.
fn check(networks: &[&str]) -> usize {
    let backend = ModelBackend::new();
    let mut checked = 0;
    for line in PINNED.lines().filter(|l| !l.trim().is_empty() && !l.starts_with('#')) {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let label = fields[0];
        if !networks.contains(&label.split('/').next().unwrap()) {
            continue;
        }
        let scenario = scenario(label);
        let rates = load_rate_grid(&scenario, RATES);
        let estimates = backend.evaluate_sweep(&scenario, &rates);
        let got_rates: Vec<Option<u64>> = rates.iter().map(|r| Some(r.to_bits())).collect();
        let got_latencies: Vec<Option<u64>> =
            estimates.iter().map(PointEstimate::latency).map(|l| l.map(f64::to_bits)).collect();
        assert_eq!(got_rates, bits(fields[1]), "{label}: rate grid");
        assert_eq!(got_latencies, bits(fields[2]), "{label}: latencies");
        checked += 1;
    }
    checked
}

// every pinned discipline of every listed network: three on the star graph
// (it has no deterministic model), four elsewhere

const STARS: [&str; 2] = ["S5", "S6"];
const LARGE_STARS: [&str; 1] = ["S7"];
const HYPERCUBES: [&str; 3] = ["Q7", "Q8", "Q9"];
const LARGE_HYPERCUBES: [&str; 4] = ["Q10", "Q11", "Q12", "Q13"];
const TORI_AND_RINGS: [&str; 4] = ["T8", "R8", "R10", "R12"];
const LARGE_TORI: [&str; 2] = ["T10", "T12"];
const LARGE_RINGS: [&str; 2] = ["R14", "R16"];

#[test]
fn the_tests_cover_every_pinned_curve() {
    let networks: Vec<&str> = [
        &STARS[..],
        &LARGE_STARS,
        &HYPERCUBES,
        &LARGE_HYPERCUBES,
        &TORI_AND_RINGS,
        &LARGE_TORI,
        &LARGE_RINGS,
    ]
    .concat();
    let labels: Vec<&str> = PINNED
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().next().unwrap())
        .collect();
    assert_eq!(labels.len(), 69);
    for label in labels {
        assert!(networks.contains(&label.split('/').next().unwrap()), "{label} is not checked");
    }
}

#[test]
fn pinned_star_curves_are_reproduced_bit_for_bit() {
    assert_eq!(check(&STARS), 2 * 3);
}

#[test]
fn pinned_s7_curves_are_reproduced_bit_for_bit() {
    assert_eq!(check(&LARGE_STARS), 3);
}

#[test]
fn pinned_hypercube_curves_are_reproduced_bit_for_bit() {
    assert_eq!(check(&HYPERCUBES), 3 * 4);
}

#[test]
fn pinned_large_hypercube_curves_are_reproduced_bit_for_bit() {
    assert_eq!(check(&LARGE_HYPERCUBES), 4 * 4);
}

#[test]
fn pinned_torus_and_ring_curves_are_reproduced_bit_for_bit() {
    assert_eq!(check(&TORI_AND_RINGS), 4 * 4);
}

#[test]
fn pinned_large_torus_curves_are_reproduced_bit_for_bit() {
    assert_eq!(check(&LARGE_TORI), 2 * 4);
}

#[test]
fn pinned_large_ring_curves_are_reproduced_bit_for_bit() {
    assert_eq!(check(&LARGE_RINGS), 2 * 4);
}
