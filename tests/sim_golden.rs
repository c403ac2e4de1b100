//! Golden simulator reports: every run below is pinned bit for bit to
//! `tests/fixtures/sim_golden.txt`, and op 0 of the `sim_light`/`sim_heavy`
//! benchmark workloads to `perfbench/refs/sim.txt`.
//!
//! A fixture line holds one replicate's [`SimReport`], every field in
//! declaration order with each `f64` written as its `to_bits` hex, so a
//! reordered RNG draw or a skipped counter moves at least one line.  On a
//! mismatch the test prints the whole recomputed line; a deliberate
//! behaviour change is re-pinned by pasting the printed lines over the old
//! ones (there is no regeneration switch).

use std::sync::Arc;

use star_wormhole::sim::SimConfigBuilder;
use star_wormhole::{
    EnhancedNbc, Hypercube, ReplicateRun, Ring, SimConfig, SimReport, Simulation, StarGraph,
    Topology, Torus, TrafficPattern,
};

const GOLDEN: &str = include_str!("fixtures/sim_golden.txt");
const BENCH_REFS: &str = include_str!("../perfbench/refs/sim.txt");

/// The fixture line of replicate `rep` of case `label`.
fn golden_line(label: &str, rep: usize, r: &SimReport) -> String {
    let f = |x: f64| format!("{:016x}", x.to_bits());
    let s = &r.stage_skips;
    [
        label.to_string(),
        rep.to_string(),
        r.topology.clone(),
        r.routing.clone(),
        f(r.offered_rate),
        r.message_length.to_string(),
        r.virtual_channels.to_string(),
        r.saturated.to_string(),
        r.deadlock_detected.to_string(),
        r.cycles.to_string(),
        r.measured_messages.to_string(),
        f(r.mean_message_latency),
        f(r.latency_ci95),
        f(r.mean_network_latency),
        f(r.mean_source_queueing),
        f(r.mean_hops),
        f(r.accepted_rate),
        f(r.channel_utilization),
        r.flit_transfers.to_string(),
        f(r.observed_multiplexing),
        f(r.blocking_probability),
        r.active_cycles.to_string(),
        s.generation.to_string(),
        s.injection.to_string(),
        s.routing.to_string(),
        s.switching.to_string(),
        s.staged.to_string(),
    ]
    .join(" ")
}

/// Runs `replicates` replicates of one case (Enhanced-NBC, `V = 6`, `M = 16`;
/// 2,000 warm-up cycles and 2,000 measured messages unless `configure`
/// overrides them) and checks every replicate's line against the fixture.
/// Returns the reports for case-specific asserts.
fn check_case(
    label: &str,
    topology: Arc<dyn Topology>,
    rate: f64,
    seed: u64,
    replicates: usize,
    configure: impl Fn(SimConfigBuilder) -> SimConfigBuilder,
) -> Vec<SimReport> {
    let routing = Arc::new(EnhancedNbc::for_topology(topology.as_ref(), 6));
    let builder = SimConfig::builder()
        .message_length(16)
        .traffic_rate(rate)
        .warmup_cycles(2_000)
        .measured_messages(2_000)
        .max_cycles(200_000)
        .seed(seed);
    let config = configure(builder).build();
    let runs = ReplicateRun::new(topology, routing, config, TrafficPattern::Uniform, replicates)
        .run()
        .runs;
    let pinned: Vec<&str> = GOLDEN.lines().filter(|l| l.split(' ').next() == Some(label)).collect();
    assert_eq!(pinned.len(), replicates, "{label}: pinned replicate count");
    let mismatches: Vec<String> = runs
        .iter()
        .enumerate()
        .map(|(rep, r)| golden_line(label, rep, r))
        .zip(&pinned)
        .filter(|(got, want)| got != *want)
        .map(|(got, _)| got)
        .collect();
    assert!(
        mismatches.is_empty(),
        "{label}: reports moved from the golden fixture; recomputed lines:\n{}",
        mismatches.join("\n")
    );
    runs
}

fn family_case(label: &str, topology: Arc<dyn Topology>, rate: f64, seed: u64) {
    let runs = check_case(label, topology, rate, seed, 3, |b| b);
    for r in &runs {
        assert!(!r.saturated && !r.deadlock_detected && r.measured_messages >= 2_000, "{label}");
        // light load: every stage idles on some active cycle
        assert!(r.active_cycles > 0 && r.stage_skips.total() > 0, "{label}");
    }
}

#[test]
fn star_graph_replicates_match_the_golden_fixture() {
    family_case("S4", Arc::new(StarGraph::new(4)), 0.010, 1101);
}

#[test]
fn hypercube_replicates_match_the_golden_fixture() {
    family_case("Q5", Arc::new(Hypercube::new(5)), 0.010, 1102);
}

#[test]
fn torus_replicates_match_the_golden_fixture() {
    family_case("T6", Arc::new(Torus::new(6)), 0.008, 1103);
}

#[test]
fn ring_replicates_match_the_golden_fixture() {
    family_case("R8", Arc::new(Ring::new(8)), 0.010, 1104);
}

#[test]
fn overload_point_matches_the_golden_fixture() {
    // beyond saturation the run ends through the queue-limit branch
    let runs = check_case("S4-overload", Arc::new(StarGraph::new(4)), 0.2, 1105, 3, |b| {
        b.measured_messages(50_000).max_cycles(60_000).saturation_queue_limit(100)
    });
    assert!(runs.iter().all(|r| r.saturated && !r.deadlock_detected));
}

#[test]
fn heavy_points_match_the_golden_fixture() {
    for (label, topology, rate, seed) in [
        ("T6-heavy", Arc::new(Torus::new(6)) as Arc<dyn Topology>, 0.030, 1106),
        ("R8-heavy", Arc::new(Ring::new(8)) as Arc<dyn Topology>, 0.024, 1107),
    ] {
        for r in check_case(label, topology, rate, seed, 3, |b| b) {
            assert!(!r.deadlock_detected, "{label}");
            // near saturation most active cycles run the switching stage
            assert!(r.stage_skips.switching < r.active_cycles / 2, "{label}");
        }
    }
}

#[test]
fn zero_rate_idle_points_match_the_golden_fixture() {
    // zero traffic: the whole run is fast-forwarded and ends at warmup + 1
    for (label, topology) in [
        ("T6-idle", Arc::new(Torus::new(6)) as Arc<dyn Topology>),
        ("R8-idle", Arc::new(Ring::new(8)) as Arc<dyn Topology>),
    ] {
        for r in check_case(label, topology, 0.0, 1108, 3, |b| b.measured_messages(10)) {
            assert_eq!(r.cycles, 2_001, "{label}");
            assert_eq!((r.active_cycles, r.stage_skips.total()), (0, 0), "{label}");
            assert_eq!(r.measured_messages, 0, "{label}");
        }
    }
}

#[test]
fn injection_seeds_match_the_golden_fixture() {
    // exact injected and transferred flit counts per seed: a change to
    // arrival scheduling (RNG stream, cycle rounding, draw order across
    // nodes) moves them
    for seed in [2101, 2102, 2103] {
        check_case(&format!("S4-seed{seed}"), Arc::new(StarGraph::new(4)), 0.006, seed, 1, |b| {
            b.warmup_cycles(1_000).measured_messages(500)
        });
    }
}

/// SplitMix64 seed derivation, as the benchmark derives its op seeds.
fn derive(seed: u64, index: u64) -> u64 {
    let mut z =
        (seed ^ index.wrapping_mul(0xD6E8_FEB8_6659_FD93)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn benchmark_op_zero_matches_the_perfbench_refs() {
    // op 0 of each sim workload: S5, Enhanced-NBC, V = 6, M = 16 at 3% and
    // 45% channel utilisation, exactly as the benchmark builds it
    for (workload, utilisation) in [("sim_light", 0.03), ("sim_heavy", 0.45)] {
        let topology: Arc<dyn Topology> = Arc::new(StarGraph::new(5));
        let routing = Arc::new(EnhancedNbc::for_topology(topology.as_ref(), 6));
        let rate = utilisation * topology.degree() as f64 / (topology.mean_distance() * 16.0);
        let config = SimConfig::builder()
            .message_length(16)
            .traffic_rate(rate)
            .warmup_cycles(2_000)
            .measured_messages(20_000)
            .max_cycles(4_000_000)
            .seed(derive(0x5EED_51A7, 0))
            .build();
        let r = Simulation::new(topology, routing, config, TrafficPattern::Uniform).run();
        assert!(!r.saturated && !r.deadlock_detected, "{workload}");
        let (a, s) = (r.active_cycles, &r.stage_skips);
        let got = format!(
            "{workload} 0 {} {a} {} {} {} {} {} {} {:016x}",
            r.cycles,
            r.flit_transfers,
            a - s.generation,
            a - s.injection,
            a - s.routing,
            a - s.switching,
            a - s.staged,
            r.mean_message_latency.to_bits()
        );
        let want = BENCH_REFS
            .lines()
            .find(|l| l.starts_with(&format!("{workload} 0 ")))
            .expect("op 0 is pinned");
        assert_eq!(got, want, "{workload} op 0 moved from perfbench/refs/sim.txt");
    }
}
