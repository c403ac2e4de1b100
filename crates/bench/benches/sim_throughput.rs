//! Criterion benchmark: flit-level simulator throughput (simulated cycles per
//! second) on a small star graph, for the Enhanced-Nbc and deterministic
//! routers, plus the heavy-load point of the repository benchmark's
//! `sim_heavy` workload (S5, 45% channel utilisation), so the simulator's
//! hot loop can be timed with `cargo bench` alone.  Sample counts are kept
//! low because a single iteration already simulates tens of thousands of
//! cycles.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

use star_graph::{StarGraph, Topology};
use star_routing::{DeterministicMinimal, EnhancedNbc, RoutingAlgorithm};
use star_sim::{SimConfig, Simulation, TrafficPattern};

fn run_once(routing: Arc<dyn RoutingAlgorithm>, rate: f64, seed: u64) -> f64 {
    let topology = Arc::new(StarGraph::new(4));
    let config = SimConfig::builder()
        .message_length(16)
        .traffic_rate(rate)
        .warmup_cycles(1_000)
        .measured_messages(2_000)
        .max_cycles(100_000)
        .seed(seed)
        .build();
    Simulation::new(topology, routing, config, TrafficPattern::Uniform).run().mean_message_latency
}

fn bench_sim_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_throughput");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(8));
    let topology = StarGraph::new(4);
    group.bench_function("s4_enhanced_nbc_moderate_load", |b| {
        b.iter(|| {
            let routing: Arc<dyn RoutingAlgorithm> =
                Arc::new(EnhancedNbc::for_topology(&topology, 6));
            black_box(run_once(routing, 0.01, 7))
        });
    });
    group.bench_function("s4_deterministic_moderate_load", |b| {
        b.iter(|| {
            let routing: Arc<dyn RoutingAlgorithm> =
                Arc::new(DeterministicMinimal::for_topology(&topology, 6));
            black_box(run_once(routing, 0.01, 7))
        });
    });
    // one `sim_heavy` op: S5, Enhanced-Nbc with V = 6, M = 16 flits, 45%
    // channel utilisation (λ = u·degree/(d̄·M)), 2,000 warm-up cycles and
    // 20,000 measured messages
    let s5: Arc<dyn Topology> = Arc::new(StarGraph::new(5));
    let routing: Arc<dyn RoutingAlgorithm> = Arc::new(EnhancedNbc::for_topology(s5.as_ref(), 6));
    let heavy = SimConfig::builder()
        .message_length(16)
        .traffic_rate(0.45 * s5.degree() as f64 / (s5.mean_distance() * 16.0))
        .warmup_cycles(2_000)
        .measured_messages(20_000)
        .max_cycles(4_000_000)
        .seed(1)
        .build();
    group.bench_function("s5_enhanced_nbc_heavy", |b| {
        b.iter(|| {
            let sim = Simulation::new(
                Arc::clone(&s5),
                Arc::clone(&routing),
                heavy.clone(),
                TrafficPattern::Uniform,
            );
            black_box(sim.run().flit_transfers)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_sim_throughput);
criterion_main!(benches);
