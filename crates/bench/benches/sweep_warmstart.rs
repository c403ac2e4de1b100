//! Criterion benchmark: cold-started vs warm-started Figure-1 model sweeps.
//!
//! `ModelBackend::evaluate_sweep` seeds each rate's damped fixed-point
//! iteration with the previous rate's converged state; this bench pins the
//! speedup against cold solves of every rate on one prebuilt model
//! (`ModelBackend::estimate_on`) on the paper's `S5`, `V = 6`, `M = 32`
//! curve, where the points near the saturation knee dominate the solve
//! cost.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use star_workloads::{Evaluator as _, ModelBackend, Scenario, ScenarioModel, ScenarioSpectrum};

fn s5_rates() -> Vec<f64> {
    // the V = 6, M = 32 axis of Figure 1, dense enough to hug the knee
    (1..=16).map(|i| 0.0008 * i as f64).collect()
}

fn bench_core_sweeps(c: &mut Criterion) {
    let scenario = Scenario::star(5);
    let rates = s5_rates();
    let backend = ModelBackend::new();
    let model = ScenarioModel::build(&scenario, &ScenarioSpectrum::build(&scenario)).unwrap();
    let mut group = c.benchmark_group("sweep_warmstart");
    group.bench_function("s5_v6_m32_cold", |b| {
        b.iter(|| {
            let cold: Vec<_> =
                rates.iter().map(|&rate| backend.estimate_on(&scenario.at(rate), &model)).collect();
            black_box(cold)
        });
    });
    group.bench_function("s5_v6_m32_warm", |b| {
        b.iter(|| black_box(backend.evaluate_sweep(&scenario, &rates)));
    });
    group.finish();
}

criterion_group!(benches, bench_core_sweeps);
criterion_main!(benches);
