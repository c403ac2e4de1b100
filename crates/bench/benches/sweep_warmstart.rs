//! Criterion benchmark: cold-started vs warm-started Figure-1 model sweeps.
//!
//! `ModelBackend::evaluate_sweep` seeds each rate's damped fixed-point
//! iteration with the previous rate's converged state; this bench pins the
//! speedup against the cold-start sweep on the paper's `S5`, `V = 6`,
//! `M = 32` curve (where the points near the saturation knee dominate the
//! solve cost), both directly through the backend and through the
//! `SweepRunner` path the harness binaries use.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use star_workloads::{Evaluator as _, ModelBackend, Scenario, SweepRunner, SweepSpec};

fn s5_rates() -> Vec<f64> {
    // the V = 6, M = 32 axis of Figure 1, dense enough to hug the knee
    (1..=16).map(|i| 0.0008 * i as f64).collect()
}

fn bench_core_sweeps(c: &mut Criterion) {
    let scenario = Scenario::star(5);
    let rates = s5_rates();
    let mut group = c.benchmark_group("sweep_warmstart");
    group.bench_function("s5_v6_m32_cold", |b| {
        b.iter(|| black_box(ModelBackend::cold().evaluate_sweep(&scenario, &rates)));
    });
    group.bench_function("s5_v6_m32_warm", |b| {
        b.iter(|| black_box(ModelBackend::new().evaluate_sweep(&scenario, &rates)));
    });
    group.finish();
}

fn bench_runner_sweeps(c: &mut Criterion) {
    // The cold backend also loses spectrum sharing: without rate chaining the
    // runner shards at point granularity, so each point rebuilds its
    // destination spectrum.  This pair therefore measures the full user-facing
    // delta of the warm path, not just the solver iterations.
    let sweep = SweepSpec::new("fig1a-M32", Scenario::star(5), s5_rates());
    let mut group = c.benchmark_group("sweep_runner");
    group.bench_function("s5_v6_m32_cold_backend", |b| {
        let runner = SweepRunner::with_threads(1);
        b.iter(|| black_box(runner.run_one(&ModelBackend::cold(), &sweep)));
    });
    group.bench_function("s5_v6_m32_warm_backend", |b| {
        let runner = SweepRunner::with_threads(1);
        b.iter(|| black_box(runner.run_one(&ModelBackend::new(), &sweep)));
    });
    group.finish();
}

criterion_group!(benches, bench_core_sweeps, bench_runner_sweeps);
criterion_main!(benches);
