//! Criterion benchmark: cost of one analytical-model evaluation.
//!
//! The selling point of the model over simulation is that one operating point
//! costs microseconds-to-milliseconds instead of seconds; this bench
//! quantifies that for the paper's configurations (`S5`, `V = 6/9/12`), for
//! the larger networks the model is meant to reach (`S6`, `S7`, `Q10`,
//! `Q13`) and for a BFS-census topology (`T12`), plus the spectrum builds a
//! sweep amortises, the saturation bisection that takes most of a curve's
//! time, and the warm- vs cold-started `Q10` sweep.
//!
//! A search's probes walk up a relaxed monotone step and are decided by
//! certificates: a rate that solves long before its fixed point converges,
//! a rate that saturates as soon as the walk reaches the channel pole.  On
//! S5 (`V = 6`, `M = 32`) a search runs 1,478 step evaluations to the 12,645
//! iterations of a bisection over converged solves (2,602 when only rates
//! that solve were certified).  `T8` with plain negative-hop routing at its
//! `V = 5` floor, the benchmark design's slowest search, runs 11,635 to the
//! converged bisection's 30,000 (20,964 with only the solving
//! certificate).  Two release runs on a shared 2-vCPU host put a search at
//! 0.60–0.62 ms on S5 (1.2–1.4 ms with only the solving certificate) and
//! 12.4–13.5 ms on T8/nhop (17–22 ms).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use star_core::{
    saturation_rate, ModelDiscipline, ModelParams, SpectrumModel, SpectrumResult, TraversalSpectrum,
};
use star_graph::Torus;
use star_workloads::{ModelBackend, Scenario, SweepRunner, SweepSpec};

fn params(v: usize, rate: f64) -> ModelParams {
    ModelParams { virtual_channels: v, traffic_rate: rate, ..ModelParams::default() }
}

fn solve(spectrum: &Arc<TraversalSpectrum>, params: ModelParams) -> SpectrumResult {
    SpectrumModel::new(params, Arc::clone(spectrum)).solve()
}

fn bench_solves(c: &mut Criterion) {
    let mut group = c.benchmark_group("model_solve");
    let s5 = Arc::new(TraversalSpectrum::star(5));
    for &v in &[6usize, 9, 12] {
        group.bench_function(format!("s5_v{v}_moderate_load"), |b| {
            b.iter(|| black_box(solve(&s5, params(v, 0.006))));
        });
    }
    let s6 = Arc::new(TraversalSpectrum::star(6));
    group.bench_function("s6_v6_moderate_load", |b| {
        b.iter(|| black_box(solve(&s6, params(6, 0.004))));
    });
    let s7 = Arc::new(TraversalSpectrum::star(7));
    group.bench_function("s7_v8_light_load", |b| {
        b.iter(|| black_box(solve(&s7, params(8, 0.001))));
    });
    group.bench_function("s7_v8_moderate_load", |b| {
        b.iter(|| black_box(solve(&s7, params(8, 0.004))));
    });
    for dims in [10usize, 13] {
        let cube = Arc::new(TraversalSpectrum::hypercube(dims));
        group.bench_function(format!("q{dims}_v8_m32_solve"), |b| {
            b.iter(|| black_box(solve(&cube, params(8, 0.008))));
        });
        let ecube = ModelParams { discipline: ModelDiscipline::Deterministic, ..params(8, 0.008) };
        group.bench_function(format!("q{dims}_v8_m32_ecube_solve"), |b| {
            b.iter(|| black_box(solve(&cube, ecube)));
        });
    }
    let t12 = Arc::new(TraversalSpectrum::new(&Torus::new(12)));
    group.bench_function("t12_v8_moderate_load", |b| {
        b.iter(|| black_box(solve(&t12, params(8, 0.004))));
    });
    group.finish();
}

fn bench_spectrum_builds(c: &mut Criterion) {
    // the one-off cost a sweep amortises: the two closed forms, and the BFS
    // census a topology without one pays instead
    let mut group = c.benchmark_group("spectrum_build");
    group.bench_function("star_s5", |b| b.iter(|| black_box(TraversalSpectrum::star(5))));
    group.bench_function("star_s7", |b| b.iter(|| black_box(TraversalSpectrum::star(7))));
    group.bench_function("hypercube_q13", |b| {
        b.iter(|| black_box(TraversalSpectrum::hypercube(13)));
    });
    let torus = Torus::new(12);
    group.bench_function("bfs_t12", |b| b.iter(|| black_box(TraversalSpectrum::new(&torus))));
    group.finish();
}

fn bench_saturation(c: &mut Criterion) {
    // the knee search behind every rate grid: about 18 probes to the grid's
    // 1e-5 tolerance, each decided by a certificate
    let mut group = c.benchmark_group("saturation_rate");
    let (enhanced, nhop) = (ModelDiscipline::EnhancedNbc, ModelDiscipline::NHop);
    for (name, spectrum, discipline, v) in [
        ("s5_v6", TraversalSpectrum::star(5), enhanced, 6),
        ("s7_v8", TraversalSpectrum::star(7), enhanced, 8),
        ("t12_v8", TraversalSpectrum::new(&Torus::new(12)), enhanced, 8),
        ("t8_nhop_v5", TraversalSpectrum::new(&Torus::new(8)), nhop, 5),
    ] {
        let spectrum = Arc::new(spectrum);
        let base = ModelParams { discipline, ..params(v, 0.0) };
        group.bench_function(format!("{name}_m32"), |b| {
            b.iter(|| black_box(saturation_rate(base, &spectrum, 1e-5)));
        });
    }
    group.finish();
}

fn bench_backend_sweeps(c: &mut Criterion) {
    // warm- vs cold-started sweeps through the evaluator API at Q10, dense
    // enough to hug the knee (saturation ≈ 0.028 at V = 8, M = 32)
    let rates: Vec<f64> = (1..=16).map(|i| 0.0016 * i as f64).collect();
    let sweep =
        SweepSpec::new("q10-parity", Scenario::hypercube(10).with_virtual_channels(8), rates);
    let runner = SweepRunner::with_threads(1);
    let mut group = c.benchmark_group("model_backend");
    group.bench_function("q10_v8_m32_cold_backend", |b| {
        b.iter(|| black_box(runner.run_one(&ModelBackend::cold(), &sweep)));
    });
    group.bench_function("q10_v8_m32_warm_backend", |b| {
        b.iter(|| black_box(runner.run_one(&ModelBackend::new(), &sweep)));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_solves,
    bench_spectrum_builds,
    bench_saturation,
    bench_backend_sweeps
);
criterion_main!(benches);
