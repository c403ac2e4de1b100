//! Criterion benchmark: cost of one analytical-model evaluation.
//!
//! The selling point of the model over simulation is that one operating point
//! costs microseconds-to-milliseconds instead of seconds; this bench
//! quantifies that for the paper's configurations (`S5`, `V = 6/9/12`), for
//! the larger networks the model is meant to reach (`S6`, `S7`, `Q10`,
//! `Q13`) and for a BFS-census topology (`T12`), plus the spectrum builds a
//! sweep amortises (the star's closed form next to the BFS census it
//! reproduces), the model builds a configuration pays once, the saturation
//! bisection that takes most of a curve's time, the warm- vs cold-started
//! `Q10` sweep, and one served miss answered with and without rebuilding
//! its model.
//!
//! A search's probes walk up the step in secant cells, whose lines convexity
//! keeps below the step, and are decided by certificates: a rate that
//! solves long before its fixed point converges, a rate that saturates once
//! the secant's slope passes 1, with a closed-form bound showing the damped
//! solve would diverge within its cap.  Every evaluation a probe makes is
//! counted.  On S5 (`V = 6`, `M = 32`) a search runs 91 step evaluations to
//! the 12,645 iterations of a bisection over converged solves (1,478 with
//! the relaxed monotone walk the secant cells replaced).  `T8` with plain
//! negative-hop routing at its `V = 5` floor, once the benchmark design's
//! slowest search, runs 115 (11,635 with the relaxed walk); S7 (`V = 8`)
//! runs 96 (1,716) and T12 (`V = 8`) 85 (1,436).  One release run of each
//! build on a shared 2-vCPU host, relaxed walk → secant cells: a search
//! takes 0.89 ms → 57 µs on S5, 3.20 ms → 149 µs on S7, 4.18 ms → 203 µs on
//! T12 and 10.7 ms → 125 µs on T8/nhop.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use star_core::{
    saturation_rate, ModelDiscipline, ModelParams, SpectrumModel, SpectrumResult, TraversalSpectrum,
};
use star_graph::{StarGraph, Torus};
use star_workloads::{
    ModelBackend, Scenario, ScenarioModel, ScenarioSpectrum, SweepRunner, SweepSpec,
};

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
    // the star's closed form against the BFS census it reproduces bit for bit
    let star = StarGraph::new(7);
    group.bench_function("bfs_s7", |b| b.iter(|| black_box(TraversalSpectrum::new(&star))));
    let torus = Torus::new(12);
    group.bench_function("bfs_t12", |b| b.iter(|| black_box(TraversalSpectrum::new(&torus))));
    group.finish();
}

fn bench_model_builds(c: &mut Criterion) {
    // the per-configuration cost of a model: validating its parameters and
    // flattening the step kernel, hop kinds interned, over a built spectrum
    let mut group = c.benchmark_group("model_build");
    for (name, spectrum, v) in [
        ("s5_v6", TraversalSpectrum::star(5), 6),
        ("s7_v8", TraversalSpectrum::star(7), 8),
        ("t12_v8", TraversalSpectrum::new(&Torus::new(12)), 8),
    ] {
        let spectrum = Arc::new(spectrum);
        group.bench_function(format!("{name}_m32"), |b| {
            b.iter(|| black_box(SpectrumModel::new(params(v, 0.0), Arc::clone(&spectrum))));
        });
    }
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
    // one served miss (S5, V = 6, M = 32, moderate load): `estimate_with`
    // builds the configuration's model, step kernel included, for every
    // point; the daemon answers on a model it built once per configuration
    let backend = ModelBackend::new();
    let s5 = Scenario::star(5);
    let point = s5.at(0.006);
    let spectrum = ScenarioSpectrum::build(&s5);
    let model = ScenarioModel::build(&s5, &spectrum).expect("S5 is modelled");
    group.bench_function("s5_miss_estimate_with", |b| {
        b.iter(|| black_box(backend.estimate_with(&point, &spectrum, &[])));
    });
    group.bench_function("s5_miss_prebuilt_model", |b| {
        b.iter(|| black_box(backend.estimate_on(&point, &model)));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_solves,
    bench_spectrum_builds,
    bench_model_builds,
    bench_saturation,
    bench_backend_sweeps
);
criterion_main!(benches);
