//! Criterion benchmark: the serving wire's per-query JSON work — decoding a
//! request line (`Request::parse`), building one (`query_line`, the load
//! generator's side) and encoding a cold solve's payload
//! (`encode_estimate`) — over the `default_config_pool()` configurations at
//! their serving-grid rates.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use star_serve::protocol::{query_line, Query, SolveMode};
use star_serve::Request;
use star_workloads::{
    default_config_pool, encode_estimate, load_rate_grid, Evaluator as _, ModelBackend,
};

fn bench_wire(c: &mut Criterion) {
    let backend = ModelBackend::new();
    let mut queries = Vec::new();
    let mut estimates = Vec::new();
    for wire in default_config_pool() {
        let scenario = wire.scenario();
        for rate in load_rate_grid(&scenario, 4) {
            let id = queries.len() as u64;
            queries.push(Query { id, wire, rate, mode: SolveMode::Exact });
            estimates.push(backend.evaluate(&scenario.at(rate)));
        }
    }
    let lines: Vec<String> = queries.iter().map(query_line).collect();
    let mut group = c.benchmark_group("wire");
    group.bench_function("request_parse_pool", |b| {
        b.iter(|| lines.iter().filter(|line| Request::parse(black_box(line)).is_ok()).count());
    });
    group.bench_function("query_line_pool", |b| {
        b.iter(|| queries.iter().map(|q| query_line(black_box(q)).len()).sum::<usize>());
    });
    group.bench_function("encode_estimate_pool", |b| {
        b.iter(|| estimates.iter().map(|e| encode_estimate(black_box(e)).len()).sum::<usize>());
    });
    group.finish();
}

criterion_group!(benches, bench_wire);
criterion_main!(benches);
