//! `model_sweep`: the paper's product, one latency-versus-load curve per op.
//!
//! An op is `load_rate_grid(scenario, 24)` (the saturation bisection plus
//! the grid) followed by `ModelBackend::new().evaluate_sweep` over that
//! grid.  A run evaluates every curve of a fixed design, in an order drawn
//! from the workload seed, pass after pass until its time is up.  Each
//! evaluation's time is scaled by the host probes taken just before it, and
//! a curve's latency is the median of its scaled evaluations.  The design
//! is every (network, discipline) pair of S5–S7, Q7–Q13, T8–T12 and R8–R16
//! (even torus and ring sizes, the only ones those families build), with V
//! and M stepped through the pair's valid range.  It is fixed because curve
//! costs differ by up to
//! 100× across networks and 2× across disciplines: a seed-drawn subset
//! moved the run's median curve time by 7–15% between seeds.

use std::time::Instant;

use star_core::ModelParams;
use star_exec::ExecPool;
use star_workloads::{
    load_rate_grid, Discipline, Evaluator, ModelBackend, PointEstimate, Scenario, ScenarioSpectrum,
    TopologyKind,
};

use crate::common::{
    median, micros, percentile, push_host, HostSample, HostSpeed, Outcome, Pinning, SplitMix,
};
use crate::refs::{self, Curve};
use crate::trace::Trace;
use crate::Args;

/// Grid points per curve, as the serving layer uses.
const RATES: usize = 24;
/// The solver's iteration cap: a solve that spends it did not converge.
const ITERATION_CAP: usize = 20_000;
const SETUP_REPS: u64 = 5;
/// Curves a short (self-test) run evaluates.
const SHORT_CURVES: usize = 4;

const NETWORKS: [(TopologyKind, usize); 18] = [
    (TopologyKind::Star, 5),
    (TopologyKind::Star, 6),
    (TopologyKind::Star, 7),
    (TopologyKind::Hypercube, 7),
    (TopologyKind::Hypercube, 8),
    (TopologyKind::Hypercube, 9),
    (TopologyKind::Hypercube, 10),
    (TopologyKind::Hypercube, 11),
    (TopologyKind::Hypercube, 12),
    (TopologyKind::Hypercube, 13),
    (TopologyKind::Torus, 8),
    (TopologyKind::Torus, 10),
    (TopologyKind::Torus, 12),
    (TopologyKind::Ring, 8),
    (TopologyKind::Ring, 10),
    (TopologyKind::Ring, 12),
    (TopologyKind::Ring, 14),
    (TopologyKind::Ring, 16),
];

fn valid(scenario: &Scenario) -> bool {
    matches!(scenario.model_params(0.0), Ok(Some(_)))
}

/// The fixed curve design, in canonical order.
pub fn design() -> Vec<Scenario> {
    let mut out = Vec::new();
    for (kind, size) in NETWORKS {
        let base = kind.scenario(size);
        let diameter = base.topology().diameter();
        for discipline in Discipline::ALL {
            let i = out.len();
            let floor = ModelParams::min_virtual_channels(discipline.model_discipline(), diameter);
            let m = if (i / 3) % 2 == 0 { 16 } else { 32 };
            let scenario = (floor + i % 3..floor + 8)
                .map(|v| {
                    base.clone()
                        .with_discipline(discipline)
                        .with_virtual_channels(v)
                        .with_message_length(m)
                })
                .find(valid);
            // the star closed form has no deterministic variant
            out.extend(scenario);
        }
    }
    out
}

/// The curve an op produced, for checking.
fn curve(rates: &[f64], estimates: &[PointEstimate]) -> Curve {
    Curve {
        rates: rates.to_vec(),
        latencies: estimates.iter().map(PointEstimate::latency).collect(),
    }
}

/// One op: returns the grid, the sweep and the wall time in µs.
fn run_op(scenario: &Scenario, trace: &mut Trace, op: u64) -> (Vec<f64>, Vec<PointEstimate>, f64) {
    let started = Instant::now();
    let rates = trace.span("star-core.saturation", op, || load_rate_grid(scenario, RATES));
    let estimates =
        trace.span("star-core.sweep", op, || ModelBackend::new().evaluate_sweep(scenario, &rates));
    let ended = Instant::now();
    trace.record("op", op, started, ended);
    (rates, estimates, micros(ended - started))
}

#[derive(Debug, Default)]
struct Tally {
    iterations: u64,
    capped: u64,
    saturated: u64,
}

fn check(
    outcome: &mut Outcome,
    tally: &mut Tally,
    scenario: &Scenario,
    rates: &[f64],
    estimates: &[PointEstimate],
) {
    let label = scenario.label();
    let got = curve(rates, estimates);
    let iterations: Vec<usize> =
        estimates.iter().map(|e| e.iterations().unwrap_or(ITERATION_CAP)).collect();
    let capped = iterations.iter().filter(|&&i| i >= ITERATION_CAP).count() as u64;
    tally.iterations += iterations.iter().sum::<usize>() as u64;
    tally.capped += capped;
    tally.saturated += estimates.iter().filter(|e| e.saturated).count() as u64;
    let pinned = refs::model(&label);
    outcome.check(capped == 0 && pinned.is_some_and(|p| got.matches(p, 1e-9)), || {
        format!("{label}: {capped} capped solves, curve {} vs pinned {pinned:?}", got.line(&label))
    });
}

/// Setup: scenario (topology) build, exec-pool start and one discarded
/// warm-up curve, repeated; returns the median scaled seconds.
fn setup() -> f64 {
    let mut speed = HostSpeed::default();
    let mut reps = Vec::new();
    for _ in 0..SETUP_REPS {
        let probe = speed.probe();
        let started = Instant::now();
        let scenario = TopologyKind::Star.scenario(5);
        let _ = ExecPool::global();
        let _ = run_op(&scenario, &mut Trace::off(), 0);
        reps.push((started.elapsed().as_secs_f64(), probe));
    }
    speed.probe();
    let times: Vec<f64> = reps.iter().map(|&(s, probe)| speed.scaled(s, probe)).collect();
    median(&times)
}

/// The run's curves, in seed order.
fn ordered(seed: u64, short: bool) -> Vec<Scenario> {
    let mut curves = design();
    SplitMix::new(seed).shuffle(&mut curves);
    if short {
        curves.retain(|s| s.topology().node_count() <= 256);
        curves.truncate(SHORT_CURVES);
    }
    curves
}

/// Each curve's evaluation times (µs), scaled and raw, and the probes
/// taken.
#[derive(Debug)]
struct Times {
    scaled: Vec<Vec<f64>>,
    raw: Vec<Vec<f64>>,
    speed: HostSpeed,
}

/// Evaluates the curves pass after pass until `seconds` are up, finishing
/// at least one whole pass.
fn passes(curves: &[Scenario], seconds: f64, outcome: &mut Outcome) -> Times {
    let mut speed = HostSpeed::default();
    // (curve, µs, probe) per evaluation
    let mut evaluations = Vec::new();
    let started = Instant::now();
    'passes: for pass in 0.. {
        for (op, scenario) in curves.iter().enumerate() {
            if pass > 0 && started.elapsed().as_secs_f64() >= seconds {
                break 'passes;
            }
            let probe = speed.probe();
            let (rates, estimates, us) = run_op(scenario, &mut Trace::off(), op as u64);
            check(outcome, &mut Tally::default(), scenario, &rates, &estimates);
            evaluations.push((op, us, probe));
        }
    }
    speed.probe();
    let (mut scaled, mut raw) = (vec![Vec::new(); curves.len()], vec![Vec::new(); curves.len()]);
    for &(op, us, probe) in &evaluations {
        scaled[op].push(speed.scaled(us, probe));
        raw[op].push(us);
    }
    Times { scaled, raw, speed }
}

/// Pushes throughput and latency percentiles from per-curve evaluation
/// times; a curve's latency is the median of its evaluations.
///
/// The p50 is the mean of the middle fifth of the sorted curve latencies.
/// Neighbouring curves there differ by 5–10% each, so the plain median
/// jumped by that much whenever two curves swapped ranks.
fn push_times(outcome: &mut Outcome, prefix: &str, times: &[Vec<f64>]) {
    let mut latencies: Vec<f64> = times.iter().map(|t| median(t)).collect();
    latencies.sort_by(f64::total_cmp);
    let n = latencies.len();
    let middle = &latencies[n * 2 / 5..(n * 3 / 5).max(n * 2 / 5 + 1)];
    let sum: f64 = latencies.iter().sum();
    outcome.push(&format!("{prefix}throughput"), n as f64 / sum * 1e6, "1/s");
    outcome.push(
        &format!("{prefix}latency_p50_us"),
        middle.iter().sum::<f64>() / middle.len() as f64,
        "us",
    );
    outcome.push(&format!("{prefix}latency_p99_us"), percentile(&latencies, 0.99), "us");
}

/// Evaluates each curve untraced and then traced; returns the two total
/// curve times (µs) and the traced curves' tally.
fn replay(
    curves: &[Scenario],
    trace: &mut Trace,
    outcome: &mut Outcome,
    speed: &mut HostSpeed,
) -> (f64, f64, Tally) {
    let mut tally = Tally::default();
    let (mut plain_us, mut traced_us) = (0.0, 0.0);
    for (op, scenario) in curves.iter().enumerate() {
        speed.probe();
        let (rates, estimates, us) = run_op(scenario, &mut Trace::off(), op as u64);
        check(outcome, &mut Tally::default(), scenario, &rates, &estimates);
        plain_us += us;
        let (rates, estimates, us) = run_op(scenario, trace, op as u64);
        check(outcome, &mut tally, scenario, &rates, &estimates);
        traced_us += us;
    }
    (plain_us, traced_us, tally)
}

pub fn run(args: &Args) -> Outcome {
    // curves and probes on one CPU, so the exec pool starts one worker wide;
    // see `Pinning`
    let _pinning = Pinning::take();
    let mut outcome = Outcome::default();
    let pid = std::process::id().to_string();
    let setup_s = setup();
    let curves = ordered(args.seed, args.short);
    let before = HostSample::take(&pid);
    if !args.trace {
        let times = passes(&curves, args.seconds, &mut outcome);
        let after = HostSample::take(&pid);
        push_times(&mut outcome, "", &times.scaled);
        outcome.push("setup_s", setup_s, "s");
        outcome.push("peak_rss_mb", crate::common::peak_rss_mb("self"), "MB");
        push_times(&mut outcome, "unscaled.", &times.raw);
        push_host(&mut outcome, &[(before, after)], &times.speed);
        return outcome;
    }

    let mut trace = Trace::on();
    let mut speed = HostSpeed::default();
    let (plain_us, traced_us, tally) = replay(&curves, &mut trace, &mut outcome, &mut speed);
    // spectrum builds are their own calls (outside the op spans): the op
    // builds its spectra inside load_rate_grid and evaluate_sweep
    for (i, scenario) in curves.iter().enumerate() {
        let _ = trace.span("star-core.spectrum_build", (curves.len() + i) as u64, || {
            ScenarioSpectrum::build(scenario)
        });
    }
    let after = HostSample::take(&pid);
    let saturation_ns = trace.total_ns("star-core.saturation");
    let sweep_ns = trace.total_ns("star-core.sweep");
    let per_curve = |name: &str| median(&trace.durations(name));
    outcome.push("star-core.spectrum_build_us", per_curve("star-core.spectrum_build") / 1e3, "us");
    outcome.push("star-core.saturation_ms", per_curve("star-core.saturation") / 1e6, "ms");
    outcome.push("star-core.saturation_share", saturation_ns / (saturation_ns + sweep_ns), "share");
    outcome.push("star-core.sweep_ms", per_curve("star-core.sweep") / 1e6, "ms");
    outcome.push("star-queueing.iterations", tally.iterations as f64, "count");
    outcome.push("star-queueing.ns_per_iteration", sweep_ns / tally.iterations as f64, "ns");
    outcome.push("star-core.capped_solves", tally.capped as f64, "count");
    outcome.push("star-core.saturated_points", tally.saturated as f64, "count");
    // same curves both ways: traced throughput over untraced throughput
    outcome.push("bench.trace_overhead", plain_us / traced_us, "ratio");
    outcome.push("bench.trace_coverage", trace.coverage(), "share");
    push_host(&mut outcome, &[(before, after)], &speed);
    crate::write_trace(&trace, "model_sweep", args.seed);
    outcome
}

/// Reference curves for the whole design.
pub fn pin() -> Vec<String> {
    design()
        .iter()
        .map(|scenario| {
            let (rates, estimates, _) = run_op(scenario, &mut Trace::off(), 0);
            curve(&rates, &estimates).line(&scenario.label())
        })
        .collect()
}
