//! The repository benchmark.  See README.md for the workloads, metrics and
//! checks.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--short]
//! perfbench --self-test
//! perfbench --pin
//! ```
//!
//! A run prints one `name value unit` line per metric, then, as the last
//! line of stdout, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`.

mod common;
mod model;
mod refs;
mod serve;
mod sim;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use common::Outcome;
use serde_json::Value;
use trace::Trace;

pub const WORKLOADS: [&str; 4] = ["sim_light", "sim_heavy", "model_sweep", "serve_mixed"];
pub const DEFAULT_SEED: u64 = 42;
/// The seed the references were not tuned on; the self-test checks it too.
pub const HELD_OUT_SEED: u64 = 7;

pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric a traced run prints, with its unit.  A workload
/// that does not call into a layer reports 0 for that layer's metrics.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("star-graph.build_us", "us"),
    ("star-routing.build_us", "us"),
    ("star-sim.new_us", "us"),
    ("star-sim.run_ms", "ms"),
    ("star-sim.cycles", "count"),
    ("star-sim.active_cycles", "count"),
    ("star-sim.flit_transfers", "count"),
    ("star-sim.stage_runs.generation", "count"),
    ("star-sim.stage_runs.injection", "count"),
    ("star-sim.stage_runs.routing", "count"),
    ("star-sim.stage_runs.switching", "count"),
    ("star-sim.stage_runs.staged", "count"),
    ("star-sim.flits_per_active_cycle", "ratio"),
    ("star-sim.ns_per_active_cycle", "ns"),
    ("star-sim.ns_per_flit", "ns"),
    ("star-core.spectrum_build_us", "us"),
    ("star-core.saturation_ms", "ms"),
    ("star-core.saturation_share", "share"),
    ("star-core.sweep_ms", "ms"),
    ("star-queueing.iterations", "count"),
    ("star-queueing.ns_per_iteration", "ns"),
    ("star-core.capped_solves", "count"),
    ("star-core.saturated_points", "count"),
    ("star-core.cold_solve_us", "us"),
    ("star-workloads.rate_grid_ms", "ms"),
    ("star-serve.bind_s", "s"),
    ("star-serve.parse_us", "us"),
    ("star-serve.hit_latency_p50_us", "us"),
    ("star-serve.miss_latency_p50_us", "us"),
    ("star-serve.hit_share", "share"),
    ("star-serve.hits", "count"),
    ("star-serve.misses", "count"),
    ("star-serve.inserted", "count"),
    ("star-serve.evictions", "count"),
    ("star-serve.coalesced", "count"),
    ("star-serve.contended", "count"),
    ("star-exec.batch_us.width1", "us"),
    ("star-exec.batch_us.width0", "us"),
    ("host.steal_share", "share"),
    ("host.runqueue_share", "share"),
    ("host.probe_us", "us"),
    ("bench.trace_overhead", "ratio"),
    ("bench.trace_coverage", "share"),
];

/// Per-layer metrics that are exact counts: identical on every traced run
/// of the same seed, whatever the host does.
pub const EXACT_COUNTS: [&str; 16] = [
    "star-sim.cycles",
    "star-sim.active_cycles",
    "star-sim.flit_transfers",
    "star-sim.stage_runs.generation",
    "star-sim.stage_runs.injection",
    "star-sim.stage_runs.routing",
    "star-sim.stage_runs.switching",
    "star-sim.stage_runs.staged",
    "star-queueing.iterations",
    "star-core.capped_solves",
    "star-core.saturated_points",
    "star-serve.hits",
    "star-serve.misses",
    "star-serve.inserted",
    "star-serve.evictions",
    "star-serve.coalesced",
];

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// A few ops per workload (the self-test's size).
    pub short: bool,
}

enum Mode {
    Run(Args),
    SelfTest,
    Pin,
}

fn parse_args(argv: &[String]) -> Result<Mode, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 15.0,
        trace: false,
        short: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?.clone(),
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds =
                    value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--short" => args.short = true,
            "--self-test" => return Ok(Mode::SelfTest),
            "--pin" => return Ok(Mode::Pin),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    Ok(Mode::Run(args))
}

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Writes a traced run's spans under `perfbench/traces/`.
pub fn write_trace(trace: &Trace, workload: &str, seed: u64) {
    let path = manifest_dir().join("traces").join(format!("{workload}-seed{seed}.tsv"));
    if let Err(e) = trace.write(&path) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

fn run_workload(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "sim_light" => Ok(sim::run(sim::LIGHT, args)),
        "sim_heavy" => Ok(sim::run(sim::HEAVY, args)),
        "model_sweep" => Ok(model::run(args)),
        "serve_mixed" => serve::run(args),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// The human-readable lines and the final JSON line of a run.
fn render(args: &Args, outcome: &Outcome) -> String {
    let mut out = String::new();
    for m in &outcome.metrics {
        let _ = writeln!(out, "{} {} {}", m.name, m.value, m.unit);
    }
    let _ = writeln!(out, "ops {} count", outcome.attempted);
    let _ = writeln!(out, "failed_ops {} count", outcome.failed);
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::new();
    for &(name, unit) in names {
        let value = outcome.metrics.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
        let value = if value.is_finite() { value } else { 0.0 };
        fields.push(format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"));
    }
    let _ = writeln!(
        out,
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(",")
    );
    out
}

fn pin() -> Result<(), String> {
    let dir = manifest_dir().join("refs");
    let mut sim_text = String::from("# workload op-seed-index cycles active_cycles flit_transfers stage_runs(gen inj route switch staged) mean_latency_bits\n");
    for load in [sim::LIGHT, sim::HEAVY] {
        for (index, r) in sim::pin(load) {
            sim_text.push_str(&r.line(load.workload, index));
            sim_text.push('\n');
        }
    }
    let mut model_text = String::from("# scenario grid_rates latencies (sat = saturated)\n");
    for line in model::pin() {
        model_text.push_str(&line);
        model_text.push('\n');
    }
    std::fs::write(dir.join("sim.txt"), sim_text).map_err(|e| e.to_string())?;
    std::fs::write(dir.join("model.txt"), model_text).map_err(|e| e.to_string())?;
    eprintln!("perfbench: pinned references under {}; rebuild to compile them in", dir.display());
    Ok(())
}

/// A run's printed metrics: (name, value, unit).
type Printed = Vec<(String, f64, String)>;

fn owned(names: &[(&str, &str)]) -> Vec<(String, String)> {
    names.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
}

/// Parses a run's last stdout line into its failed-op count and metrics.
fn parse_result(stdout: &str) -> Result<(u64, Printed), String> {
    let last = stdout.lines().last().ok_or("no output")?;
    let value = serde_json::from_str(last).map_err(|e| format!("bad result line: {e}"))?;
    let failed = value.get("failed").and_then(Value::as_u64).ok_or("no `failed`")?;
    let metrics = value
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("no `metrics`")?
        .iter()
        .map(|(name, m)| {
            let v = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Value::as_str).unwrap_or("").to_string();
            (name.clone(), v, unit)
        })
        .collect();
    Ok((failed, metrics))
}

/// One short run of this binary as a separate process.
fn invoke(exe: &Path, workload: &str, seed: u64, trace: bool) -> Result<(u64, Printed), String> {
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--short"])
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        return Err(format!("{workload}: exit {}: {stderr}", out.status));
    }
    parse_result(&String::from_utf8_lossy(&out.stdout))
}

/// Checks that a run printed exactly `names`, with finite values.
fn expect(names: &[(&str, &str)], got: &Printed, what: &str) -> Result<(), String> {
    let have: Vec<(String, String)> = got.iter().map(|(n, _, u)| (n.clone(), u.clone())).collect();
    if owned(names) != have {
        return Err(format!("{what}: metrics {have:?}, expected {:?}", owned(names)));
    }
    match got.iter().find(|(_, v, _)| !v.is_finite()) {
        Some((n, v, _)) => Err(format!("{what}: {n} = {v}")),
        None => Ok(()),
    }
}

/// Runs every workload briefly, twice traced and once untraced, on the
/// default and the held-out seed, as separate invocations of this binary.
fn self_test() -> Result<(), String> {
    let spec_path = manifest_dir().join("../BENCHMARK.json");
    let spec =
        std::fs::read_to_string(&spec_path).map_err(|e| format!("{}: {e}", spec_path.display()))?;
    let spec = serde_json::from_str(&spec).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    for (key, names) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
        let listed: Vec<(String, String)> = spec
            .get(key)
            .and_then(Value::as_array)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect();
        if listed != owned(names) {
            return Err(format!(
                "BENCHMARK.json {key} lists {listed:?}, the benchmark prints others"
            ));
        }
    }
    let exe: PathBuf = std::env::current_exe().map_err(|e| e.to_string())?;
    for workload in WORKLOADS {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            let what = format!("{workload} seed {seed}");
            let (failed, plain) = invoke(&exe, workload, seed, false)?;
            expect(&END_TO_END, &plain, &what)?;
            if let Some((n, _, _)) = plain.iter().find(|(_, v, _)| *v <= 0.0) {
                return Err(format!("{what}: end-to-end {n} is not positive"));
            }
            let (failed_a, first) = invoke(&exe, workload, seed, true)?;
            let (failed_b, second) = invoke(&exe, workload, seed, true)?;
            expect(&PER_LAYER, &first, &what)?;
            if failed + failed_a + failed_b != 0 {
                return Err(format!("{what}: failed ops {failed}/{failed_a}/{failed_b}"));
            }
            for name in EXACT_COUNTS {
                let a = first.iter().find(|m| m.0 == name).map(|m| m.1);
                let b = second.iter().find(|m| m.0 == name).map(|m| m.1);
                if a != b {
                    return Err(format!("{what}: exact count {name} differs: {a:?} vs {b:?}"));
                }
            }
            eprintln!("self-test: {what} ok");
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match parse_args(&argv) {
        Err(message) => Err(message),
        Ok(Mode::Pin) => pin(),
        Ok(Mode::SelfTest) => self_test().map(|()| eprintln!("self-test: all workloads ok")),
        Ok(Mode::Run(args)) => run_workload(&args).map(|outcome| {
            for problem in &outcome.problems {
                eprintln!("perfbench: check failed: {problem}");
            }
            print!("{}", render(&args, &outcome));
        }),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
