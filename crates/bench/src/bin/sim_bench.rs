//! The `sim-bench` binary: the simulator flit-throughput benchmark behind
//! `cargo xtask sim-bench`.
//!
//! ```text
//! sim-bench [--messages N] [--seed N] [--points LIST] [--json PATH]
//! ```
//!
//! It runs the pinned `light` operating point — `S5`, Enhanced-NBC, `V = 6`,
//! `M = 16`, ~10% channel utilisation — and reports wall-clock flits/sec and
//! the per-stage cycle-cost breakdown the stage-skip counters afford (how
//! many active cycles each pipeline stage actually ran).
//! `--points light,moderate,heavy` sweeps the same pinned scenario across
//! several utilisations (10%/30%/45%) so the profile covers the stage-skip
//! spectrum, not just the idle-dominated end.  With `--json PATH` one
//! measurement object **per point** is appended to the JSON trajectory file
//! — how `cargo xtask sim-bench` maintains `BENCH_sim.json` at the
//! repository root.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use serde_json::Value;
use star_bench::loadgen::append_trajectory;
use star_graph::{StarGraph, Topology};
use star_routing::EnhancedNbc;
use star_sim::{ReplicateRun, SimConfig, SimReport, StageSkips, TrafficPattern};

fn usage() -> &'static str {
    "usage: sim-bench [--messages N] [--seed N] [--points LIST] [--json PATH]\n\
     \n\
     --messages N   measured messages per point (default 20000)\n\
     --seed N       simulation seed (default 42)\n\
     --points LIST  comma-separated utilisation points to profile, from\n\
     \x20              light (10%), moderate (30%), heavy (45%); default light\n\
     --json PATH    append one measurement per point to this trajectory file"
}

/// One named utilisation point of the multi-point benchmark mode.  `light`
/// is the historical pinned point every committed `BENCH_sim.json` entry
/// measures, so its flits/sec stay comparable across the whole trajectory;
/// `moderate` and `heavy` profile the busier end of the stage-skip spectrum
/// (heavy sits near but below the `S5` adaptive saturation point).
#[derive(Clone, Copy, PartialEq)]
struct BenchPoint {
    name: &'static str,
    utilisation: f64,
}

const BENCH_POINTS: [BenchPoint; 3] = [
    BenchPoint { name: "light", utilisation: 0.10 },
    BenchPoint { name: "moderate", utilisation: 0.30 },
    BenchPoint { name: "heavy", utilisation: 0.45 },
];

fn bench_point(name: &str) -> Result<BenchPoint, String> {
    BENCH_POINTS
        .iter()
        .copied()
        .find(|p| p.name == name)
        .ok_or_else(|| format!("unknown point `{name}` (expected light, moderate or heavy)"))
}

/// Knobs of the pinned benchmark scenario that the command line may override.
struct BenchConfig {
    messages: u64,
    seed: u64,
    points: Vec<BenchPoint>,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self { messages: 20_000, seed: 42, points: vec![BENCH_POINTS[0]] }
    }
}

fn parse_args(args: &[String]) -> Result<(BenchConfig, Option<PathBuf>), String> {
    let mut config = BenchConfig::default();
    let mut json: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().map(String::as_str).ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--messages" => {
                config.messages =
                    value("--messages")?.parse().map_err(|e| format!("--messages: {e}"))?;
            }
            "--seed" => {
                config.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--points" => {
                let list = value("--points")?;
                config.points = list
                    .split(',')
                    .map(str::trim)
                    .filter(|name| !name.is_empty())
                    .map(bench_point)
                    .collect::<Result<Vec<_>, _>>()?;
                if config.points.is_empty() {
                    return Err("--points needs at least one point".to_string());
                }
            }
            "--json" => json = Some(PathBuf::from(value("--json")?)),
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    Ok((config, json))
}

/// The generation rate that targets channel utilisation `u` on `topology`
/// with `M`-flit messages (`λ_g = u·degree/(d̄·M)`).
fn rate_at_utilisation(topology: &dyn Topology, u: f64, m: usize) -> f64 {
    u * topology.degree() as f64 / (topology.mean_distance() * m as f64)
}

/// Runs the pinned benchmark scenario at one utilisation point and times it.
fn timed_run(config: &BenchConfig, point: BenchPoint) -> (SimReport, f64) {
    let topology: Arc<dyn Topology> = Arc::new(StarGraph::new(5));
    let routing = Arc::new(EnhancedNbc::for_topology(topology.as_ref(), 6));
    let rate = rate_at_utilisation(topology.as_ref(), point.utilisation, 16);
    let sim_config = SimConfig::builder()
        .message_length(16)
        .traffic_rate(rate)
        .warmup_cycles(2_000)
        .measured_messages(config.messages)
        .max_cycles(4_000_000)
        .seed(config.seed)
        .build();
    let started = Instant::now();
    let report = ReplicateRun::new(topology, routing, sim_config, TrafficPattern::Uniform, 1)
        .run()
        .runs
        .remove(0);
    (report, started.elapsed().as_secs_f64())
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

/// The timing as a JSON object.
fn timing_json(seconds: f64, flits_per_sec: f64) -> Value {
    Value::Object(vec![
        ("seconds".to_string(), Value::from(round3(seconds))),
        ("flits_per_sec".to_string(), Value::from(flits_per_sec.round())),
    ])
}

/// The stage-skip counters as a JSON object.
fn skips_json(skips: &StageSkips) -> Value {
    Value::Object(vec![
        ("generation".to_string(), Value::from(skips.generation)),
        ("injection".to_string(), Value::from(skips.injection)),
        ("routing".to_string(), Value::from(skips.routing)),
        ("switching".to_string(), Value::from(skips.switching)),
        ("staged".to_string(), Value::from(skips.staged)),
    ])
}

/// Prints the per-stage cycle-cost breakdown the skip counters afford: of
/// the cycles where *anything* happened, how many each stage actually ran.
fn print_stage_breakdown(report: &SimReport) {
    let active = report.active_cycles;
    let skips = &report.stage_skips;
    println!("stages      active cycles {active} (of {} total)", report.cycles);
    for (stage, skipped) in [
        ("generation", skips.generation),
        ("injection", skips.injection),
        ("routing", skips.routing),
        ("switching", skips.switching),
        ("staged", skips.staged),
    ] {
        let ran = active - skipped;
        let pct = if active > 0 { ran as f64 / active as f64 * 100.0 } else { 0.0 };
        println!("  {stage:<10}  ran {ran:>10}  skipped {skipped:>10}  ({pct:5.1}% of active)");
    }
}

fn bench(config: &BenchConfig, json: Option<&PathBuf>) -> Result<(), String> {
    for (i, &point) in config.points.iter().enumerate() {
        if i > 0 {
            println!();
        }
        bench_one(config, point, json)?;
    }
    Ok(())
}

/// Benchmarks one utilisation point, prints the profile and appends one
/// trajectory object.
fn bench_one(
    config: &BenchConfig,
    point: BenchPoint,
    json: Option<&PathBuf>,
) -> Result<(), String> {
    let (report, seconds) = timed_run(config, point);
    if report.saturated || report.deadlock_detected {
        return Err(format!("the {} benchmark point must run below saturation", point.name));
    }
    let flits_per_sec = report.flit_transfers as f64 / seconds;
    println!(
        "point       {} ({:.0}% util): {} / {} / V{} / M{} @ rate {:.6} (seed {})",
        point.name,
        point.utilisation * 100.0,
        report.topology,
        report.routing,
        report.virtual_channels,
        report.message_length,
        report.offered_rate,
        config.seed
    );
    println!("cycles      {} ({} flit transfers)", report.cycles, report.flit_transfers);
    print_stage_breakdown(&report);
    println!("time        {seconds:.3}s  ({flits_per_sec:.0} flits/sec)");
    if let Some(path) = json {
        let entry = Value::Object(vec![
            (
                "config".to_string(),
                Value::Object(vec![
                    ("topology".to_string(), Value::from(report.topology.clone())),
                    ("routing".to_string(), Value::from(report.routing.clone())),
                    ("virtual_channels".to_string(), Value::from(report.virtual_channels)),
                    ("message_length".to_string(), Value::from(report.message_length)),
                    ("point".to_string(), Value::from(point.name)),
                    ("utilisation".to_string(), Value::from(point.utilisation)),
                    ("rate".to_string(), Value::from(report.offered_rate)),
                    ("messages".to_string(), Value::from(config.messages)),
                    ("seed".to_string(), Value::from(config.seed)),
                ]),
            ),
            ("cycles".to_string(), Value::from(report.cycles)),
            ("flits".to_string(), Value::from(report.flit_transfers)),
            ("mean_latency".to_string(), Value::from(round3(report.mean_message_latency))),
            ("active_cycles".to_string(), Value::from(report.active_cycles)),
            ("stage_skips".to_string(), skips_json(&report.stage_skips)),
            ("event".to_string(), timing_json(seconds, flits_per_sec)),
        ]);
        append_trajectory(path, &entry).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("trajectory  appended to {}", path.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (config, json) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    match bench(&config, json.as_ref()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sim-bench: {e}");
            ExitCode::FAILURE
        }
    }
}
