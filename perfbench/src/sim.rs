//! `sim_light` / `sim_heavy`: the flit-level simulator at sim-bench's
//! pinned point (S5, Enhanced-NBC, V=6, M=16, 2,000 warm-up cycles, 20,000
//! measured messages per op) at 3% and 45% channel utilisation.
//!
//! One op is `Simulation::new` + `Simulation::run` with its own seed.  Op
//! seeds come from a pinned universe of [`OP_SEEDS`] seeds per load, so
//! every op has a pinned reference report.  The workload seed picks
//! [`PICKS`] of them; a run replays the picks round after round.  Each
//! replay's time is scaled by the host probes taken just before it, and an
//! op's latency is the median of its scaled replays.

use std::sync::Arc;
use std::time::Instant;

use star_exec::ExecPool;
use star_graph::{StarGraph, Topology};
use star_routing::{EnhancedNbc, RoutingAlgorithm};
use star_sim::{SimConfig, SimReport, Simulation, TrafficPattern};

use crate::common::{
    derive, median, micros, percentile, push_host, HostSample, HostSpeed, Outcome, Pinning,
    SplitMix,
};
use crate::refs;
use crate::trace::Trace;
use crate::Args;

/// Size of the pinned op-seed universe of each load.
pub const OP_SEEDS: u64 = 32;
/// Op seeds one run replays.
const PICKS: u64 = 8;
/// Ops replayed (untraced, then traced) by a traced run: two rounds.
const TRACED_OPS: u64 = 2 * PICKS;
const SHORT_OPS: u64 = 2;
const SETUP_REPS: u64 = 3;

#[derive(Debug, Clone, Copy)]
pub struct Load {
    pub workload: &'static str,
    pub utilisation: f64,
}

pub const LIGHT: Load = Load { workload: "sim_light", utilisation: 0.03 };
pub const HEAVY: Load = Load { workload: "sim_heavy", utilisation: 0.45 };

/// The simulator seed of pool entry `index` (shared by both loads).
pub fn op_seed(index: u64) -> u64 {
    derive(0x5EED_51A7, index)
}

/// The pool entry op `op` of workload seed `seed` runs: the seed's picks,
/// in rounds.
fn pool_index(seed: u64, op: u64) -> u64 {
    let mut universe: Vec<u64> = (0..OP_SEEDS).collect();
    SplitMix::new(seed).shuffle(&mut universe);
    universe[(op % PICKS) as usize]
}

struct Net {
    topology: Arc<dyn Topology>,
    routing: Arc<dyn RoutingAlgorithm>,
}

fn build(trace: &mut Trace, op: u64) -> Net {
    let topology: Arc<dyn Topology> =
        trace.span("star-graph.build", op, || Arc::new(StarGraph::new(5)));
    let routing: Arc<dyn RoutingAlgorithm> = trace.span("star-routing.build", op, || {
        Arc::new(EnhancedNbc::for_topology(topology.as_ref(), 6))
    });
    Net { topology, routing }
}

fn config(net: &Net, load: Load, seed: u64) -> SimConfig {
    // λ_g = u·degree/(d̄·M), as sim-bench pins it
    let rate =
        load.utilisation * net.topology.degree() as f64 / (net.topology.mean_distance() * 16.0);
    SimConfig::builder()
        .message_length(16)
        .traffic_rate(rate)
        .warmup_cycles(2_000)
        .measured_messages(20_000)
        .max_cycles(4_000_000)
        .seed(seed)
        .build()
}

/// Runs one op; returns its report and wall time in µs.
fn run_op(net: &Net, load: Load, seed: u64, trace: &mut Trace, op: u64) -> (SimReport, f64) {
    let config = config(net, load, seed);
    let started = Instant::now();
    let sim = trace.span("star-sim.new", op, || {
        Simulation::new(
            Arc::clone(&net.topology),
            Arc::clone(&net.routing),
            config,
            TrafficPattern::Uniform,
        )
    });
    let report = trace.span("star-sim.run", op, || sim.run());
    let ended = Instant::now();
    trace.record("op", op, started, ended);
    (report, micros(ended - started))
}

/// The exact counts a report is checked on.
pub fn fingerprint(report: &SimReport) -> refs::SimRef {
    let s = &report.stage_skips;
    let a = report.active_cycles;
    refs::SimRef {
        cycles: report.cycles,
        active_cycles: a,
        flit_transfers: report.flit_transfers,
        stage_runs: [
            a - s.generation,
            a - s.injection,
            a - s.routing,
            a - s.switching,
            a - s.staged,
        ],
        latency_bits: report.mean_message_latency.to_bits(),
    }
}

fn check(outcome: &mut Outcome, load: Load, index: u64, report: &SimReport) {
    let got = fingerprint(report);
    let want = refs::sim(load.workload, index);
    outcome.check(!report.saturated && !report.deadlock_detected && want == Some(got), || {
        format!("{} op seed #{index}: got {got:?}, pinned {want:?}", load.workload)
    });
}

/// Setup: topology and routing build, exec-pool start and one discarded
/// warm-up op, repeated; returns the median scaled seconds and the last
/// network.
fn setup(load: Load, seed: u64, trace: &mut Trace) -> (f64, Net) {
    let mut speed = HostSpeed::default();
    let mut reps = Vec::new();
    let mut net = None;
    for rep in 0..SETUP_REPS {
        let op = u64::MAX - rep;
        let probe = speed.probe();
        let started = Instant::now();
        let built = build(trace, op);
        let _ = ExecPool::global();
        let _ = run_op(&built, load, op_seed(pool_index(seed, op)), &mut Trace::off(), op);
        reps.push((started.elapsed().as_secs_f64(), probe));
        net = Some(built);
    }
    speed.probe();
    let times: Vec<f64> = reps.iter().map(|&(s, probe)| speed.scaled(s, probe)).collect();
    (median(&times), net.expect("at least one setup rep"))
}

/// Replays ops `0..count` of the seed, each untraced and then traced;
/// returns the two total op times (µs) and the traced reports.
fn replay(
    net: &Net,
    load: Load,
    seed: u64,
    count: u64,
    trace: &mut Trace,
    outcome: &mut Outcome,
    speed: &mut HostSpeed,
) -> (f64, f64, Vec<SimReport>) {
    let (mut plain_us, mut traced_us) = (0.0, 0.0);
    let mut reports = Vec::new();
    for op in 0..count {
        let index = pool_index(seed, op);
        speed.probe();
        let (plain, us) = run_op(net, load, op_seed(index), &mut Trace::off(), op);
        check(outcome, load, index, &plain);
        plain_us += us;
        let (report, us) = run_op(net, load, op_seed(index), trace, op);
        check(outcome, load, index, &report);
        traced_us += us;
        reports.push(report);
    }
    (plain_us, traced_us, reports)
}

pub fn run(load: Load, args: &Args) -> Outcome {
    // ops and probes on one CPU; see `Pinning`
    let _pinning = Pinning::take();
    let mut outcome = Outcome::default();
    let pid = std::process::id().to_string();
    let mut speed = HostSpeed::default();
    if !args.trace {
        let (setup_s, net) = setup(load, args.seed, &mut Trace::off());
        let before = HostSample::take(&pid);
        let started = Instant::now();
        // (pick, flit transfers, µs, probe) per replay
        let mut replays = Vec::new();
        let mut op = 0;
        // at least two replays of every pick
        while started.elapsed().as_secs_f64() < args.seconds || op < 2 * PICKS {
            let index = pool_index(args.seed, op);
            let probe = speed.probe();
            let (report, us) = run_op(&net, load, op_seed(index), &mut Trace::off(), op);
            check(&mut outcome, load, index, &report);
            replays.push(((op % PICKS) as usize, report.flit_transfers, us, probe));
            op += 1;
        }
        let after = HostSample::take(&pid);
        speed.probe();
        let mut flits = vec![0u64; PICKS as usize];
        let mut times = vec![Vec::new(); PICKS as usize];
        let mut raw = vec![Vec::new(); PICKS as usize];
        for &(pick, transfers, us, probe) in &replays {
            flits[pick] = transfers;
            times[pick].push(speed.scaled(us, probe));
            raw[pick].push(us);
        }
        let flits = flits.iter().sum::<u64>() as f64;
        let push_times = |outcome: &mut Outcome, prefix: &str, times: &[Vec<f64>]| {
            // an op's latency is the median of its replays
            let latencies: Vec<f64> = times.iter().map(|t| median(t)).collect();
            let sum: f64 = latencies.iter().sum();
            outcome.push(&format!("{prefix}throughput"), flits / sum * 1e6, "1/s");
            outcome.push(&format!("{prefix}latency_p50_us"), median(&latencies), "us");
            outcome.push(&format!("{prefix}latency_p99_us"), percentile(&latencies, 0.99), "us");
        };
        push_times(&mut outcome, "", &times);
        outcome.push("setup_s", setup_s, "s");
        outcome.push("peak_rss_mb", crate::common::peak_rss_mb("self"), "MB");
        push_times(&mut outcome, "unscaled.", &raw);
        push_host(&mut outcome, &[(before, after)], &speed);
        return outcome;
    }

    let count = if args.short { SHORT_OPS } else { TRACED_OPS };
    let mut trace = Trace::on();
    let (_, net) = setup(load, args.seed, &mut trace);
    let before = HostSample::take(&pid);
    let (plain_us, traced_us, reports) =
        replay(&net, load, args.seed, count, &mut trace, &mut outcome, &mut speed);
    let after = HostSample::take(&pid);

    let sum = |f: &dyn Fn(&refs::SimRef) -> u64| -> f64 {
        reports.iter().map(|r| f(&fingerprint(r)) as f64).sum()
    };
    let active = sum(&|r| r.active_cycles);
    let flit_total = sum(&|r| r.flit_transfers);
    let run_ns = trace.total_ns("star-sim.run");
    let ms = |name: &str| median(&trace.durations(name)) / 1e6;
    outcome.push("star-graph.build_us", ms("star-graph.build") * 1e3, "us");
    outcome.push("star-routing.build_us", ms("star-routing.build") * 1e3, "us");
    outcome.push("star-sim.new_us", ms("star-sim.new") * 1e3, "us");
    outcome.push("star-sim.run_ms", ms("star-sim.run"), "ms");
    outcome.push("star-sim.cycles", sum(&|r| r.cycles), "count");
    outcome.push("star-sim.active_cycles", active, "count");
    outcome.push("star-sim.flit_transfers", flit_total, "count");
    for (i, stage) in
        ["generation", "injection", "routing", "switching", "staged"].iter().enumerate()
    {
        let name = format!("star-sim.stage_runs.{stage}");
        let runs = sum(&|r| r.stage_runs[i]);
        outcome.push(&name, runs, "count");
    }
    outcome.push("star-sim.flits_per_active_cycle", flit_total / active, "ratio");
    outcome.push("star-sim.ns_per_active_cycle", run_ns / active, "ns");
    outcome.push("star-sim.ns_per_flit", run_ns / flit_total, "ns");
    // same ops both ways: traced throughput over untraced throughput
    outcome.push("bench.trace_overhead", plain_us / traced_us, "ratio");
    outcome.push("bench.trace_coverage", trace.coverage(), "share");
    push_host(&mut outcome, &[(before, after)], &speed);
    crate::write_trace(&trace, load.workload, args.seed);
    outcome
}

/// Reference reports for the whole op-seed universe of one load.
pub fn pin(load: Load) -> Vec<(u64, refs::SimRef)> {
    let net = build(&mut Trace::off(), 0);
    (0..OP_SEEDS)
        .map(|index| {
            let (report, _) = run_op(&net, load, op_seed(index), &mut Trace::off(), index);
            assert!(
                !report.saturated && !report.deadlock_detected,
                "{} op seed #{index} saturated or deadlocked",
                load.workload
            );
            (index, fingerprint(&report))
        })
        .collect()
}
