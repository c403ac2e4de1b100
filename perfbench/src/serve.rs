//! `serve_mixed`: `star-serve --prewarm pool` as a child process, driven
//! closed-loop by one client thread over one connection.
//!
//! The client sends batches of [`BATCH`] pipelined exact-mode queries over
//! `default_config_pool()` and waits for all their responses before the
//! next batch.  Configurations are drawn min-of-two (earlier pool entries
//! are hotter, as in star-load).  80% of rates come from the prewarmed
//! `load_rate_grid` (cache reads); 20% are never-repeated rates between
//! the grid's ends (each a cold solve plus a cache insert).  A query's
//! latency runs from its batch's send to its response line, scaled by the
//! host probes the client takes every [`PROBE_EVERY`] between batches.  Responses are
//! stored raw and checked only after the timed phase.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde_json::Value;
use star_exec::ExecPool;
use star_serve::protocol::query_line;
use star_serve::{Daemon, Query, Request, ServeConfig, SolveMode};
use star_workloads::{
    default_config_pool, encode_estimate, load_rate_grid, ModelBackend, OperatingPoint,
    ScenarioSpectrum, WireScenario,
};

use crate::common::{
    derive, median, micros, peak_rss_mb, percentile, push_host, HostSample, HostSpeed, Outcome,
    Pinning, SplitMix,
};
use crate::trace::Trace;
use crate::Args;

/// Queries per pipelined batch.
const BATCH: usize = 16;
/// Share of queries that ask for a never-seen rate.
const MISS_SHARE: f64 = 0.2;
/// Rates per configuration on the prewarmed grid (the daemon's default).
const GRID_RATES: usize = 24;
/// Queries a traced run replays (twice: untraced, then traced).
const TRACED_QUERIES: usize = 40_000;
const SHORT_QUERIES: usize = 1_600;
/// Misses re-solved in-process for the byte-identity check.
const MISS_SAMPLE: usize = 256;
/// Miss batches replayed on the exec pool for the `star-exec` metrics.
const POOL_BATCHES: usize = 64;
/// Daemons an untraced run drives one after another; see [`segments`].
const SEGMENTS: u64 = 5;
/// How often the client probes the host's speed between batches.
const PROBE_EVERY: Duration = Duration::from_millis(250);

/// The configuration pool with its shared rate grids and spectra.
struct Pool {
    wires: Vec<WireScenario>,
    grids: Vec<Vec<f64>>,
    spectra: Vec<Arc<ScenarioSpectrum>>,
}

impl Pool {
    fn build(trace: &mut Trace) -> Self {
        let wires = default_config_pool();
        let base = 1 << 40;
        let grids = wires
            .iter()
            .enumerate()
            .map(|(i, w)| {
                trace.span("star-workloads.rate_grid", base + i as u64, || {
                    load_rate_grid(&w.scenario(), GRID_RATES)
                })
            })
            .collect();
        let spectra = wires
            .iter()
            .enumerate()
            .map(|(i, w)| {
                trace.span("star-core.spectrum_build", base + 64 + i as u64, || {
                    Arc::new(ScenarioSpectrum::build(&w.scenario()))
                })
            })
            .collect();
        Self { wires, grids, spectra }
    }

    fn point(&self, plan: Plan) -> OperatingPoint {
        self.wires[plan.config].scenario().at(plan.rate)
    }

    /// The canonical payload of an in-process cold solve.
    fn expected(&self, plan: Plan) -> String {
        encode_estimate(&ModelBackend::new().estimate_with(
            &self.point(plan),
            &self.spectra[plan.config],
            &[],
        ))
    }
}

/// One planned query.
#[derive(Debug, Clone, Copy)]
struct Plan {
    config: usize,
    rate: f64,
    on_grid: bool,
}

/// The seeded query stream.
struct Stream<'a> {
    pool: &'a Pool,
    rng: SplitMix,
    used: HashSet<u64>,
}

impl<'a> Stream<'a> {
    fn new(pool: &'a Pool, seed: u64) -> Self {
        let mut used = HashSet::new();
        for grid in &pool.grids {
            used.extend(grid.iter().map(|r| r.to_bits()));
        }
        Self { pool, rng: SplitMix::new(derive(seed, 0x5E7E)), used }
    }

    fn next(&mut self) -> Plan {
        let n = self.pool.wires.len();
        let config = self.rng.below(n).min(self.rng.below(n));
        let grid = &self.pool.grids[config];
        if self.rng.unit() >= MISS_SHARE {
            return Plan { config, rate: grid[self.rng.below(grid.len())], on_grid: true };
        }
        loop {
            let (lo, hi) = (grid[0], grid[grid.len() - 1]);
            let rate = lo + (hi - lo) * self.rng.unit();
            if self.used.insert(rate.to_bits()) {
                return Plan { config, rate, on_grid: false };
            }
        }
    }

    fn line(&self, id: u64, plan: Plan) -> String {
        query_line(&Query {
            id,
            wire: self.pool.wires[plan.config],
            rate: plan.rate,
            mode: SolveMode::Exact,
        })
    }
}

/// A spawned daemon, killed on drop if it has not exited.
struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

impl Server {
    /// Spawns `star-serve --prewarm pool`, on one CPU when `cpu` names
    /// one; returns it and the scaled seconds from spawn to its handshake
    /// line.
    fn spawn(cpu: Option<usize>) -> Result<(Self, f64), String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?.with_file_name("star-serve");
        let mut speed = HostSpeed::default();
        let probe = speed.probe();
        let started = Instant::now();
        let mut cmd = match cpu {
            Some(cpu) => {
                let mut c = Command::new("taskset");
                c.args(["-c", &cpu.to_string()]).arg(&exe);
                c
            }
            None => Command::new(&exe),
        };
        let mut child = cmd
            .args(["--prewarm", "pool"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let setup = speed.scaled(started.elapsed().as_secs_f64(), probe);
        let addr = line.trim().strip_prefix("star-serve listening on ").map(str::to_string);
        let daemon = Self { child, _stdout: stdout, addr: addr.clone().unwrap_or_default() };
        match (read, addr) {
            (Ok(_), Some(_)) => Ok((daemon, setup)),
            _ => Err(format!("star-serve handshake failed: {line:?}")),
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Sends `shutdown` and waits (bounded) for the process to exit.
    fn shutdown(mut self, conn: &mut Conn) -> Result<(), String> {
        conn.request(r#"{"op":"shutdown","id":0}"#)?;
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        Err("star-serve did not exit after shutdown".to_string())
    }
}

struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_read_timeout(Some(Duration::from_secs(60))).map_err(|e| e.to_string())?;
        let reader =
            BufReader::with_capacity(1 << 16, stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Self { writer: stream, reader })
    }

    /// One control request and its response line.
    fn request(&mut self, line: &str) -> Result<String, String> {
        self.writer.write_all(format!("{line}\n").as_bytes()).map_err(|e| e.to_string())?;
        let mut response = String::new();
        self.reader.read_line(&mut response).map_err(|e| e.to_string())?;
        Ok(response)
    }
}

/// What one pass over the stream recorded.
struct Pass {
    plans: Vec<Plan>,
    /// Every response line, newline-terminated, in arrival order.
    responses: Vec<u8>,
    latencies_us: Vec<f64>,
    /// `latencies_us`, each scaled by the latest host probe.
    scaled_us: Vec<f64>,
    /// Queries answered per second in each whole second of the pass, raw
    /// and scaled by the window's median probe (probe time left out).
    per_second: Vec<f64>,
    scaled_per_second: Vec<f64>,
    speed: HostSpeed,
    wall_s: f64,
    stats: Value,
    rss_mb: f64,
}

/// Drives one daemon closed-loop until `queries` are answered or the time
/// runs out, then reads its stats.
fn drive(
    conn: &mut Conn,
    pool: &Pool,
    seed: u64,
    queries: Option<usize>,
    seconds: f64,
    trace: &mut Trace,
) -> Result<Pass, String> {
    let mut stream = Stream::new(pool, seed);
    let mut plans = Vec::new();
    let mut responses = Vec::with_capacity(1 << 24);
    let mut latencies_us = Vec::new();
    // the latest probe when each batch was sent, and (queries per second,
    // latest probe) of each whole-second window
    let (mut batch_probes, mut windows) = (Vec::new(), Vec::new());
    let mut batch = Vec::with_capacity(BATCH * 160);
    let mut speed = HostSpeed::default();
    let mut probe = speed.probe();
    let started = Instant::now();
    let mut probed = started;
    // start, queries answered before it, and the probes' own time in it
    let mut window = (started, 0usize, Duration::ZERO);
    let mut op = 0u64;
    loop {
        if probed.elapsed() >= PROBE_EVERY {
            let at = Instant::now();
            probe = speed.probe();
            probed = Instant::now();
            window.2 += probed - at;
        }
        let done = match queries {
            Some(n) => plans.len() >= n,
            None => started.elapsed().as_secs_f64() >= seconds,
        };
        // a pass shorter than a second reports its one partial window
        if window.0.elapsed().as_secs_f64() >= 1.0 || (done && windows.is_empty()) {
            let busy = (window.0.elapsed() - window.2).as_secs_f64();
            windows.push(((plans.len() - window.1) as f64 / busy, probe));
            window = (Instant::now(), plans.len(), Duration::ZERO);
        }
        if done {
            break;
        }
        batch.clear();
        for _ in 0..BATCH {
            let plan = stream.next();
            batch.extend_from_slice(stream.line(plans.len() as u64, plan).as_bytes());
            batch.push(b'\n');
            plans.push(plan);
        }
        let sent = Instant::now();
        conn.writer.write_all(&batch).map_err(|e| format!("send: {e}"))?;
        let written = Instant::now();
        for _ in 0..BATCH {
            let n =
                conn.reader.read_until(b'\n', &mut responses).map_err(|e| format!("recv: {e}"))?;
            if n == 0 {
                return Err("star-serve closed the connection".to_string());
            }
            latencies_us.push(micros(sent.elapsed()));
        }
        batch_probes.push(probe);
        let received = Instant::now();
        trace.record("star-serve.send", op, sent, written);
        trace.record("star-serve.recv", op, written, received);
        trace.record("op", op, sent, received);
        op += 1;
    }
    let wall_s = started.elapsed().as_secs_f64();
    speed.probe();
    let scaled_us = latencies_us
        .chunks(BATCH)
        .zip(&batch_probes)
        .flat_map(|(chunk, &probe)| chunk.iter().map(move |&us| (us, probe)))
        .map(|(us, probe)| speed.scaled(us, probe))
        .collect();
    let per_second = windows.iter().map(|w| w.0).collect();
    // a window's time per query, scaled
    let scaled_per_second =
        windows.iter().map(|&(qps, p)| 1.0 / speed.scaled(1.0 / qps, p)).collect();
    let stats_line = conn.request(r#"{"op":"stats","id":0}"#)?;
    let stats = serde_json::from_str(&stats_line).map_err(|e| format!("stats reply: {e}"))?;
    Ok(Pass {
        plans,
        responses,
        latencies_us,
        scaled_us,
        per_second,
        scaled_per_second,
        speed,
        wall_s,
        stats,
        rss_mb: 0.0,
    })
}

/// Checks every response of a pass: `ok`, in order, and — for every grid
/// point and a seeded sample of misses — byte-equal to an in-process cold
/// solve.  Returns each query's `cached` outcome (true = cache hit).
fn check(
    pass: &Pass,
    pool: &Pool,
    seed: u64,
    expected: &HashMap<(usize, u64), String>,
    outcome: &mut Outcome,
) -> Vec<bool> {
    let mut sampled = 0;
    let mut hits = Vec::with_capacity(pass.plans.len());
    let mut lines = pass.responses.split(|&b| b == b'\n');
    for (id, plan) in pass.plans.iter().enumerate() {
        let line = std::str::from_utf8(lines.next().unwrap_or_default()).unwrap_or("");
        let parsed = serde_json::from_str(line).ok();
        let field = |k: &str| parsed.as_ref().and_then(|v: &Value| v.get(k)).cloned();
        let cached = field("cached").and_then(|v| v.as_str().map(str::to_string));
        hits.push(cached.as_deref() == Some("exact"));
        let payload =
            line.find("\"result\":").map(|at| &line[at + 9..line.len().saturating_sub(1)]);
        let want = if plan.on_grid {
            expected.get(&(plan.config, plan.rate.to_bits())).cloned()
        } else if sampled < MISS_SAMPLE && derive(seed, id as u64) % 16 == 0 {
            sampled += 1;
            Some(pool.expected(*plan))
        } else {
            None
        };
        let ok = field("status").and_then(|v| v.as_str().map(str::to_string)).as_deref() == Some("ok")
            && field("id").and_then(|v| v.as_u64()) == Some(id as u64)
            // a never-seen rate is a cold solve; a grid rate is a hit unless
            // the daemon evicted it
            && (cached.as_deref() == Some("cold") || (plan.on_grid && cached.as_deref() == Some("exact")))
            && want.as_deref().is_none_or(|w| payload == Some(w));
        outcome.check(ok, || {
            format!("query {id} ({plan:?}): response {line:?}, expected payload {want:?}")
        });
    }
    hits
}

/// Payloads of every grid point, solved in-process.
fn grid_payloads(pool: &Pool) -> HashMap<(usize, u64), String> {
    let mut out = HashMap::new();
    for (config, grid) in pool.grids.iter().enumerate() {
        for &rate in grid {
            out.insert(
                (config, rate.to_bits()),
                pool.expected(Plan { config, rate, on_grid: true }),
            );
        }
    }
    out
}

fn counter(stats: &Value, key: &str) -> f64 {
    stats
        .get("stats")
        .and_then(|s| s.get("solves"))
        .and_then(|s| s.get(key))
        .and_then(Value::as_u64)
        .unwrap_or(0) as f64
}

/// One daemon's pass: connect, drive, read VmHWM, shut down.
fn serve_pass(
    daemon: Server,
    pool: &Pool,
    seed: u64,
    queries: Option<usize>,
    seconds: f64,
    trace: &mut Trace,
) -> Result<(Pass, HostSample, HostSample), String> {
    let pid = daemon.pid();
    let mut conn = Conn::open(&daemon.addr)?;
    let before = HostSample::take(&pid);
    let mut pass = drive(&mut conn, pool, seed, queries, seconds, trace)?;
    let after = HostSample::take(&pid);
    pass.rss_mb = peak_rss_mb(&pid);
    daemon.shutdown(&mut conn)?;
    Ok((pass, before, after))
}

/// The untraced run: [`SEGMENTS`] fresh daemons, each spawned (its spawn is
/// a set-up rep) and driven for an equal share of the time with its own
/// stream seed.  Every metric is the median over the segments.
///
/// Identical daemons differed by up to 1.7× in per-batch cost here, hit-only
/// batches as much as batches with misses, while the host probe moved by
/// 10–20%.  A run's figure then depended on which daemon it drew; the
/// median of five daemons does not.
fn segments(
    args: &Args,
    pool: &Pool,
    cpu: Option<usize>,
    expected: &HashMap<(usize, u64), String>,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let mut figures: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let (mut hosts, mut probes) = (Vec::new(), HostSpeed::default());
    let mut grid_misses = 0.0;
    for segment in 0..SEGMENTS {
        let seed = derive(args.seed, segment);
        let (daemon, setup_s) = Server::spawn(cpu)?;
        let seconds = args.seconds / SEGMENTS as f64;
        let (pass, before, after) =
            serve_pass(daemon, pool, seed, None, seconds, &mut Trace::off())?;
        check(&pass, pool, seed, expected, outcome);
        let mut add = |name, value| figures.entry(name).or_default().push(value);
        // the median one-second window: a host stall slows the windows it
        // hits, not the figure
        add("throughput", median(&pass.scaled_per_second));
        add("latency_p50_us", median(&pass.scaled_us));
        add("latency_p99_us", percentile(&pass.scaled_us, 0.99));
        add("setup_s", setup_s);
        add("peak_rss_mb", pass.rss_mb);
        add("unscaled.throughput", median(&pass.per_second));
        add("unscaled.latency_p50_us", median(&pass.latencies_us));
        add("unscaled.latency_p99_us", percentile(&pass.latencies_us, 0.99));
        hosts.push((before, after));
        probes.probes.extend(&pass.speed.probes);
        // grid queries the daemon missed (0 unless it evicted a grid entry)
        let off_grid = pass.plans.iter().filter(|p| !p.on_grid).count() as f64;
        grid_misses += counter(&pass.stats, "misses") - off_grid;
    }
    for (name, unit) in [
        ("throughput", "1/s"),
        ("latency_p50_us", "us"),
        ("latency_p99_us", "us"),
        ("setup_s", "s"),
        ("peak_rss_mb", "MB"),
        ("unscaled.throughput", "1/s"),
        ("unscaled.latency_p50_us", "us"),
        ("unscaled.latency_p99_us", "us"),
    ] {
        outcome.push(name, median(&figures[name]), unit);
    }
    push_host(outcome, &hosts, &probes);
    outcome.push("star-serve.grid_misses", grid_misses, "count");
    Ok(())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut trace = if args.trace { Trace::on() } else { Trace::off() };
    let pool = Pool::build(&mut trace);
    // client and daemons share one CPU; see `Pinning`
    let pinning = Pinning::take();
    let cpu = pinning.as_ref().map(|p| p.cpu);
    let expected = grid_payloads(&pool);
    if !args.trace {
        segments(args, &pool, cpu, &expected, &mut outcome)?;
        return Ok(outcome);
    }
    let (daemon, _) = Server::spawn(cpu)?;

    let queries = if args.short { SHORT_QUERIES } else { TRACED_QUERIES };
    let (plain, before, _) =
        serve_pass(daemon, &pool, args.seed, Some(queries), 0.0, &mut Trace::off())?;
    let (fresh, _) = Server::spawn(cpu)?;
    let (traced, _, after) = serve_pass(fresh, &pool, args.seed, Some(queries), 0.0, &mut trace)?;
    // the in-process calls below run on every CPU, as the daemon's pool would
    drop(pinning);
    check(&plain, &pool, args.seed, &expected, &mut outcome);
    let hits = check(&traced, &pool, args.seed, &expected, &mut outcome);
    // the two daemons saw the same stream: their cache counters must agree
    for key in ["hits", "misses", "inserted", "evictions", "coalesced"] {
        let (a, b) = (counter(&plain.stats, key), counter(&traced.stats, key));
        outcome
            .check(a == b, || format!("cache counter {key}: {a} vs {b} across identical streams"));
    }

    // in-process calls over the same stream's inputs
    let mut ids = 2u64 << 40;
    let mut next_id = || {
        ids += 1;
        ids
    };
    let stream = Stream::new(&pool, args.seed);
    let lines: Vec<String> =
        traced.plans.iter().enumerate().map(|(i, p)| stream.line(i as u64, *p)).collect();
    let parsed = trace.span("star-serve.parse", next_id(), || {
        lines.iter().filter(|l| Request::parse(l).is_ok()).count()
    });
    outcome.check(parsed == lines.len(), || {
        format!("{parsed} of {} request lines parse", lines.len())
    });
    let misses: Vec<(usize, Plan)> =
        traced.plans.iter().copied().enumerate().filter(|(_, p)| !p.on_grid).collect();
    for &(_, plan) in misses.iter().take(MISS_SAMPLE) {
        let point = pool.point(plan);
        let spectrum = &pool.spectra[plan.config];
        let _ = trace.span("star-core.cold_solve", next_id(), || {
            ModelBackend::new().estimate_with(&point, spectrum, &[])
        });
    }
    let mut batches: Vec<Vec<(OperatingPoint, Arc<ScenarioSpectrum>)>> = Vec::new();
    for chunk in traced.plans.chunks(BATCH) {
        let jobs: Vec<_> = chunk
            .iter()
            .filter(|p| !p.on_grid)
            .map(|p| (pool.point(*p), Arc::clone(&pool.spectra[p.config])))
            .collect();
        if !jobs.is_empty() && batches.len() < POOL_BATCHES {
            batches.push(jobs);
        }
    }
    for (name, width) in [("star-exec.batch.width1", 1), ("star-exec.batch.width0", 0)] {
        for jobs in &batches {
            let _ = trace.span(name, next_id(), || {
                ExecPool::global_ordered(width, jobs, |_, (point, spectrum)| {
                    ModelBackend::new().estimate_with(point, spectrum, &[])
                })
            });
        }
    }
    let bind_id = next_id();
    let bound = trace.span("star-serve.bind", bind_id, || {
        Daemon::bind(ServeConfig { prewarm: default_config_pool(), ..ServeConfig::default() })
    });
    outcome.check(bound.is_ok(), || {
        format!("in-process Daemon::bind failed: {:?}", bound.as_ref().err())
    });
    drop(bound);

    let split = |want_hit: bool| -> Vec<f64> {
        traced
            .latencies_us
            .iter()
            .zip(&hits)
            .filter(|(_, &h)| h == want_hit)
            .map(|(l, _)| *l)
            .collect()
    };
    let (hit_lat, miss_lat) = (split(true), split(false));
    let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    let mean = |name: &str| {
        let d = trace.durations(name);
        d.iter().sum::<f64>() / d.len().max(1) as f64
    };
    outcome.push("star-core.spectrum_build_us", mean("star-core.spectrum_build") / 1e3, "us");
    outcome.push("star-core.saturation_ms", mean("star-workloads.rate_grid") / 1e6, "ms");
    outcome.push(
        "star-core.cold_solve_us",
        med(&trace.durations("star-core.cold_solve")) / 1e3,
        "us",
    );
    outcome.push("star-workloads.rate_grid_ms", mean("star-workloads.rate_grid") / 1e6, "ms");
    outcome.push("star-serve.bind_s", trace.total_ns("star-serve.bind") / 1e9, "s");
    outcome.push(
        "star-serve.parse_us",
        trace.total_ns("star-serve.parse") / 1e3 / lines.len() as f64,
        "us",
    );
    outcome.push("star-serve.hit_latency_p50_us", med(&hit_lat), "us");
    outcome.push("star-serve.miss_latency_p50_us", med(&miss_lat), "us");
    let (h, m) = (counter(&traced.stats, "hits"), counter(&traced.stats, "misses"));
    outcome.push("star-serve.hit_share", h / (h + m).max(1.0), "share");
    for key in ["hits", "misses", "inserted", "evictions", "coalesced", "contended"] {
        outcome.push(&format!("star-serve.{key}"), counter(&traced.stats, key), "count");
    }
    outcome.push(
        "star-exec.batch_us.width1",
        med(&trace.durations("star-exec.batch.width1")) / 1e3,
        "us",
    );
    outcome.push(
        "star-exec.batch_us.width0",
        med(&trace.durations("star-exec.batch.width0")) / 1e3,
        "us",
    );
    let qps = |p: &Pass| p.plans.len() as f64 / p.wall_s;
    outcome.push("bench.trace_overhead", qps(&traced) / qps(&plain), "ratio");
    outcome.push("bench.trace_coverage", trace.coverage(), "share");
    push_host(&mut outcome, &[(before, after)], &traced.speed);
    crate::write_trace(&trace, "serve_mixed", args.seed);
    Ok(outcome)
}
