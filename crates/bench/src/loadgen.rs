//! The `star-load` generator: replay a deterministic mixed query stream
//! against a running `star-serve` daemon and measure what serving costs.
//!
//! The stream is a pure function of the [`LoadConfig`] (xoshiro-seeded, no
//! wall-clock anywhere in the *generation*), drawn over a pinned pool of
//! configurations spanning all four topology families and three
//! disciplines, with per-configuration rate grids placed between 20% and
//! 85% of each configuration's model-predicted saturation rate.  Configs
//! are drawn with a min-of-two-draws bias (earlier pool entries are hotter)
//! so the stream has the skew that makes a cache interesting; rates are
//! uniform draws.
//!
//! Requests are pipelined in fixed-size batches across
//! [`LoadConfig::connections`] concurrent connections (batches dealt
//! round-robin, so every connection sees the same mix) — one connection
//! cannot observe the daemon's sharded-cache win; contention needs
//! cross-connection traffic.  The per-query service latency sample is the
//! batch round-trip divided by the batch size — the *amortized* latency a
//! pipelining client experiences — and p50/p99 are taken over those
//! samples.  Throughput is queries over total wall-clock.  The cache hit
//! rate is the fraction of responses the daemon answered verbatim from its
//! solve cache (`"cached":"exact"`).
//!
//! [`append_trajectory`] maintains `BENCH_serve.json`: a JSON array of
//! measurement points, one appended per `cargo xtask serve-bench` run, so
//! the serving path has a perf trajectory just like the figures have CSVs.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;
use star_serve::protocol::{query_line, Query, SolveMode};
use star_workloads::{load_rate_grid, WireScenario};

/// What to replay and how hard.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Daemon address (`HOST:PORT`).
    pub addr: String,
    /// Total queries to issue.
    pub queries: usize,
    /// Stream seed — same seed, same stream, byte for byte.
    pub seed: u64,
    /// Requests in flight per batch per connection.
    pub pipeline: usize,
    /// Concurrent connections replaying the stream (batches dealt
    /// round-robin across them).
    pub connections: usize,
    /// Distinct rates per configuration (the rate grid resolution; with
    /// `queries` well above `pool × rates`, repeats drive the hit rate).
    pub rates: usize,
    /// Send a `shutdown` request after measuring (for harnesses that own
    /// the daemon's lifetime).
    pub shutdown: bool,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            addr: String::new(),
            queries: 2000,
            seed: 7,
            pipeline: 8,
            connections: 1,
            rates: 24,
            shutdown: false,
        }
    }
}

/// The pinned configuration pool: all four families, three disciplines,
/// everything inside the analytical model's validated ranges.  Order
/// matters — earlier entries are drawn more often.  This is
/// [`star_workloads::default_config_pool`], the same list the daemon's
/// `--prewarm pool` solves before listening.
#[must_use]
pub fn config_pool() -> Vec<WireScenario> {
    star_workloads::default_config_pool()
}

/// The deterministic query stream for a load config (ids are sequential
/// from 0; the stream never depends on daemon behaviour).
#[must_use]
pub fn query_stream(config: &LoadConfig) -> Vec<Query> {
    let pool = config_pool();
    // the shared grid keeps generated rates bit-identical to the ones the
    // daemon's `--prewarm` pass solves, so prewarmed traffic hits verbatim
    let grids: Vec<Vec<f64>> =
        pool.iter().map(|wire| load_rate_grid(&wire.scenario(), config.rates)).collect();
    let mut rng = StdRng::seed_from_u64(config.seed);
    (0..config.queries as u64)
        .map(|id| {
            // min of two uniform draws: configuration popularity is skewed
            // towards the front of the pool, like real query traffic
            let first = rng.random_range(0..pool.len());
            let second = rng.random_range(0..pool.len());
            let pick = first.min(second);
            let rate = grids[pick][rng.random_range(0..grids[pick].len())];
            Query { id, wire: pool[pick], rate, mode: SolveMode::Exact }
        })
        .collect()
}

/// What a replay measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Queries issued (and responses received).
    pub queries: u64,
    /// Responses with `"status":"error"`.
    pub errors: u64,
    /// Response counts by `cached` outcome (`cold`/`exact`).
    pub outcomes: BTreeMap<String, u64>,
    /// Fraction of queries answered verbatim from the solve cache.
    pub hit_rate: f64,
    /// Total wall-clock of the replay in seconds.
    pub elapsed_s: f64,
    /// Queries per second over the whole replay.
    pub qps: f64,
    /// Median amortized per-query latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile amortized per-query latency, microseconds.
    pub p99_us: f64,
    /// The daemon's own `stats` snapshot after the replay.
    pub stats: Value,
}

impl LoadReport {
    /// The report as a `BENCH_serve.json` trajectory point, carrying the
    /// load config that produced it so points stay comparable.
    #[must_use]
    pub fn trajectory_point(&self, config: &LoadConfig) -> Value {
        let outcomes =
            self.outcomes.iter().map(|(name, count)| (name.clone(), Value::from(*count))).collect();
        Value::Object(vec![
            (
                "config".to_string(),
                Value::Object(vec![
                    ("queries".to_string(), Value::from(config.queries)),
                    ("seed".to_string(), Value::from(config.seed)),
                    ("pipeline".to_string(), Value::from(config.pipeline)),
                    ("connections".to_string(), Value::from(config.connections)),
                    ("rates".to_string(), Value::from(config.rates)),
                    ("pool".to_string(), Value::from(config_pool().len())),
                ]),
            ),
            ("queries".to_string(), Value::from(self.queries)),
            ("errors".to_string(), Value::from(self.errors)),
            ("hit_rate".to_string(), Value::from(self.hit_rate)),
            ("qps".to_string(), Value::from(round3(self.qps))),
            ("p50_us".to_string(), Value::from(round3(self.p50_us))),
            ("p99_us".to_string(), Value::from(round3(self.p99_us))),
            ("outcomes".to_string(), Value::Object(outcomes)),
            ("daemon_stats".to_string(), self.stats.clone()),
        ])
    }

    /// A human-readable summary block.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "queries     {}\nerrors      {}\nhit rate    {:.1}%\nthroughput  {:.0} q/s\n\
             latency     p50 {:.1} µs, p99 {:.1} µs (amortized per query)\noutcomes    {:?}",
            self.queries,
            self.errors,
            self.hit_rate * 100.0,
            self.qps,
            self.p50_us,
            self.p99_us,
            self.outcomes,
        )
    }
}

fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let index = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[index.min(sorted.len() - 1)]
}

fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// One connection's tallies, merged into the [`LoadReport`] afterwards.
struct ConnectionTally {
    outcomes: BTreeMap<String, u64>,
    errors: u64,
    samples_us: Vec<f64>,
}

/// Replays one connection's share of the batches, pipelined batch by
/// batch, checking per-connection response order.
fn replay_connection(addr: &str, batches: &[&[Query]]) -> io::Result<ConnectionTally> {
    let conn = TcpStream::connect(addr)?;
    conn.set_nodelay(true)?;
    let mut reader = BufReader::new(conn.try_clone()?);
    let mut writer = BufWriter::new(conn);
    let mut tally = ConnectionTally {
        outcomes: BTreeMap::new(),
        errors: 0,
        samples_us: Vec::with_capacity(batches.iter().map(|b| b.len()).sum()),
    };
    let mut line = String::new();
    for batch in batches {
        let batch_started = Instant::now();
        for query in *batch {
            writer.write_all(query_line(query).as_bytes())?;
            writer.write_all(b"\n")?;
        }
        writer.flush()?;
        for query in *batch {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(invalid("daemon closed mid-replay".to_string()));
            }
            let response = serde_json::from_str(line.trim_end())
                .map_err(|e| invalid(format!("bad response: {e}")))?;
            // responses come back in request order; anything else is a
            // daemon ordering bug the replay must not paper over
            if response.get("id").and_then(Value::as_u64) != Some(query.id) {
                return Err(invalid(format!("out-of-order response for id {}", query.id)));
            }
            match response.get("status").and_then(Value::as_str) {
                Some("ok") => {
                    let outcome = response
                        .get("cached")
                        .and_then(Value::as_str)
                        .unwrap_or("unknown")
                        .to_string();
                    *tally.outcomes.entry(outcome).or_insert(0) += 1;
                }
                _ => tally.errors += 1,
            }
        }
        let amortized_us = batch_started.elapsed().as_secs_f64() * 1e6 / batch.len() as f64;
        tally.samples_us.extend(std::iter::repeat_n(amortized_us, batch.len()));
    }
    Ok(tally)
}

/// Replays the config's stream against the daemon and measures it.
///
/// The stream's batches are dealt round-robin across
/// [`LoadConfig::connections`] concurrent connections; each connection
/// pipelines its own batches independently, and the tallies merge into one
/// report.  The stats snapshot (and the optional shutdown) goes over a
/// fresh connection after every replay connection has finished, so it sees
/// the post-replay cache state.
///
/// # Errors
/// Connection failures, short reads, out-of-order or malformed responses.
///
/// # Panics
/// Panics if a replay thread itself panics (it never should — failures
/// come back as errors).
pub fn run_load(config: &LoadConfig) -> io::Result<LoadReport> {
    let stream = query_stream(config);
    let batches: Vec<&[Query]> = stream.chunks(config.pipeline.max(1)).collect();
    let connections = config.connections.max(1).min(batches.len().max(1));

    let started = Instant::now();
    let tallies: Vec<io::Result<ConnectionTally>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|worker| {
                let mine: Vec<&[Query]> =
                    batches.iter().copied().skip(worker).step_by(connections).collect();
                let addr = config.addr.as_str();
                scope.spawn(move || replay_connection(addr, &mine))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("replay thread panicked")).collect()
    });
    let elapsed_s = started.elapsed().as_secs_f64();

    let mut outcomes: BTreeMap<String, u64> = BTreeMap::new();
    let mut errors = 0u64;
    let mut samples_us: Vec<f64> = Vec::with_capacity(stream.len());
    for tally in tallies {
        let tally = tally?;
        for (outcome, count) in tally.outcomes {
            *outcomes.entry(outcome).or_insert(0) += count;
        }
        errors += tally.errors;
        samples_us.extend(tally.samples_us);
    }

    // one stats snapshot after the replay, through the same wire
    let conn = TcpStream::connect(&config.addr)?;
    conn.set_nodelay(true)?;
    let mut reader = BufReader::new(conn.try_clone()?);
    let mut writer = BufWriter::new(conn);
    let mut line = String::new();
    writeln!(writer, "{{\"id\":{},\"op\":\"stats\"}}", stream.len())?;
    writer.flush()?;
    reader.read_line(&mut line)?;
    let stats = serde_json::from_str(line.trim_end())
        .ok()
        .and_then(|v: Value| v.get("stats").cloned())
        .unwrap_or(Value::Null);
    if config.shutdown {
        writeln!(writer, "{{\"id\":{},\"op\":\"shutdown\"}}", stream.len() + 1)?;
        writer.flush()?;
        line.clear();
        let _ = reader.read_line(&mut line);
    }

    samples_us.sort_by(f64::total_cmp);
    let queries = stream.len() as u64;
    let exact_hits = outcomes.get("exact").copied().unwrap_or(0);
    Ok(LoadReport {
        queries,
        errors,
        hit_rate: exact_hits as f64 / queries.max(1) as f64,
        elapsed_s,
        qps: queries as f64 / elapsed_s.max(f64::MIN_POSITIVE),
        p50_us: percentile(&samples_us, 0.50),
        p99_us: percentile(&samples_us, 0.99),
        outcomes,
        stats,
    })
}

/// Appends a trajectory point to a `BENCH_serve.json`-style file (a JSON
/// array; created when absent, replaced when unreadable).
///
/// # Errors
/// Filesystem errors reading or writing the file.
pub fn append_trajectory(path: &Path, point: &Value) -> io::Result<()> {
    let mut points: Vec<Value> = match fs::read_to_string(path) {
        Ok(existing) => serde_json::from_str(&existing)
            .ok()
            .and_then(|v: Value| v.as_array().map(<[Value]>::to_vec))
            .unwrap_or_default(),
        Err(_) => Vec::new(),
    };
    points.push(point.clone());
    let mut out = String::from("[\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str("  ");
        out.push_str(&p.to_string());
        out.push_str(if i + 1 < points.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_mixed_and_in_model_range() {
        let config = LoadConfig { queries: 400, ..LoadConfig::default() };
        let a = query_stream(&config);
        let b = query_stream(&config);
        assert_eq!(a, b, "same seed must replay the same stream");
        assert_eq!(a.len(), 400);
        assert!(a.iter().enumerate().all(|(i, q)| q.id == i as u64));
        // the stream really mixes several configurations
        let distinct: std::collections::BTreeSet<String> =
            a.iter().map(|q| q.wire.network_label()).collect();
        assert!(distinct.len() >= 4, "stream covers the pool: {distinct:?}");
        // every drawn point is inside the model's validated range and
        // below saturation (grid tops out at 85% of the predicted knee)
        for query in &a {
            assert!(query.rate > 0.0);
            assert!(matches!(query.wire.scenario().model_params(query.rate), Ok(Some(_))));
        }
        // a different seed is a different stream
        let c = query_stream(&LoadConfig { seed: 8, queries: 400, ..LoadConfig::default() });
        assert_ne!(a, c);
    }

    #[test]
    fn trajectory_files_append_and_survive_garbage() {
        let dir = std::env::temp_dir().join("star-load-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_serve.json");
        let _ = std::fs::remove_file(&path);
        let point = Value::Object(vec![("qps".to_string(), Value::from(1000.0))]);
        append_trajectory(&path, &point).unwrap();
        append_trajectory(&path, &point).unwrap();
        let parsed = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(parsed.as_array().unwrap().len(), 2);
        // a corrupt file is replaced, not a crash
        std::fs::write(&path, "not json").unwrap();
        append_trajectory(&path, &point).unwrap();
        let parsed = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(parsed.as_array().unwrap().len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn percentiles_pick_from_sorted_samples() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((percentile(&sorted, 0.5) - 50.0).abs() <= 1.0);
        assert!((percentile(&sorted, 0.99) - 99.0).abs() <= 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
