//! The `star-load` binary: replay a deterministic query stream against a
//! running `star-serve` daemon and report p50/p99 latency, throughput and
//! cache hit rate.
//!
//! ```text
//! star-load --addr HOST:PORT [--queries N] [--seed N] [--pipeline N]
//!           [--connections K] [--rates N] [--json PATH] [--shutdown]
//! ```
//!
//! With `--json PATH` the measurement is appended to the JSON trajectory
//! file (how `cargo xtask serve-bench` maintains `BENCH_serve.json`); with
//! `--shutdown` the daemon is asked to drain and exit afterwards.

use std::path::PathBuf;
use std::process::ExitCode;

use star_bench::loadgen::{append_trajectory, run_load, LoadConfig};

fn usage() -> &'static str {
    "usage: star-load --addr HOST:PORT [--queries N] [--seed N] [--pipeline N]\n\
     \x20                [--connections K] [--rates N] [--json PATH] [--shutdown]\n\
     \n\
     --addr HOST:PORT   the running star-serve daemon (required)\n\
     --queries N        total queries to issue (default 2000)\n\
     --seed N           stream seed (default 7)\n\
     --pipeline N       requests in flight per batch per connection (default 8)\n\
     --connections K    concurrent connections sharing the stream (default 1)\n\
     --rates N          distinct rates per configuration (default 24)\n\
     --json PATH        append the measurement to this trajectory file\n\
     --shutdown         ask the daemon to drain and exit afterwards"
}

fn parse_args(args: &[String]) -> Result<(LoadConfig, Option<PathBuf>), String> {
    let mut config = LoadConfig::default();
    let mut json: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().map(String::as_str).ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => config.addr = value("--addr")?.to_string(),
            "--queries" => {
                config.queries =
                    value("--queries")?.parse().map_err(|e| format!("--queries: {e}"))?;
            }
            "--seed" => {
                config.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--pipeline" => {
                config.pipeline =
                    value("--pipeline")?.parse().map_err(|e| format!("--pipeline: {e}"))?;
            }
            "--connections" => {
                config.connections =
                    value("--connections")?.parse().map_err(|e| format!("--connections: {e}"))?;
            }
            "--rates" => {
                config.rates = value("--rates")?.parse().map_err(|e| format!("--rates: {e}"))?;
            }
            "--json" => json = Some(PathBuf::from(value("--json")?)),
            "--shutdown" => config.shutdown = true,
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    if config.addr.is_empty() {
        return Err(format!("--addr is required\n{}", usage()));
    }
    Ok((config, json))
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
    let report = match run_load(&config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("star-load: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", report.summary());
    if let Some(path) = json {
        let point = report.trajectory_point(&config);
        if let Err(e) = append_trajectory(&path, &point) {
            eprintln!("star-load: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("trajectory  appended to {}", path.display());
    }
    if report.errors > 0 {
        eprintln!("star-load: {} error response(s)", report.errors);
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
