//! Workspace automation, invoked as `cargo xtask <command>` through the
//! `[alias]` in `.cargo/config.toml`.
//!
//! * `cargo xtask ci` — the full verification pipeline, in the same order the
//!   GitHub Actions workflow runs it: a **benchmark lockfile check**
//!   (`cargo metadata --locked` on `perfbench/Cargo.toml`, so a change to
//!   the crates' dependency edges fails instead of rewriting the
//!   benchmark's `Cargo.lock`), a **trajectory check** (every `BENCH_*.json`
//!   at the repository root must parse as a JSON array, so a conflicted
//!   trajectory fails here rather than at the next recording), rustfmt
//!   check, clippy with warnings
//!   denied, release build, tests, doctests, a **knee audit** (the
//!   `#[ignore]`d tests of `tests/saturation_exact.rs`, in release: every
//!   certified knee search over S4–S6, Q5–Q9, T6–T10 and R8–R14 held bit for
//!   bit to a bisection over converged solves), a smoke run of every criterion
//!   bench in `--test` mode (each bench body executes once), a replicate
//!   smoke (one `star_vs_hypercube` point simulated with `--replicates 3`,
//!   so the multi-seed fan-out path runs on every push), a **torus smoke**
//!   (one simulated `T6` point checked against the generic traversal-spectrum
//!   model with `--check-band 25`, so the topology-plugin path — BFS census,
//!   spectrum model and simulator on a non-closed-form topology — is
//!   cross-validated on every push), a **shard smoke** (the same small sweep
//!   run unsharded and as `--shard 1/2` + `--shard 2/2`, merged with the
//!   library behind `merge-shards`, and byte-compared — the cross-process
//!   sharding contract, enforced on every push), a **serve smoke** (two
//!   `star-serve` launches on ephemeral ports: first a cold daemon whose
//!   deterministic query mix is replayed twice over TCP, every other query
//!   sent with the retired `"mode":"warm"`, every answer byte-compared to a
//!   batch [`star_workloads::ModelBackend`] solve of the same operating
//!   point with the second pass served from the solve cache; then a **prewarmed** daemon (`--prewarm pool`, 4 shards) whose
//!   very first queries must hit `exact` with the same byte-identity, and
//!   which must survive a `star-load --connections 4` replay with zero
//!   errors — the serving contract plus the scale-out path, enforced on
//!   every push), a **perfbench self-test** (`bash perfbench/run.sh
//!   --self-test`: every benchmark workload briefly on both seeds, each
//!   output checked against its pinned reference, so `failed_ops` stays 0),
//!   and `cargo doc --no-deps` with `RUSTDOCFLAGS="-D warnings"` so broken
//!   intra-doc links fail the pipeline.
//! * `cargo xtask figure1` — regenerates the paper's Figure 1 CSVs under
//!   `target/experiments/` via the `figure1` harness binary (quick budget and
//!   all available cores by default; extra arguments are forwarded, e.g.
//!   `cargo xtask figure1 -- --budget thorough --replicates 5 --threads 4`,
//!   including `--shard K/N` for sharded regeneration and
//!   `--topology hypercube|torus|ring` to replay the grid on another
//!   family).
//! * `cargo xtask merge-shards --out <merged.csv> <partial.csv>...` — merges
//!   the partial CSVs written by `--shard K/N` harness runs into one CSV
//!   byte-identical to an unsharded run (validating that the shard set is
//!   complete and consistent).
//! * `cargo xtask bench-record --workload W [--seed S] [--seconds T]` —
//!   the one tool that writes perf trajectories: runs the repository
//!   benchmark (`perfbench/run.sh`, unchanged; seed 42 and 25 s by default)
//!   on one workload, untraced and then traced, and appends one point with
//!   both final result lines, the git rev, a dirty flag and
//!   `available_parallelism` to `BENCH_<W>.json` at the repository root.
//!   `BENCH_sim.json` and `BENCH_serve.json` are frozen history from the
//!   harnesses it replaced.

use std::env;
use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::Instant;

use serde_json::Value;

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => ("help", &[][..]),
    };
    match command {
        "ci" => ci(),
        "figure1" => figure1(rest),
        "merge-shards" => merge_shards(rest),
        "bench-record" => match bench_record(rest) {
            Ok(path) => {
                println!("\nbench-record: point appended to {path}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("\nbench-record FAILED: {e}");
                ExitCode::FAILURE
            }
        },
        "serve-smoke" => match serve_smoke() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("\nserve-smoke FAILED: {e}");
                ExitCode::FAILURE
            }
        },
        "help" | "--help" | "-h" => {
            print_help();
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown xtask command: {other}\n");
            print_help();
            ExitCode::FAILURE
        }
    }
}

fn print_help() {
    eprintln!("usage: cargo xtask <command>\n");
    eprintln!("commands:");
    eprintln!(
        "  ci            bench-lockfile check, bench-trajectories check, fmt-check, clippy \
         -D warnings, build, test, \
         doctest, knee audit, bench smoke, replicate smoke, torus smoke, shard smoke, serve smoke, perfbench \
         self-test, doc -D warnings"
    );
    eprintln!(
        "  figure1       regenerate the paper's Figure 1 CSVs (forwards extra args, \
         e.g. --budget thorough --replicates 5 --threads 4 --shard 1/2 --topology torus)"
    );
    eprintln!(
        "  merge-shards  --out <merged.csv> <partial.csv>... \
         merge --shard K/N partial CSVs into the unsharded bytes"
    );
    eprintln!(
        "  bench-record  --workload W [--seed S] [--seconds T]: run perfbench/run.sh on W \
         untraced and traced, append both result lines to BENCH_<W>.json with the git rev"
    );
    eprintln!(
        "  serve-smoke   just the ci serving-contract check, cold and prewarmed (needs release \
         builds: cargo build --release -p star-serve -p star-bench)"
    );
}

/// The cargo binary driving this xtask (set by cargo itself).
fn cargo() -> String {
    env::var("CARGO").unwrap_or_else(|_| "cargo".to_string())
}

/// Runs one pipeline step, echoing it and failing fast on error.
fn step(name: &str, args: &[&str]) -> Result<(), String> {
    step_env(name, args, &[])
}

/// [`step`] with extra environment variables (e.g. `RUSTDOCFLAGS` for the
/// doc step).
fn step_env(name: &str, args: &[&str], envs: &[(&str, &str)]) -> Result<(), String> {
    let mut command = Command::new(cargo());
    command.args(args).envs(envs.iter().copied());
    run_step(name, &format!("cargo {}", args.join(" ")), command)
}

/// Runs one pipeline step's command (echoed as `shown`), failing fast on
/// error.
fn run_step(name: &str, shown: &str, mut command: Command) -> Result<(), String> {
    println!("\n==> {name}: {shown}");
    let started = Instant::now();
    let status = command.status().map_err(|e| format!("{name}: failed to spawn {shown}: {e}"))?;
    if status.success() {
        println!("==> {name}: ok ({:.1}s)", started.elapsed().as_secs_f64());
        Ok(())
    } else {
        Err(format!("{name}: {shown} exited with {status}"))
    }
}

fn ci() -> ExitCode {
    let pipeline: &[(&str, &[&str])] = &[
        ("fmt", &["fmt", "--all", "--check"]),
        ("clippy", &["clippy", "--workspace", "--all-targets", "--", "-D", "warnings"]),
        ("build", &["build", "--release", "--workspace"]),
        // --all-targets excludes doctests, which run in their own step below
        ("test", &["test", "-q", "--workspace", "--all-targets"]),
        ("doctest", &["test", "-q", "--workspace", "--doc"]),
        // the certified knee searches against a bisection over converged
        // solves on a wider set of networks than the test step's, in release
        // because every converged probe is a full solve
        (
            "knee-audit",
            &["test", "-q", "--release", "--test", "saturation_exact", "--", "--ignored"],
        ),
        // scoped to the criterion benches; the workspace-wide smoke (which
        // also drags every lib test harness through bench mode) is a separate
        // CI job
        ("bench-smoke", &["bench", "-p", "star-bench", "--", "--test"]),
        // one multi-replicate simulated point (S4/Q5, R = 3, quick budget)
        // so the (point × replicate) fan-out, aggregation and CI columns are
        // exercised end-to-end on every push
        (
            "replicate-smoke",
            &[
                "run",
                "--release",
                "-p",
                "star-bench",
                "--bin",
                "star_vs_hypercube",
                "--",
                "--topology",
                "star,hypercube",
                "--n",
                "4",
                "--points",
                "1",
                "--replicates",
                "3",
                "--budget",
                "quick",
            ],
        ),
        // a short simulated torus sweep cross-validated against the generic
        // traversal-spectrum model: the topology-plugin path (no closed
        // form anywhere) must agree with the simulator within the moderate
        // tolerance band on every push (the gate covers the grid's points
        // up to moderate utilisation; the top point sits beyond it)
        (
            "torus-smoke",
            &[
                "run",
                "--release",
                "-p",
                "star-bench",
                "--bin",
                "star_vs_hypercube",
                "--",
                "--topology",
                "torus",
                "--torus-k",
                "6",
                "--points",
                "3",
                "--replicates",
                "3",
                "--budget",
                "quick",
                "--check-band",
                "25",
            ],
        ),
    ];
    let started = Instant::now();
    // the benchmark package pins its own lockfile; a change to the crates'
    // dependency edges would rewrite it on the next benchmark build, so it
    // fails here instead (`--locked`: resolve, but never write the lock)
    let mut lockfile = Command::new(cargo());
    lockfile
        .args(["metadata", "--offline", "--locked", "--format-version", "1"])
        .args(["--manifest-path", "perfbench/Cargo.toml"])
        .stdout(Stdio::null());
    if let Err(e) = run_step(
        "bench-lockfile",
        "cargo metadata --offline --locked --format-version 1 --manifest-path perfbench/Cargo.toml",
        lockfile,
    ) {
        eprintln!("\nci FAILED at {e}");
        return ExitCode::FAILURE;
    }
    // a trajectory that no longer parses (a merge-conflict marker, a
    // trailing comma) fails here, not at the next recording
    println!("\n==> bench-trajectories: every BENCH_*.json reads as a JSON array");
    match bench_trajectories() {
        Ok(checked) => println!("==> bench-trajectories: ok ({checked} files)"),
        Err(e) => {
            eprintln!("\nci FAILED at bench-trajectories: {e}");
            return ExitCode::FAILURE;
        }
    }
    for (name, args) in pipeline {
        if let Err(e) = step(name, args) {
            eprintln!("\nci FAILED at {e}");
            return ExitCode::FAILURE;
        }
    }
    // the cross-process sharding contract, end to end: a small sweep run
    // unsharded and as two shards must merge to byte-identical CSV
    if let Err(e) = shard_smoke() {
        eprintln!("\nci FAILED at shard-smoke: {e}");
        return ExitCode::FAILURE;
    }
    // the serving contract, end to end: the daemon must answer the wire
    // protocol byte-identically to a batch ModelBackend solve, serve the
    // second pass from its cache, and drain on the `shutdown` op
    if let Err(e) = serve_smoke() {
        eprintln!("\nci FAILED at serve-smoke: {e}");
        return ExitCode::FAILURE;
    }
    // the repository benchmark, briefly: every workload on both seeds must
    // reproduce its pinned references (`failed_ops` 0) and print every
    // metric BENCHMARK.json declares
    let mut self_test = Command::new("bash");
    self_test.args(["perfbench/run.sh", "--self-test"]);
    if let Err(e) = run_step("perfbench-self-test", "bash perfbench/run.sh --self-test", self_test)
    {
        eprintln!("\nci FAILED at {e}");
        return ExitCode::FAILURE;
    }
    // rustdoc warnings (broken intra-doc links, missing docs) fail the
    // pipeline: REPRODUCING.md and the crate docs are part of the contract
    if let Err(e) =
        step_env("doc", &["doc", "--no-deps", "--workspace"], &[("RUSTDOCFLAGS", "-D warnings")])
    {
        eprintln!("\nci FAILED at {e}");
        return ExitCode::FAILURE;
    }
    println!("\nci passed in {:.1}s", started.elapsed().as_secs_f64());
    ExitCode::SUCCESS
}

/// Runs one small `star_vs_hypercube` sweep unsharded and as 2 shards, then
/// checks that the merged partials reproduce the unsharded CSV byte for
/// byte.
fn shard_smoke() -> Result<(), String> {
    let base: &[&str] = &[
        "run",
        "--release",
        "-p",
        "star-bench",
        "--bin",
        "star_vs_hypercube",
        "--",
        "--topology",
        "star,hypercube",
        "--n",
        "4",
        "--points",
        "2",
        "--replicates",
        "2",
        "--budget",
        "quick",
    ];
    let with_shard = |shard: &'static str| -> Vec<&'static str> {
        let mut args = base.to_vec();
        if !shard.is_empty() {
            args.extend(["--shard", shard]);
        }
        args
    };
    step("shard-smoke (unsharded)", &with_shard(""))?;
    let dir = Path::new("target/experiments");
    let reference = fs::read_to_string(dir.join("star_vs_hypercube.csv"))
        .map_err(|e| format!("reading unsharded reference: {e}"))?;
    step("shard-smoke (shard 1/2)", &with_shard("1/2"))?;
    step("shard-smoke (shard 2/2)", &with_shard("2/2"))?;
    let partials: Vec<String> = ["1of2", "2of2"]
        .iter()
        .map(|label| {
            let path = dir.join(format!("star_vs_hypercube.shard{label}.csv"));
            fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))
        })
        .collect::<Result<_, _>>()?;
    let merged = star_exec::merge_shard_csvs(&partials).map_err(|e| e.to_string())?;
    if merged != reference {
        return Err("merged shard CSVs differ from the unsharded run".to_string());
    }
    println!("==> shard-smoke: merged 2 shards byte-identical to the unsharded CSV");
    Ok(())
}

/// Path of a release-profile binary built by the `build` step.
fn release_bin(name: &str) -> PathBuf {
    Path::new("target/release").join(format!("{name}{}", env::consts::EXE_SUFFIX))
}

/// A spawned `star-serve` child with the ephemeral address it reported on
/// its handshake line.
struct ServeDaemon {
    child: Child,
    addr: String,
}

/// Launches `target/release/star-serve` on an ephemeral port (with any
/// extra flags, e.g. `--shards`/`--prewarm`) and parses the
/// `star-serve listening on HOST:PORT` handshake from its stdout.  The
/// handshake only prints after prewarming finishes, so a caller never
/// races a cold cache it asked to be warm.
fn spawn_daemon(extra: &[&str]) -> Result<ServeDaemon, String> {
    let binary = release_bin("star-serve");
    let mut child = Command::new(&binary)
        .args(["--addr", "127.0.0.1:0"])
        .args(extra)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", binary.display()))?;
    let stdout = child.stdout.take().ok_or("daemon stdout was not captured")?;
    let mut line = String::new();
    if let Err(e) = BufReader::new(stdout).read_line(&mut line) {
        let _ = child.kill();
        let _ = child.wait();
        return Err(format!("reading daemon handshake: {e}"));
    }
    match line.trim().strip_prefix("star-serve listening on ") {
        Some(addr) if !addr.is_empty() => Ok(ServeDaemon { child, addr: addr.to_string() }),
        _ => {
            let _ = child.kill();
            let _ = child.wait();
            Err(format!("unexpected daemon handshake: {line:?}"))
        }
    }
}

/// The serving contract, checked end to end in two launches.
///
/// **Cold:** a deterministic query mix replayed twice, every other query
/// in the retired `warm` mode; every `result` payload byte-identical to a
/// batch [`star_workloads::ModelBackend`] solve whatever the mode, and the
/// whole second pass served from the solve cache.  Then a
/// `star-load --connections 4` replay against the same still-cold grid,
/// whose concurrent connections miss the same keys at once, must finish
/// with zero error responses, and the daemon must drain cleanly through
/// the wire `shutdown` op.
///
/// **Prewarmed:** a daemon launched with `--shards 4 --prewarm pool` must
/// answer its *first* query per pool configuration as an `exact` cache hit
/// with the same byte-identity, then survive a
/// `star-load --connections 4` replay with zero error responses.
fn serve_smoke() -> Result<(), String> {
    cold_serve_smoke()?;
    prewarmed_serve_smoke()
}

/// The cold half of [`serve_smoke`].
fn cold_serve_smoke() -> Result<(), String> {
    use star_workloads::{encode_estimate, Evaluator, ModelBackend, Scenario};

    println!("\n==> serve-smoke: daemon round-trip vs batch ModelBackend");
    let started = Instant::now();
    // (wire fields, equivalent batch scenario, rate) — distinct rates so the
    // first pass is all cold solves and the second pass is all cache hits
    let mut cases: Vec<(String, Scenario, f64)> = Vec::new();
    for rate in [0.001, 0.002, 0.003] {
        cases.push((
            format!("\"topology\":\"star\",\"size\":4,\"m\":16,\"rate\":{rate}"),
            Scenario::star(4).with_message_length(16),
            rate,
        ));
    }
    for rate in [0.0005, 0.001] {
        cases.push((
            format!("\"topology\":\"hypercube\",\"size\":5,\"rate\":{rate}"),
            Scenario::hypercube(5),
            rate,
        ));
    }
    let backend = ModelBackend::new();
    let expected: Vec<String> =
        cases.iter().map(|(_, s, r)| encode_estimate(&backend.evaluate(&s.at(*r)))).collect();

    let mut daemon = spawn_daemon(&[])?;
    let outcome = (|| -> Result<(), String> {
        let stream = TcpStream::connect(&daemon.addr)
            .map_err(|e| format!("connecting to {}: {e}", daemon.addr))?;
        let _ = stream.set_nodelay(true);
        let mut reader =
            BufReader::new(stream.try_clone().map_err(|e| format!("cloning stream: {e}"))?);
        let mut writer = &stream;
        let mut next_line = || -> Result<String, String> {
            let mut line = String::new();
            reader.read_line(&mut line).map_err(|e| format!("reading response: {e}"))?;
            Ok(line)
        };
        for (pass, expect_cached) in [(1u64, "cold"), (2, "exact")] {
            let mut batch = String::new();
            for (i, (fields, _, _)) in cases.iter().enumerate() {
                let id = pass * 100 + i as u64;
                // every answer is exact, whichever mode the query names
                let mode = if i % 2 == 0 { "exact" } else { "warm" };
                batch.push_str(&format!("{{\"id\":{id},{fields},\"mode\":\"{mode}\"}}\n"));
            }
            writer.write_all(batch.as_bytes()).map_err(|e| format!("writing pass {pass}: {e}"))?;
            for (i, (fields, _, _)) in cases.iter().enumerate() {
                let id = pass * 100 + i as u64;
                let response = next_line()?;
                let prefix = format!(
                    "{{\"id\":{id},\"status\":\"ok\",\"cached\":\"{expect_cached}\",\"hits\":"
                );
                if !response.starts_with(&prefix) {
                    return Err(format!(
                        "pass {pass} query {{{fields}}}: expected {expect_cached}, got {response:?}"
                    ));
                }
                if expect_cached == "exact" {
                    let hits: u64 = response[prefix.len()..]
                        .chars()
                        .take_while(char::is_ascii_digit)
                        .collect::<String>()
                        .parse()
                        .map_err(|e| format!("unparseable hit counter in {response:?}: {e}"))?;
                    if hits == 0 {
                        return Err(format!("cached response reports zero hits: {response:?}"));
                    }
                }
                let suffix = format!("\"result\":{}}}\n", expected[i]);
                if !response.ends_with(&suffix) {
                    return Err(format!(
                        "pass {pass} query {{{fields}}}: daemon answer diverges from the batch \
                         ModelBackend solve\n  daemon: {response:?}\n  batch result: {:?}",
                        expected[i]
                    ));
                }
            }
        }
        // concurrent duplicate misses, end to end: the replay's four
        // connections draw from the same still-cold rate grid
        star_load(&daemon.addr, &[])?;
        writer
            .write_all(b"{\"op\":\"stats\",\"id\":900}\n{\"op\":\"shutdown\",\"id\":901}\n")
            .map_err(|e| format!("writing stats/shutdown: {e}"))?;
        let stats = next_line()?;
        if !stats.starts_with("{\"id\":900,\"status\":\"ok\",\"stats\":") {
            return Err(format!("unexpected stats response: {stats:?}"));
        }
        let shutdown = next_line()?;
        if shutdown.trim() != "{\"id\":901,\"status\":\"ok\",\"shutdown\":true}" {
            return Err(format!("unexpected shutdown response: {shutdown:?}"));
        }
        Ok(())
    })();
    if outcome.is_err() {
        let _ = daemon.child.kill();
    }
    let status = daemon.child.wait().map_err(|e| format!("waiting for daemon: {e}"))?;
    outcome?;
    if !status.success() {
        return Err(format!("daemon exited with {status}"));
    }
    println!(
        "==> serve-smoke: {} queries, every other one naming the retired warm mode, \
         byte-identical to batch, second pass cached, cold 4-connection replay clean ({:.1}s)",
        cases.len() * 2,
        started.elapsed().as_secs_f64()
    );
    Ok(())
}

/// The prewarmed half of [`serve_smoke`]: sharded cache, `--prewarm pool`,
/// first-query exact hits, and a zero-error `--connections 4` replay.
fn prewarmed_serve_smoke() -> Result<(), String> {
    use star_workloads::{
        default_config_pool, encode_estimate, load_rate_grid, Evaluator, ModelBackend,
    };

    println!("\n==> serve-smoke: prewarmed daemon (4 shards, pool) + --connections 4 load");
    let started = Instant::now();
    const PREWARM_RATES: usize = 6;
    let mut daemon = spawn_daemon(&[
        "--shards",
        "4",
        "--prewarm",
        "pool",
        "--prewarm-rates",
        &PREWARM_RATES.to_string(),
    ])?;
    let outcome = (|| -> Result<(), String> {
        let backend = ModelBackend::new();
        let stream = TcpStream::connect(&daemon.addr)
            .map_err(|e| format!("connecting to {}: {e}", daemon.addr))?;
        let _ = stream.set_nodelay(true);
        let mut reader =
            BufReader::new(stream.try_clone().map_err(|e| format!("cloning stream: {e}"))?);
        let mut writer = &stream;
        // the daemon has served nothing yet: its first query per pool
        // configuration, at a mid-grid rate, must already be an exact hit
        // and byte-identical to the batch solve of the same point
        for (i, wire) in default_config_pool().iter().enumerate() {
            let scenario = wire.scenario();
            let rate = load_rate_grid(&scenario, PREWARM_RATES)[PREWARM_RATES / 2];
            let expected = encode_estimate(&backend.evaluate(&scenario.at(rate)));
            let request = format!(
                "{{\"id\":{i},\"topology\":\"{}\",\"size\":{},\"discipline\":\"{}\",\"vc\":{},\
                 \"m\":{},\"rate\":{rate},\"mode\":\"exact\"}}\n",
                wire.kind.name(),
                wire.size,
                wire.discipline.name(),
                wire.virtual_channels,
                wire.message_length,
            );
            writer.write_all(request.as_bytes()).map_err(|e| format!("writing query {i}: {e}"))?;
            let mut response = String::new();
            reader.read_line(&mut response).map_err(|e| format!("reading response {i}: {e}"))?;
            let prefix = format!("{{\"id\":{i},\"status\":\"ok\",\"cached\":\"exact\",\"hits\":");
            if !response.starts_with(&prefix) {
                return Err(format!(
                    "prewarmed first query {} was not an exact hit: {response:?}",
                    wire.network_label()
                ));
            }
            let suffix = format!("\"result\":{expected}}}\n");
            if !response.ends_with(&suffix) {
                return Err(format!(
                    "prewarmed answer for {} diverges from the batch ModelBackend solve\n  \
                     daemon: {response:?}\n  batch result: {expected:?}",
                    wire.network_label()
                ));
            }
        }
        drop(reader);
        drop(stream);
        star_load(&daemon.addr, &["--rates", &PREWARM_RATES.to_string(), "--shutdown"])
    })();
    if outcome.is_err() {
        let _ = daemon.child.kill();
    }
    let status = daemon.child.wait().map_err(|e| format!("waiting for daemon: {e}"))?;
    outcome?;
    if !status.success() {
        return Err(format!("daemon exited with {status}"));
    }
    println!(
        "==> serve-smoke: prewarmed first queries hit exact byte-identically, \
         4-connection replay clean ({:.1}s)",
        started.elapsed().as_secs_f64()
    );
    Ok(())
}

/// Replays an 800-query, 8-deep pipelined `star-load` stream on four
/// connections against the daemon at `addr`, plus any `extra` flags.
/// `star-load` exits non-zero on any error response.
fn star_load(addr: &str, extra: &[&str]) -> Result<(), String> {
    let load = release_bin("star-load");
    let mut args = vec![
        "--addr",
        addr,
        "--queries",
        "800",
        "--seed",
        "7",
        "--pipeline",
        "8",
        "--connections",
        "4",
    ];
    args.extend_from_slice(extra);
    println!("==> star-load {}", args.join(" "));
    let status = Command::new(&load)
        .args(&args)
        .status()
        .map_err(|e| format!("spawning {}: {e}", load.display()))?;
    if !status.success() {
        return Err(format!("star-load --connections 4 exited with {status}"));
    }
    Ok(())
}

/// What `cargo xtask bench-record` was asked to run.
#[derive(Debug, PartialEq)]
struct RecordArgs {
    workload: String,
    seed: u64,
    seconds: f64,
}

/// Parses `--workload W [--seed S] [--seconds T]` (seed 42 and 25 s by
/// default), rejecting anything perfbench could not finish: its pass loops
/// stop once the elapsed time reaches `seconds`, so a non-finite or
/// non-positive value never stops or measures nothing.
fn parse_record_args(rest: &[String]) -> Result<RecordArgs, String> {
    let (mut workload, mut seed, mut seconds): (_, u64, f64) = (None, 42, 25.0);
    let mut args = rest.iter().filter(|a| a.as_str() != "--");
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    // the name becomes a file name at the repository root
    if workload.is_empty() || !workload.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return Err(format!("--workload `{workload}` is not a workload name"));
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be a finite number above 0, not {seconds}"));
    }
    Ok(RecordArgs { workload, seed, seconds })
}

/// `cargo xtask bench-record --workload W [--seed S] [--seconds T]`: runs the
/// repository benchmark (`perfbench/run.sh`, unchanged) on one workload
/// untraced, then traced, and appends one point holding both final result
/// lines to `BENCH_<W>.json`, stamped with the git rev, whether tracked
/// files differ from it, and the host's available parallelism.  Returns the
/// trajectory file's name.
fn bench_record(rest: &[String]) -> Result<String, String> {
    let RecordArgs { workload, seed, seconds } = parse_record_args(rest)?;
    let path = format!("BENCH_{workload}.json");
    // an unreadable trajectory fails before the runs, not after them
    read_trajectory(Path::new(&path))?;
    let (seed_arg, seconds_arg) = (seed.to_string(), seconds.to_string());
    let run = |trace: &str| -> Result<Value, String> {
        let args = [
            "--workload",
            &workload,
            "--seed",
            &seed_arg,
            "--seconds",
            &seconds_arg,
            "--trace",
            trace,
        ];
        println!("==> bash perfbench/run.sh {}", args.join(" "));
        let output = Command::new("bash")
            .arg("perfbench/run.sh")
            .args(args)
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawning perfbench/run.sh: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        if !output.status.success() {
            return Err(format!("perfbench/run.sh exited with {}", output.status));
        }
        let last = stdout.lines().last().ok_or("perfbench/run.sh printed nothing")?;
        serde_json::from_str(last).map_err(|e| format!("perfbench's last line: {e}"))
    };
    let end_to_end = run("0")?;
    let traced = run("1")?;
    let git = |args: &[&str]| -> Result<String, String> {
        let output = Command::new("git")
            .args(args)
            .output()
            .map_err(|e| format!("spawning git {}: {e}", args.join(" ")))?;
        if !output.status.success() {
            return Err(format!("git {} exited with {}", args.join(" "), output.status));
        }
        Ok(String::from_utf8_lossy(&output.stdout).trim().to_string())
    };
    let rev = git(&["rev-parse", "HEAD"])?;
    let dirty = !git(&["status", "--porcelain", "--untracked-files=no"])?.is_empty();
    let parallelism = std::thread::available_parallelism().map_or(0, usize::from);
    let point = Value::Object(vec![
        ("workload".to_string(), Value::from(workload.as_str())),
        ("rev".to_string(), Value::from(rev)),
        ("dirty".to_string(), Value::from(dirty)),
        ("available_parallelism".to_string(), Value::from(parallelism)),
        ("seed".to_string(), Value::from(seed)),
        ("seconds".to_string(), Value::from(seconds)),
        ("end_to_end".to_string(), end_to_end),
        ("traced".to_string(), traced),
    ]);
    append_trajectory(Path::new(&path), &point)?;
    Ok(path)
}

/// Reads a trajectory file: a JSON array of points, or `None` when the file
/// does not exist.
///
/// # Errors
/// Any other read failure, or content that is not one JSON array, named
/// with the file's path.
fn read_trajectory(path: &Path) -> Result<Option<Vec<Value>>, String> {
    let text = match fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("reading {}: {e}", path.display())),
    };
    match serde_json::from_str(&text) {
        Ok(Value::Array(points)) => Ok(Some(points)),
        Ok(_) => Err(format!("{} is not a JSON array", path.display())),
        Err(e) => Err(format!("{} is not valid JSON: {e}", path.display())),
    }
}

/// Appends one point to a trajectory file, creating the file when it does
/// not exist.  A file that exists but cannot be read as a JSON array is an
/// error and keeps its bytes: its history is never replaced.
fn append_trajectory(path: &Path, point: &Value) -> Result<(), String> {
    let mut points = read_trajectory(path)?.unwrap_or_default();
    points.push(point.clone());
    let mut out = String::from("[\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str("  ");
        out.push_str(&p.to_string());
        out.push_str(if i + 1 < points.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    fs::write(path, out).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// The `bench-trajectories` ci step: every `BENCH_*.json` in the current
/// directory (the repository root) must read as a JSON array.  Returns how
/// many files it checked.
fn bench_trajectories() -> Result<usize, String> {
    let mut checked = 0;
    for entry in fs::read_dir(".").map_err(|e| format!("listing the repository root: {e}"))? {
        let path = entry.map_err(|e| format!("listing the repository root: {e}"))?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            read_trajectory(&path)?;
            checked += 1;
        }
    }
    Ok(checked)
}

fn figure1(rest: &[String]) -> ExitCode {
    let mut args: Vec<&str> =
        vec!["run", "--release", "-p", "star-bench", "--bin", "figure1", "--"];
    let forwarded: Vec<&str> = rest.iter().map(String::as_str).filter(|a| *a != "--").collect();
    let has_budget = forwarded.iter().any(|a| *a == "--budget" || a.starts_with("--budget="));
    let has_threads = forwarded.iter().any(|a| *a == "--threads" || a.starts_with("--threads="));
    args.extend(forwarded);
    if !has_budget {
        args.extend(["--budget", "quick"]);
    }
    if !has_threads {
        // 0 = all available parallelism (the SweepRunner convention)
        args.extend(["--threads", "0"]);
    }
    match step("figure1", &args) {
        Ok(()) => {
            println!("\nFigure 1 CSVs are under target/experiments/");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("\nfigure1 FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

fn merge_shards(rest: &[String]) -> ExitCode {
    let out_index = rest.iter().position(|a| a == "--out");
    let Some(out_index) = out_index else {
        eprintln!("usage: cargo xtask merge-shards --out <merged.csv> <partial.csv>...");
        return ExitCode::FAILURE;
    };
    let Some(out_path) = rest.get(out_index + 1) else {
        eprintln!("--out needs a file path");
        return ExitCode::FAILURE;
    };
    let inputs: Vec<&String> = rest
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != out_index && i != out_index + 1)
        .map(|(_, a)| a)
        .collect();
    if inputs.is_empty() {
        eprintln!("no partial CSVs given");
        return ExitCode::FAILURE;
    }
    let mut partials = Vec::with_capacity(inputs.len());
    for path in &inputs {
        match fs::read_to_string(path) {
            Ok(content) => partials.push(content),
            Err(e) => {
                eprintln!("could not read {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    match star_exec::merge_shard_csvs(&partials) {
        Ok(merged) => {
            if let Some(parent) = Path::new(out_path).parent() {
                let _ = fs::create_dir_all(parent);
            }
            if let Err(e) = fs::write(out_path, merged) {
                eprintln!("could not write {out_path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("merged {} partial(s) into {out_path}", inputs.len());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("merge failed: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh directory under the system temp dir, unique to one test.
    fn scratch_dir(test: &str) -> PathBuf {
        let dir = env::temp_dir().join(format!("xtask-{test}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn trajectory_files_append_and_survive_garbage() {
        let dir = scratch_dir("trajectory");
        let path = dir.join("BENCH_test.json");
        let point = Value::Object(vec![("qps".to_string(), Value::from(1000.0))]);
        append_trajectory(&path, &point).unwrap();
        append_trajectory(&path, &point).unwrap();
        assert_eq!(read_trajectory(&path).unwrap().map(|points| points.len()), Some(2));
        // a file that does not parse as an array keeps its bytes, and the
        // error names it
        for garbage in ["not json", "[\n  {\"qps\":1},\n]\n", "<<<<<<< HEAD\n[]\n", "{}"] {
            fs::write(&path, garbage).unwrap();
            let error = append_trajectory(&path, &point).unwrap_err();
            assert!(error.contains("BENCH_test.json"), "{error}");
            assert_eq!(fs::read_to_string(&path).unwrap(), garbage);
        }
        // so does a path that cannot be read for a reason other than absence
        let error = append_trajectory(&dir, &point).unwrap_err();
        assert!(error.contains(&dir.display().to_string()), "{error}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn record_args_default_and_reject_what_perfbench_cannot_finish() {
        let args = |line: &str| -> Vec<String> { line.split(' ').map(str::to_string).collect() };
        assert_eq!(
            parse_record_args(&args("--workload sim_light")),
            Ok(RecordArgs { workload: "sim_light".to_string(), seed: 42, seconds: 25.0 })
        );
        assert_eq!(
            parse_record_args(&args("-- --workload model_sweep --seed 7 --seconds 0.5")),
            Ok(RecordArgs { workload: "model_sweep".to_string(), seed: 7, seconds: 0.5 })
        );
        for seconds in ["inf", "-inf", "NaN", "0", "-0", "-3", "1e400"] {
            let got =
                parse_record_args(&args(&format!("--workload sim_light --seconds {seconds}")));
            assert!(got.unwrap_err().starts_with("--seconds"), "--seconds {seconds}");
        }
        for bad in ["", "--seed 1", "--workload ../x", "--workload sim_light --seed", "--rate 3"] {
            let parsed =
                if bad.is_empty() { parse_record_args(&[]) } else { parse_record_args(&args(bad)) };
            assert!(parsed.is_err(), "`{bad}` parsed");
        }
    }
}
