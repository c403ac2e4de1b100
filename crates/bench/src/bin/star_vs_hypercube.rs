//! Extension study B (the paper's stated future work): latency of the star
//! graph against other topology families running the same adaptive routing
//! scheme — scenarios differing only in their topology value, answered by
//! the same backend.  The default compares three ways: star, the hypercube
//! with at least as many nodes, and the k-ary 2-cube (torus) — the
//! star/hypercube/torus parity figure the paper never had.
//!
//! ```text
//! cargo run --release -p star-bench --bin star_vs_hypercube --
//!     [--backend sim|model] [--topology star,hypercube,torus,ring]
//!     [--n 5 | --n 6,7,8] [--torus-k 12,16] [--ring-k 16] [--v V] [--m 32]
//!     [--budget quick|standard|thorough] [--points N] [--check-band PCT]
//!     [--replicates R] [--seed-base S] [--ci-target REL [--max-replicates C]]
//!     [--threads T] [--shard K/N]
//! ```
//!
//! With `--backend sim` (the default) every requested family goes through
//! the flit-level simulator at smoke scale (`S5`/`Q7` node-matched, plus
//! `T8`/`R8` at their family default sizes): every operating point runs
//! `--replicates` independently seeded replicates (seeds derived from
//! `--seed-base`) and is reported as mean ± Student-t 95% CI, with the
//! (point × replicate) work items sharded across `--threads` pool workers —
//! output is byte-identical for any thread count.  `--ci-target 0.05`
//! instead keeps adding replicate batches per point until the relative CI
//! half-width drops below 5% (or `--max-replicates` is hit).
//! `--check-band 25` additionally answers every simulated point with the
//! analytical model and exits non-zero if any below-saturation point within
//! the validated light/moderate-load regime (≤ 25% channel utilisation — the
//! documented over-prediction grows beyond any enforced band past it)
//! disagrees by more than 25% — the model-vs-sim smoke gate `cargo xtask ci`
//! runs on the torus.
//!
//! With `--backend model` the analytical model answers every side and **no
//! simulator runs at all**: the star sizes default to `S6`/`S7`/`S8` with
//! their matched cubes `Q10`/`Q13`/`Q16` (720 → 65 536 nodes) — the
//! model-only regime the paper argues analytical models exist for — with
//! each star/cube pair swept up to just below the earlier of the two
//! model-predicted saturation knees.  The model default is `V = 10` because
//! `Q16`'s negative-hop scheme needs `⌊16/2⌋ + 1 = 9` escape levels and
//! Enhanced-Nbc at least one adaptive channel on top (this also covers
//! `S8`'s 6-level minimum).  Tori sweep at fixed sides (default
//! `--torus-k 12,16`, each to 95% of its own knee) rather than node-matched
//! sizes: the torus matching `S7` would be `T72` (38 virtual-channel floor)
//! and `S8`'s would be `T202`, whose `u128` path counts overflow — see
//! REPRODUCING.md.  A torus/ring side whose diameter needs more virtual
//! channels than `--v` is raised to its floor with a note on stderr.  Model
//! rows report a CI of zero width, keeping the CSV schema identical across
//! backends; all families land in one combined `star_vs_hypercube.csv`.
//!
//! Under `--shard K/N` the run evaluates only its slice of the operating
//! points (simulator pass; the model pass is recomputed in full so the
//! warm-start chain matches an unsharded run) and writes the partial
//! `star_vs_hypercube.shardKofN.csv` that `cargo xtask merge-shards`
//! reassembles byte-identically.

use star_bench::cli::HarnessArgs;
use star_bench::{experiments_dir, log_replicate_consumption};
use star_core::{ModelDiscipline, ModelParams};
use star_graph::Hypercube;
use star_workloads::{
    ascii_plot, markdown_table, model_saturation_rate, Evaluator, ModelBackend, ReportSink,
    Scenario, SweepSpec, TopologyKind,
};

/// Parses a comma-separated `--flag 12,16` size list.
fn sizes_arg(cli: &HarnessArgs, flag: &str, default: &[usize]) -> Vec<usize> {
    match cli.value(flag) {
        Some(s) => match s.split(',').map(str::parse).collect() {
            Ok(sizes) => sizes,
            Err(_) => {
                eprintln!("invalid {flag} {s:?}: expected sizes like 5 or 6,7");
                std::process::exit(2);
            }
        },
        None => default.to_vec(),
    }
}

/// Evaluates one group of sweeps sharing a rate grid, prints its table/plot,
/// optionally gates model-vs-sim agreement, and feeds the shared sink.
#[allow(clippy::too_many_arguments)]
fn run_group(
    cli: &HarnessArgs,
    evaluator: &dyn Evaluator,
    sink: &mut ReportSink,
    heading: &str,
    sweeps: &[SweepSpec],
    rates: &[f64],
    check_band: Option<f64>,
) {
    let reports = cli.run_pass(evaluator, sweeps);
    println!("# {heading}\n");
    if cli.print_tables() {
        let mut rows = Vec::new();
        for (ri, &rate) in rates.iter().enumerate() {
            let mut row = vec![format!("{rate:.5}")];
            row.extend(reports.iter().map(|r| r.estimates[ri].latency_ci_cell()));
            rows.push(row);
        }
        let columns: Vec<String> =
            reports.iter().map(|r| format!("{} latency (±95% CI)", r.id)).collect();
        let mut header: Vec<&str> = vec!["traffic rate (λ_g)"];
        header.extend(columns.iter().map(String::as_str));
        println!("{}", markdown_table(&header, &rows));
        let curves: Vec<(&str, Vec<f64>)> =
            reports.iter().map(|r| (r.id.as_str(), r.latency_curve())).collect();
        println!("{}", ascii_plot("latency vs offered load", rates, &curves, 60, 16));
    } else {
        println!("(sharded run: pairing table omitted — merge the shard CSVs)\n");
    }
    log_replicate_consumption(&reports);
    if let Some(band) = check_band {
        let model_reports = cli.run_pass(&ModelBackend::new(), sweeps);
        for (model_report, sim_report) in model_reports.iter().zip(&reports) {
            let topology = sim_report.scenario.topology();
            let utilisation_scale = topology.mean_distance()
                * sim_report.scenario.message_length as f64
                / topology.degree() as f64;
            for (model, sim) in model_report.estimates.iter().zip(&sim_report.estimates) {
                if model.saturated || sim.saturated {
                    continue;
                }
                // the tolerance bands are validated at light/moderate load;
                // past ~25% channel utilisation the model's documented
                // over-prediction grows beyond any enforced band
                let utilisation = model.point.traffic_rate * utilisation_scale;
                if utilisation > 0.25 {
                    println!(
                        "[band] {} λ_g={:.5}: skipped ({:.0}% utilisation is beyond \
                         the moderate-load regime the bands cover)",
                        sim_report.id,
                        model.point.traffic_rate,
                        utilisation * 100.0,
                    );
                    continue;
                }
                let err = (model.mean_latency - sim.mean_latency).abs() / sim.mean_latency;
                println!(
                    "[band] {} λ_g={:.5}: model {:.2} vs sim {:.2} → {:.1}% (band {band}%)",
                    sim_report.id,
                    model.point.traffic_rate,
                    model.mean_latency,
                    sim.mean_latency,
                    err * 100.0,
                );
                assert!(
                    err <= band / 100.0,
                    "{} λ_g={:.5}: model {:.2} vs sim {:.2} differ by {:.1}% (> {band}%)",
                    sim_report.id,
                    model.point.traffic_rate,
                    model.mean_latency,
                    sim.mean_latency,
                    err * 100.0,
                );
            }
        }
    }
    sink.extend_pass(sweeps, &reports);
}

fn main() {
    let cli = HarnessArgs::parse();
    let model_only = match cli.value("--backend").as_deref() {
        Some("model") => true,
        None | Some("sim") => false,
        Some(other) => {
            eprintln!("unknown backend {other:?}: expected \"sim\" or \"model\"");
            std::process::exit(2);
        }
    };
    let families =
        cli.topology_kinds(&[TopologyKind::Star, TopologyKind::Hypercube, TopologyKind::Torus]);
    let want = |kind: TopologyKind| families.contains(&kind);
    // model-only runs scale to the sizes the simulator cannot reach
    let default_sizes: &[usize] = if model_only { &[6, 7, 8] } else { &[5] };
    let sizes = sizes_arg(&cli, "--n", default_sizes);
    let torus_sides = sizes_arg(&cli, "--torus-k", if model_only { &[12, 16] } else { &[8] });
    let ring_sides = sizes_arg(&cli, "--ring-k", if model_only { &[16] } else { &[8] });
    let v = cli.usize_or("--v", if model_only { 10 } else { 6 });
    let m = cli.usize_or("--m", 32);
    let points = cli.usize_or("--points", if model_only { 8 } else { 5 });
    let check_band = if model_only {
        None
    } else {
        cli.value("--check-band").and_then(|s| s.parse::<f64>().ok())
    };
    let model_backend = ModelBackend::new();
    let sim_backend = cli.sim_backend();
    let evaluator: &dyn Evaluator = if model_only { &model_backend } else { &sim_backend };
    let sim_max_rate = 0.012 * 32.0 / m as f64;
    let backend_note = if model_only {
        ", no simulator invocation".to_string()
    } else {
        format!(", budget {:?}, {} replicate(s)", sim_backend.budget, cli.replicates())
    };

    let mut sink = cli.report_sink();

    // the node-matched star/hypercube pairs, one group per star size
    if want(TopologyKind::Star) || want(TopologyKind::Hypercube) {
        for &symbols in &sizes {
            let star = cli.replicated(
                Scenario::star(symbols).with_virtual_channels(v).with_message_length(m),
                7_771,
            );
            let mut group: Vec<Scenario> = Vec::new();
            if want(TopologyKind::Star) {
                group.push(star.clone());
            }
            if want(TopologyKind::Hypercube) {
                let dims = Hypercube::at_least(star.topology().node_count()).dims();
                group.push(cli.replicated(
                    Scenario::hypercube(dims).with_virtual_channels(v).with_message_length(m),
                    7_771,
                ));
            }
            let rates: Vec<f64> = if model_only {
                // sweep to just below the earliest knee of the group so every
                // curve stays mostly finite and the divergence near
                // saturation is visible
                let sat = group
                    .iter()
                    .map(|s| model_saturation_rate(s, 0.02))
                    .fold(f64::INFINITY, f64::min);
                (1..=points).map(|i| 0.95 * sat * i as f64 / points as f64).collect()
            } else {
                (1..=points).map(|i| sim_max_rate * i as f64 / points as f64).collect()
            };
            let names: Vec<String> = group
                .iter()
                .map(|s| format!("{} ({} nodes)", s.network_label(), s.topology().node_count()))
                .collect();
            let heading = format!(
                "{} — Enhanced-Nbc, V = {v}, M = {m} ({} backend{backend_note})",
                names.join(" vs "),
                evaluator.name(),
            );
            let sweeps: Vec<SweepSpec> = group
                .into_iter()
                .map(|s| SweepSpec::new(s.network_label(), s, rates.clone()))
                .collect();
            run_group(&cli, evaluator, &mut sink, &heading, &sweeps, &rates, check_band);
        }
    }

    // the tori and rings sweep at fixed sides with their own rate grids —
    // node-matching them to the large stars is infeasible (see the module
    // docs), so each side runs to 95% of its own predicted knee instead
    for (kind, sides) in [(TopologyKind::Torus, &torus_sides), (TopologyKind::Ring, &ring_sides)] {
        if !want(kind) {
            continue;
        }
        for &side in sides {
            let mut scenario = kind.scenario(side).with_message_length(m).with_virtual_channels(v);
            let floor = ModelParams::min_virtual_channels(
                ModelDiscipline::EnhancedNbc,
                scenario.topology().diameter(),
            );
            if v < floor {
                eprintln!(
                    "[v-floor] {} needs V >= {floor} for Enhanced-Nbc; raising from {v}",
                    scenario.network_label()
                );
                scenario = scenario.with_virtual_channels(floor);
            }
            let scenario = cli.replicated(scenario, 7_771);
            let rates: Vec<f64> = if model_only {
                let sat = model_saturation_rate(&scenario, 0.02);
                (1..=points).map(|i| 0.95 * sat * i as f64 / points as f64).collect()
            } else {
                (1..=points).map(|i| sim_max_rate * i as f64 / points as f64).collect()
            };
            let heading = format!(
                "{} ({} nodes) — Enhanced-Nbc, V = {}, M = {m} ({} backend{backend_note})",
                scenario.network_label(),
                scenario.topology().node_count(),
                scenario.virtual_channels,
                evaluator.name(),
            );
            let sweeps = [SweepSpec::new(scenario.network_label(), scenario, rates.clone())];
            run_group(&cli, evaluator, &mut sink, &heading, &sweeps, &rates, check_band);
        }
    }

    match sink.write_csv(&experiments_dir(), "star_vs_hypercube") {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write star_vs_hypercube: {e}"),
    }
}
