//! Regenerates Figure 1 of the paper: mean message latency vs traffic
//! generation rate for `S5` with `V = 6, 9, 12` virtual channels and message
//! lengths `M = 32, 64` flits — one curve from the analytical model and one
//! from the flit-level simulator (mean ± 95% CI over `--replicates`
//! independently seeded replicates), both driven through the unified
//! `Evaluator`/`SweepRunner` API.
//!
//! ```text
//! cargo run --release -p star-bench --bin figure1 -- [--v 6|9|12] [--m 32|64]
//!     [--topology star|hypercube|torus|ring] [--points N]
//!     [--budget quick|standard|thorough]
//!     [--replicates R] [--seed-base S] [--ci-target REL [--max-replicates C]]
//!     [--threads T] [--shard K/N]
//! ```
//!
//! `--topology` replays the same `V × M` grid on another family at its
//! smoke size (`Q7`/`T8`/`R8`) — not a figure the paper has, but the same
//! model-vs-sim cross-validation the figure performs, on a topology other
//! than the paper's star graph.  The curve ids (and so the CSV
//! names) gain a `-<family>` suffix so the star figure is never
//! overwritten.
//!
//! Prints a Markdown table and an ASCII plot per curve and writes
//! `target/experiments/<curve>.csv` (with `simulated_ci95`/`sim_replicates`
//! columns).  Under `--shard K/N` each curve file becomes the partial
//! `<curve>.shardKofN.csv` covering this shard's slice of the simulated
//! points (the model curve is recomputed in full so its warm-start chain
//! matches the unsharded run); `cargo xtask merge-shards` restores the
//! unsharded bytes.

use star_bench::cli::HarnessArgs;
use star_bench::{log_replicate_consumption, pair_into_validation_rows};
use star_core::validation::mean_absolute_relative_error;
use star_core::ValidationRow;
use star_workloads::{
    ascii_plot, figure1_sweeps, markdown_table, rate_indices, ModelBackend, TopologyKind,
};

fn main() {
    let cli = HarnessArgs::parse();
    let v_filter: Option<usize> = cli.value("--v").and_then(|s| s.parse().ok());
    let m_filter: Option<usize> = cli.value("--m").and_then(|s| s.parse().ok());
    let kind = cli.topology_kind(TopologyKind::Star);
    let points = cli.usize_or("--points", 6);
    let sim_backend = cli.sim_backend();

    // one scenario family for all six curves, so one topology value and one
    // spectrum build; the star grid is the paper's, any other family replays
    // it at the family's smoke size
    let base = kind.scenario(kind.default_size());
    let sweeps: Vec<_> = figure1_sweeps(points)
        .into_iter()
        .filter(|s| v_filter.is_none_or(|v| s.scenario.virtual_channels == v))
        .filter(|s| m_filter.is_none_or(|m| s.scenario.message_length == m))
        .map(|mut sweep| {
            if kind != TopologyKind::Star {
                sweep.scenario = base
                    .clone()
                    .with_discipline(sweep.scenario.discipline)
                    .with_virtual_channels(sweep.scenario.virtual_channels)
                    .with_message_length(sweep.scenario.message_length);
                sweep.id = format!("{}-{}", sweep.id, kind.name());
            }
            sweep.scenario = cli.replicated(sweep.scenario, 20_060_425);
            sweep
        })
        .collect();
    if sweeps.is_empty() {
        eprintln!("no experiment matches the given filters");
        std::process::exit(1);
    }

    println!(
        "# Figure 1 — {}, Enhanced-Nbc, model vs simulation (budget {:?}, \
         {} replicate(s), seed base {})\n",
        sweeps[0].scenario.network_label(),
        cli.budget(),
        sweeps[0].scenario.replicates,
        sweeps[0].scenario.seed_base
    );
    // both passes slice the same flat point list, so model and simulator
    // estimates stay paired per rate in sharded runs too
    let model_reports = cli.run_pass(&ModelBackend::new(), &sweeps);
    let sim_reports = cli.run_pass(&sim_backend, &sweeps);
    log_replicate_consumption(&sim_reports);
    for ((sweep, model), sim) in sweeps.iter().zip(&model_reports).zip(&sim_reports) {
        println!(
            "## {} (V = {}, M = {} flits)\n",
            sweep.id, sweep.scenario.virtual_channels, sweep.scenario.message_length
        );
        let rows = pair_into_validation_rows(model, sim);
        let rates = model.rates();
        if rows.is_empty() {
            println!("(no points of this curve in shard {})\n", cli.shard.expect("sharded"));
        } else {
            print_curve(&sweep.id, &rates, &rows);
        }
        let indexed: Vec<(usize, String)> = rate_indices(&sweep.rates, model)
            .into_iter()
            .zip(rows.iter().map(ValidationRow::to_csv_row))
            .collect();
        // the curve's full description, identical in every shard of one run
        let mut run = star_exec::RunFingerprint::new();
        run.add_str(&sweep.id);
        run.add_str(&sweep.scenario.label());
        run.add_u64(sweep.scenario.seed_base);
        for &rate in &sweep.rates {
            run.add_f64(rate);
        }
        match cli.write_indexed_csv(&sweep.id, &ValidationRow::csv_header(), run, &indexed) {
            Ok(path) => println!("wrote {}\n", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", sweep.id),
        }
    }
}

fn print_curve(id: &str, rates: &[f64], rows: &[ValidationRow]) {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.4}", r.traffic_rate),
                r.model_latency.map_or("saturated".into(), |v| format!("{v:.1}")),
                r.simulated_latency.map_or("saturated".into(), |v| {
                    if r.simulated_ci95 > 0.0 {
                        format!("{v:.1} ± {:.1}", r.simulated_ci95)
                    } else {
                        format!("{v:.1}")
                    }
                }),
                r.relative_error().map_or("-".into(), |e| format!("{:.1}%", e * 100.0)),
            ]
        })
        .collect();
    println!(
        "{}",
        markdown_table(
            &["traffic rate (λ_g)", "model latency", "sim latency (±95% CI)", "model error"],
            &table_rows
        )
    );
    if let Some(mare) = mean_absolute_relative_error(rows) {
        println!("mean absolute relative error below saturation: {:.1}%\n", mare * 100.0);
    }
    let model_series: Vec<f64> =
        rows.iter().map(|r| r.model_latency.unwrap_or(f64::INFINITY)).collect();
    let sim_series: Vec<f64> =
        rows.iter().map(|r| r.simulated_latency.unwrap_or(f64::INFINITY)).collect();
    println!(
        "{}",
        ascii_plot(
            &format!("{id}: latency vs traffic rate"),
            rates,
            &[("model", model_series), ("simulation", sim_series)],
            60,
            16,
        )
    );
}
