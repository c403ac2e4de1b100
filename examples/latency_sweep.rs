//! Latency-vs-load curves from the analytical model for the three
//! virtual-channel configurations of the paper's Figure 1, driven through the
//! `SweepRunner` (warm-started, curves sharded across threads) and rendered
//! as an ASCII plot.  Pass `--with-sim` to overlay a few quick simulation
//! points from the simulator backend.
//!
//! ```text
//! cargo run --release --example latency_sweep -- [--with-sim]
//! ```

use star_wormhole::workloads::{ascii_plot, markdown_table};
use star_wormhole::{
    Evaluator as _, ModelBackend, Scenario, SimBackend, SimBudget, SweepRunner, SweepSpec,
};

fn main() {
    let with_sim = std::env::args().any(|a| a == "--with-sim");
    // 13 evenly spaced rates from 0.001 to 0.016
    let rates: Vec<f64> = (0..13).map(|i| 0.001 + (0.016 - 0.001) * i as f64 / 12.0).collect();

    let sweeps: Vec<SweepSpec> = [6usize, 9, 12]
        .iter()
        .map(|&v| {
            SweepSpec::new(
                format!("V={v}"),
                Scenario::star(5).with_virtual_channels(v),
                rates.clone(),
            )
        })
        .collect();
    let reports = SweepRunner::new().run(&ModelBackend::new(), &sweeps);

    let mut rows = Vec::new();
    for report in &reports {
        for estimate in &report.estimates {
            rows.push(vec![
                format!("{}", report.scenario.virtual_channels),
                format!("{:.4}", estimate.point.traffic_rate),
                estimate.latency_cell(),
            ]);
        }
    }

    println!("# Model latency vs traffic generation rate — S5, M = 32 flits\n");
    println!("{}", markdown_table(&["V", "traffic rate", "model latency"], &rows));
    let plot_series: Vec<(&str, Vec<f64>)> =
        reports.iter().map(|r| (r.id.as_str(), r.latency_curve())).collect();
    println!("{}", ascii_plot("model latency (cycles)", &rates, &plot_series, 64, 18));

    if with_sim {
        println!("quick simulation cross-checks (V = 6, 3 replicates each):");
        let backend = SimBackend::new(SimBudget::Quick);
        let scenario = Scenario::star(5).with_replicates(3).with_seed_base(7);
        for &rate in &[0.004, 0.008, 0.012] {
            let estimate = backend.evaluate(&scenario.at(rate));
            match estimate.latency() {
                None => println!("  λ_g = {rate:.3}: simulator saturated"),
                Some(_) => {
                    println!(
                        "  λ_g = {rate:.3}: simulated latency {} cycles over {} replicates",
                        estimate.latency_stats.pretty(),
                        estimate.replicates()
                    );
                }
            }
        }
    }
}
