//! Quickstart: evaluate one operating point with both backends of the
//! unified `Evaluator` API — the analytical model and the flit-level
//! simulator — and diff them, which is the core workflow of the paper.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use star_wormhole::{
    Evaluator as _, ModelBackend, Scenario, SimBackend, SimBudget, TopologyProperties,
};

fn main() {
    // The network of the paper's Figure 1: S5, 120 nodes, degree 4, with
    // V = 6 virtual channels and M = 32-flit messages at moderate load.
    let scenario = Scenario::star(5);
    let props = TopologyProperties::of(scenario.topology().as_ref());
    println!(
        "network: {} ({} nodes, degree {}, diameter {}, mean distance {:.3})",
        props.name, props.nodes, props.degree, props.diameter, props.mean_distance
    );
    println!("scenario: {}\n", scenario.label());
    let point = scenario.at(0.006);

    // 1. The analytical model (microseconds).
    let model = ModelBackend::new().evaluate(&point);
    let result = model.spectrum_result().expect("model backend yields model results");
    println!("analytical model:");
    println!("  mean network latency  S̄  = {:.2} cycles", result.mean_network_latency);
    println!("  source queueing       W_s = {:.2} cycles", result.source_waiting);
    println!("  VC multiplexing       V̄  = {:.3}", result.multiplexing);
    println!("  mean message latency      = {:.2} cycles", model.mean_latency);
    println!("  channel utilisation       = {:.3}", result.channel_utilization);

    // 2. The flit-level simulator at the same point (seconds): three
    // independently seeded replicates folded into mean ± 95% CI.
    let replicated = scenario.with_replicates(3).with_seed_base(42).at(point.traffic_rate);
    let sim = SimBackend::new(SimBudget::Quick).evaluate(&replicated);
    let report = sim.sim_report().expect("sim backend yields replicate reports");
    println!(
        "\nflit-level simulation ({} replicates, {} measured messages each):",
        report.replicates(),
        report.first().measured_messages
    );
    println!("  mean message latency      = {} cycles", sim.latency_stats.pretty());
    println!("  mean network latency      = {:.2} cycles", report.network_latency.mean);
    println!("  observed multiplexing     = {:.3}", report.first().observed_multiplexing);

    let error = (model.mean_latency - sim.mean_latency).abs() / sim.mean_latency;
    println!("\nmodel vs simulation relative error: {:.1}%", error * 100.0);
}
