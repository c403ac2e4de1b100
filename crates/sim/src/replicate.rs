//! Multi-seed replicate execution: the same operating point simulated R
//! times with independently derived seeds.
//!
//! A single simulation run anchors every measurement to one arbitrary RNG
//! stream; the paper-style validation ("model within x% of simulation")
//! becomes statistically meaningful only when the simulated side is a mean
//! over independent replications with a confidence interval.  A
//! [`ReplicateRun`] owns that fan-out:
//!
//! * replicate `i` runs with the seed
//!   [`star_queueing::replicate_seed`]`(seed_base, i)` — a deterministic,
//!   platform-independent derivation, so replicate `i` is the same
//!   simulation in every process that ever evaluates it;
//! * every replicate performs its own warm-up truncation (the configured
//!   `warmup_cycles` apply per replicate, not once for the batch), so each
//!   contributes one steady-state observation;
//! * the results fold into a [`ReplicateReport`]
//!   (via [`ReplicateReport::from_runs`]) carrying the across-replicate mean
//!   and Student-t 95% confidence interval of each headline quantity.
//!
//! Replicates are mutually independent, so callers that want parallelism
//! (the sweep-running layer) can execute [`ReplicateRun::run_replicate`] for
//! each index on any worker and reassemble by index; [`ReplicateRun::run`]
//! is the sequential form.

use std::sync::Arc;

use star_graph::Topology;
use star_queueing::replicate_seed;
use star_routing::RoutingAlgorithm;

use crate::config::SimConfig;
use crate::metrics::{ReplicateReport, SimReport};
use crate::sim::Simulation;
use crate::traffic::TrafficPattern;

/// R independently seeded replications of one simulation experiment.
///
/// The `seed` field of the base [`SimConfig`] acts as the **seed base**: no
/// replicate runs with it directly, every replicate derives its own seed
/// from it.  One replicate (`replicates == 1`) is still a derived seed —
/// there is no special single-seed path.
#[derive(Clone)]
pub struct ReplicateRun {
    topology: Arc<dyn Topology>,
    routing: Arc<dyn RoutingAlgorithm>,
    base: SimConfig,
    pattern: TrafficPattern,
    replicates: usize,
}

impl ReplicateRun {
    /// Builds the replicate fan-out for a topology, routing algorithm, base
    /// configuration (whose `seed` is the seed base) and traffic pattern.
    ///
    /// # Panics
    /// Panics if `replicates` is zero.
    #[must_use]
    pub fn new(
        topology: Arc<dyn Topology>,
        routing: Arc<dyn RoutingAlgorithm>,
        base: SimConfig,
        pattern: TrafficPattern,
        replicates: usize,
    ) -> Self {
        assert!(replicates >= 1, "need at least one replicate");
        Self { topology, routing, base, pattern, replicates }
    }

    /// Number of replicates this run fans out to.
    #[must_use]
    pub fn replicates(&self) -> usize {
        self.replicates
    }

    /// The seed base replicate seeds are derived from.
    #[must_use]
    pub fn seed_base(&self) -> u64 {
        self.base.seed
    }

    /// Runs one replicate (any index, not just `0..replicates`): the base
    /// configuration with the seed derived for that index, including the
    /// replicate's own warm-up phase.
    #[must_use]
    pub fn run_replicate(&self, replicate: u64) -> SimReport {
        let config =
            SimConfig { seed: replicate_seed(self.base.seed, replicate), ..self.base.clone() };
        Simulation::new(Arc::clone(&self.topology), Arc::clone(&self.routing), config, self.pattern)
            .run()
    }

    /// Runs all replicates sequentially, in index order, and folds them into
    /// the across-replicate report.
    #[must_use]
    pub fn run(&self) -> ReplicateReport {
        let runs = (0..self.replicates as u64).map(|i| self.run_replicate(i)).collect();
        ReplicateReport::from_runs(runs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_graph::StarGraph;
    use star_routing::EnhancedNbc;

    fn s4_run(rate: f64, seed_base: u64, replicates: usize) -> ReplicateRun {
        let topology = Arc::new(StarGraph::new(4));
        let routing = Arc::new(EnhancedNbc::for_topology(topology.as_ref(), 5));
        let config = SimConfig::builder()
            .message_length(8)
            .traffic_rate(rate)
            .warmup_cycles(1_000)
            .measured_messages(1_500)
            .max_cycles(300_000)
            .seed(seed_base)
            .build();
        ReplicateRun::new(topology, routing, config, TrafficPattern::Uniform, replicates)
    }

    #[test]
    fn replicates_are_independent_and_deterministic() {
        let run = s4_run(0.004, 9, 3);
        let a = run.run();
        let b = run.run();
        assert_eq!(a, b, "the same seed base must reproduce the same replicate set");
        assert_eq!(a.replicates(), 3);
        assert!(!a.saturated && !a.deadlock_detected);
        // different seeds produce genuinely different streams
        assert_ne!(a.runs[0].mean_message_latency, a.runs[1].mean_message_latency);
        assert_ne!(a.runs[1].mean_message_latency, a.runs[2].mean_message_latency);
        // each replicate measured its own steady-state window
        assert!(a.runs.iter().all(|r| r.measured_messages >= 1_500));
    }

    #[test]
    fn aggregate_matches_manual_fold_of_the_replicate_means() {
        let run = s4_run(0.006, 21, 4);
        let report = run.run();
        let means: Vec<f64> = report.runs.iter().map(|r| r.mean_message_latency).collect();
        let expected = star_queueing::ReplicateStats::from_samples(&means);
        assert_eq!(report.latency, expected);
        assert!(report.latency.ci95 > 0.0, "4 distinct replicates must yield a real interval");
        assert!(report.latency.relative_ci95() < 0.25, "replicate means should agree loosely");
        assert!((report.mean_message_latency() - report.latency.mean).abs() < 1e-12);
    }

    #[test]
    fn replicate_indices_reassemble_to_the_sequential_fold() {
        // the property the parallel sweep layer relies on: running replicate
        // indices independently (any scheduling) and folding by index equals
        // the sequential run
        let run = s4_run(0.004, 77, 3);
        let scattered: Vec<SimReport> = [2u64, 0, 1]
            .iter()
            .map(|&i| (i, run.run_replicate(i)))
            .collect::<Vec<_>>()
            .into_iter()
            .fold(vec![None, None, None], |mut acc, (i, r)| {
                acc[i as usize] = Some(r);
                acc
            })
            .into_iter()
            .map(Option::unwrap)
            .collect();
        assert_eq!(ReplicateReport::from_runs(scattered), run.run());
    }

    #[test]
    fn saturated_replicates_flag_the_aggregate() {
        let topology = Arc::new(StarGraph::new(4));
        let routing = Arc::new(EnhancedNbc::for_topology(topology.as_ref(), 5));
        let config = SimConfig::builder()
            .message_length(16)
            .traffic_rate(0.2)
            .warmup_cycles(1_000)
            .measured_messages(50_000)
            .max_cycles(60_000)
            .saturation_queue_limit(100)
            .seed(3)
            .build();
        let run = ReplicateRun::new(topology, routing, config, TrafficPattern::Uniform, 2);
        let report = run.run();
        assert!(report.saturated);
        assert!(!report.deadlock_detected);
        // no finite steady-state observation survives
        assert_eq!(report.latency.replicates, 0);
        assert_eq!(report.latency.ci95, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one replicate")]
    fn zero_replicates_rejected() {
        let _ = s4_run(0.004, 1, 0);
    }
}
