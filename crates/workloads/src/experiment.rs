//! The operating points of the paper's evaluation, as [`SweepSpec`]s.
//!
//! Figure 1 of the paper plots the mean message latency of `S5` (120 nodes)
//! against the traffic generation rate for `V = 6, 9, 12` virtual channels
//! and message lengths `M = 32, 64` flits, with one curve from the analytical
//! model and one from the flit-level simulator.  [`figure1_sweeps`]
//! enumerates exactly those sweeps; feed them to a
//! [`SweepRunner`](crate::SweepRunner) with a
//! [`ModelBackend`](crate::ModelBackend) and/or a
//! [`SimBackend`](crate::SimBackend) to regenerate the figure.

use crate::scenario::Scenario;
use crate::sweep_runner::SweepSpec;

/// The six curves of the paper's Figure 1: `V ∈ {6, 9, 12}` × `M ∈ {32, 64}`
/// on `S5`, swept from light load toward saturation.  The traffic axis of the
/// published figure runs to 0.015-0.02 messages/node/cycle; the sweep uses the
/// same span with `points` samples per curve.
#[must_use]
pub fn figure1_sweeps(points: usize) -> Vec<SweepSpec> {
    assert!(points >= 2, "need at least two points per curve");
    // one S5 for all six curves: one neighbour table, one spectrum build
    let s5 = Scenario::star(5);
    let mut out = Vec::new();
    for &(v, label) in &[(6usize, 'a'), (9, 'b'), (12, 'c')] {
        for &m in &[32usize, 64] {
            // longer messages saturate earlier, so give them a shorter axis,
            // mirroring how the published curves bunch against saturation
            let max_rate = match (v, m) {
                (_, 64) => 0.011,
                (6, _) => 0.018,
                (9, _) => 0.020,
                _ => 0.022,
            };
            let rates: Vec<f64> =
                (1..=points).map(|i| max_rate * i as f64 / points as f64).collect();
            out.push(SweepSpec::new(
                format!("fig1{label}-M{m}"),
                s5.clone().with_virtual_channels(v).with_message_length(m),
                rates,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::{Evaluator as _, ModelBackend};
    use crate::scenario::Discipline;

    #[test]
    fn figure1_has_six_curves_covering_the_paper_configurations() {
        let sweeps = figure1_sweeps(8);
        assert_eq!(sweeps.len(), 6);
        for sweep in &sweeps {
            assert_eq!(sweep.scenario.network_label(), "S5");
            assert_eq!(sweep.scenario.topology().node_count(), 120);
            assert_eq!(sweep.scenario.discipline, Discipline::EnhancedNbc);
            assert_eq!(sweep.rates.len(), 8);
            assert!([6, 9, 12].contains(&sweep.scenario.virtual_channels));
            assert!([32, 64].contains(&sweep.scenario.message_length));
            assert!(sweep.rates.windows(2).all(|w| w[1] > w[0]));
        }
        let ids: Vec<&str> = sweeps.iter().map(|s| s.id.as_str()).collect();
        assert!(ids.contains(&"fig1a-M32"));
        assert!(ids.contains(&"fig1c-M64"));
    }

    #[test]
    fn model_backend_solves_every_curve_at_its_lightest_load() {
        let backend = ModelBackend::new();
        for sweep in figure1_sweeps(4) {
            let estimate = backend.evaluate(&sweep.scenario.at(sweep.rates[0]));
            assert!(!estimate.saturated, "{} must not saturate at its lightest load", sweep.id);
            assert!(
                estimate.mean_latency > sweep.scenario.message_length as f64,
                "{} latency must exceed the message length",
                sweep.id
            );
        }
    }
}
