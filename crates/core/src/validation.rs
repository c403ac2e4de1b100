//! Model-vs-simulation validation rows (the content of Figure 1).
//!
//! The paper validates the model by plotting its latency predictions against a
//! flit-level simulator for several virtual-channel counts and message
//! lengths.  [`ValidationRow`] pairs one model evaluation with one simulation
//! report at the same operating point and exposes the relative error, which
//! `EXPERIMENTS.md` tabulates.

use serde::{Deserialize, Serialize};

use crate::generic::SpectrumResult;

/// One operating point with both the model prediction and the simulation
/// measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidationRow {
    /// Traffic generation rate `λ_g`.
    pub traffic_rate: f64,
    /// Message length in flits.
    pub message_length: usize,
    /// Virtual channels per physical channel.
    pub virtual_channels: usize,
    /// Latency predicted by the analytical model (cycles); `None` when the
    /// model declares the point saturated.
    pub model_latency: Option<f64>,
    /// Latency measured by the simulator (cycles; the across-replicate mean
    /// when several replicates ran); `None` when the simulator saturated.
    pub simulated_latency: Option<f64>,
    /// Student-t 95% confidence half-width of the simulated latency across
    /// replicates (0 for a single replicate).
    pub simulated_ci95: f64,
    /// Number of simulator replicates behind the measurement.
    pub sim_replicates: u64,
}

impl ValidationRow {
    /// Builds a row from a model result and a (possibly saturated)
    /// single-replicate simulation measurement.  A saturated or
    /// non-converged model result has no latency.
    #[must_use]
    pub fn new(model: &SpectrumResult, simulated_latency: Option<f64>) -> Self {
        Self {
            traffic_rate: model.params.traffic_rate,
            message_length: model.params.message_length,
            virtual_channels: model.params.virtual_channels,
            model_latency: (!model.saturated && model.converged).then_some(model.mean_latency),
            simulated_latency,
            simulated_ci95: 0.0,
            sim_replicates: 1,
        }
    }

    /// Attaches the across-replicate confidence interval of the simulated
    /// measurement.
    #[must_use]
    pub fn with_sim_ci(mut self, ci95: f64, replicates: u64) -> Self {
        self.simulated_ci95 = ci95;
        self.sim_replicates = replicates;
        self
    }

    /// Relative error of the model against the simulation,
    /// `(model − sim)/sim`, when both are available.
    #[must_use]
    pub fn relative_error(&self) -> Option<f64> {
        match (self.model_latency, self.simulated_latency) {
            (Some(m), Some(s)) if s > 0.0 => Some((m - s) / s),
            _ => None,
        }
    }

    /// Whether model and simulation agree on the operating point being beyond
    /// saturation.
    #[must_use]
    pub fn both_saturated(&self) -> bool {
        self.model_latency.is_none() && self.simulated_latency.is_none()
    }

    /// CSV header matching [`Self::to_csv_row`].
    #[must_use]
    pub fn csv_header() -> String {
        "traffic_rate,message_length,virtual_channels,model_latency,simulated_latency,\
         simulated_ci95,sim_replicates,relative_error"
            .to_string()
    }

    /// The row in CSV form (empty fields for saturated points).
    #[must_use]
    pub fn to_csv_row(&self) -> String {
        let fmt = |v: Option<f64>| v.map_or(String::new(), |x| format!("{x:.4}"));
        format!(
            "{},{},{},{},{},{:.4},{},{}",
            self.traffic_rate,
            self.message_length,
            self.virtual_channels,
            fmt(self.model_latency),
            fmt(self.simulated_latency),
            self.simulated_ci95,
            self.sim_replicates,
            fmt(self.relative_error()),
        )
    }
}

/// Mean absolute relative error over the rows where both model and simulation
/// produced a latency.
#[must_use]
pub fn mean_absolute_relative_error(rows: &[ValidationRow]) -> Option<f64> {
    let errors: Vec<f64> = rows.iter().filter_map(|r| r.relative_error().map(f64::abs)).collect();
    if errors.is_empty() {
        None
    } else {
        Some(errors.iter().sum::<f64>() / errors.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModelParams, SpectrumModel, TraversalSpectrum};
    use std::sync::Arc;

    fn model_at(rate: f64) -> SpectrumResult {
        let params = ModelParams { message_length: 16, traffic_rate: rate, ..Default::default() };
        SpectrumModel::new(params, Arc::new(TraversalSpectrum::star(4))).solve()
    }

    #[test]
    fn relative_error_computation() {
        let m = model_at(0.002);
        let row = ValidationRow::new(&m, Some(m.mean_latency * 1.1));
        let err = row.relative_error().unwrap();
        assert!((err - (1.0 / 1.1 - 1.0)).abs() < 1e-9);
        assert!(!row.both_saturated());
    }

    #[test]
    fn saturated_points_have_no_error() {
        let m = model_at(0.5);
        assert!(m.saturated);
        let row = ValidationRow::new(&m, None);
        assert!(row.relative_error().is_none());
        assert!(row.both_saturated());
        assert!(row.to_csv_row().contains(",,"));
        assert!(row.to_csv_row().ends_with(','));
    }

    #[test]
    fn replicate_ci_travels_into_the_csv() {
        let m = model_at(0.002);
        let row = ValidationRow::new(&m, Some(50.0)).with_sim_ci(1.25, 8);
        assert_eq!(row.simulated_ci95, 1.25);
        assert_eq!(row.sim_replicates, 8);
        assert!(row.to_csv_row().contains(",1.2500,8,"));
        // the single-replicate default keeps a degenerate interval
        let plain = ValidationRow::new(&m, Some(50.0));
        assert_eq!(plain.simulated_ci95, 0.0);
        assert_eq!(plain.sim_replicates, 1);
    }

    #[test]
    fn mean_error_aggregates_only_defined_rows() {
        let m = model_at(0.002);
        let rows = vec![
            ValidationRow::new(&m, Some(m.mean_latency)),
            ValidationRow::new(&m, Some(m.mean_latency * 1.2)),
            ValidationRow::new(&m, None),
        ];
        let mare = mean_absolute_relative_error(&rows).unwrap();
        assert!(mare > 0.0 && mare < 0.2);
        assert!(mean_absolute_relative_error(&[]).is_none());
    }

    #[test]
    fn csv_header_matches_row_field_count() {
        let m = model_at(0.002);
        let row = ValidationRow::new(&m, Some(50.0));
        assert_eq!(
            ValidationRow::csv_header().split(',').count(),
            row.to_csv_row().split(',').count()
        );
    }
}
