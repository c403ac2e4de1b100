//! Damped fixed-point iteration.
//!
//! The paper's model variables are mutually dependent (the mean network
//! latency `S̄` depends on the channel waiting time `w̄`, which depends on
//! `S̄` again through the M/G/1 formula), so the model is solved iteratively.
//! This module provides a small scalar solver with:
//!
//! * damping (`x_{k+1} = (1-α)·x_k + α·F(x_k)`) to keep the iteration stable
//!   close to saturation,
//! * convergence detection on the relative change of the state,
//! * divergence / saturation detection (non-finite values or exceeding a
//!   configurable ceiling), which the model reports as "saturated" rather
//!   than looping forever.

use serde::{Deserialize, Serialize};

/// Outcome of a fixed-point solve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FixedPointOutcome {
    /// Converged to the contained state within tolerance.
    Converged {
        /// Final state.
        state: f64,
        /// Number of iterations performed.
        iterations: usize,
        /// Relative change at the final iteration (below the tolerance).
        residual: f64,
    },
    /// The iteration diverged (non-finite values or state above the ceiling),
    /// which the latency model interprets as operating beyond saturation.
    Diverged {
        /// Last finite state observed, for diagnostics.
        last_state: f64,
        /// Number of iterations performed before divergence was declared.
        iterations: usize,
    },
    /// The iteration count limit was reached without meeting the tolerance.
    MaxIterations {
        /// State at the final iteration.
        state: f64,
        /// Relative change at the final iteration.
        residual: f64,
    },
}

impl FixedPointOutcome {
    /// The state if the solve converged.
    #[must_use]
    pub fn converged_state(&self) -> Option<f64> {
        match *self {
            FixedPointOutcome::Converged { state, .. } => Some(state),
            _ => None,
        }
    }

    /// Whether the solve converged.
    #[must_use]
    pub fn is_converged(&self) -> bool {
        matches!(self, FixedPointOutcome::Converged { .. })
    }

    /// Whether the solve diverged (saturation).
    #[must_use]
    pub fn is_diverged(&self) -> bool {
        matches!(self, FixedPointOutcome::Diverged { .. })
    }
}

/// Configuration for a damped fixed-point iteration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FixedPointSolver {
    /// Damping factor `α` in `(0, 1]`: 1 is plain iteration, smaller is more
    /// heavily damped.
    pub damping: f64,
    /// Relative-change tolerance for convergence.
    pub tolerance: f64,
    /// Maximum number of iterations.
    pub max_iterations: usize,
    /// A state exceeding this value is treated as divergence.
    pub divergence_ceiling: f64,
}

impl Default for FixedPointSolver {
    fn default() -> Self {
        Self { damping: 0.5, tolerance: 1e-9, max_iterations: 10_000, divergence_ceiling: 1e9 }
    }
}

impl FixedPointSolver {
    /// Creates a solver with the given damping factor and defaults elsewhere.
    ///
    /// # Panics
    /// Panics if the damping factor is not in `(0, 1]`.
    #[must_use]
    pub fn with_damping(damping: f64) -> Self {
        assert!(damping > 0.0 && damping <= 1.0, "damping must be in (0, 1]");
        Self { damping, ..Self::default() }
    }

    /// Runs the damped iteration `x ← (1-α)x + α·F(x)` from `initial` until
    /// the relative change `|Δx| / max(|x|, 1e-12)` drops below the
    /// tolerance, `F(x)` diverges (non-finite or above the ceiling), or the
    /// iteration limit.  Nothing is allocated, so `step` decides what an
    /// iteration costs.
    pub fn solve_scalar<F>(&self, initial: f64, mut step: F) -> FixedPointOutcome
    where
        F: FnMut(f64) -> f64,
    {
        assert!(self.damping > 0.0 && self.damping <= 1.0, "damping must be in (0, 1]");
        let mut state = initial;
        let mut residual = f64::INFINITY;
        for iteration in 1..=self.max_iterations {
            let next_raw = step(state);
            if !next_raw.is_finite() || next_raw > self.divergence_ceiling {
                return FixedPointOutcome::Diverged { last_state: state, iterations: iteration };
            }
            let next = (1.0 - self.damping) * state + self.damping * next_raw;
            let denom = next.abs().max(1e-12);
            residual = 0.0f64.max((next - state).abs() / denom);
            state = next;
            if residual < self.tolerance {
                return FixedPointOutcome::Converged { state, iterations: iteration, residual };
            }
        }
        FixedPointOutcome::MaxIterations { state, residual }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_to_known_fixed_point() {
        // x = cos(x) has the Dottie number ~0.739085 as its fixed point.
        let solver = FixedPointSolver::with_damping(1.0);
        let out = solver.solve_scalar(0.0, f64::cos);
        let state = out.converged_state().expect("must converge");
        assert!((state - 0.739_085_133_2).abs() < 1e-6);
    }

    #[test]
    fn damping_still_converges() {
        let solver = FixedPointSolver::with_damping(0.3);
        let out = solver.solve_scalar(0.5, |x| 0.5 * x + 1.0);
        assert!((out.converged_state().unwrap() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn detects_divergence_on_growth() {
        let solver = FixedPointSolver { divergence_ceiling: 1e6, ..Default::default() };
        let out = solver.solve_scalar(1.0, |x| x * 10.0);
        assert!(out.is_diverged());
        assert!(!out.is_converged());
    }

    #[test]
    fn detects_divergence_on_nan_and_infinity() {
        let solver = FixedPointSolver::default();
        assert!(solver.solve_scalar(1.0, |_| f64::NAN).is_diverged());
        assert!(solver.solve_scalar(1.0, |_| f64::INFINITY).is_diverged());
    }

    #[test]
    fn reports_max_iterations_for_oscillation() {
        // Undamped period-2 oscillation between 0 and 1 never converges.
        let solver = FixedPointSolver { damping: 1.0, max_iterations: 50, ..Default::default() };
        let out = solver.solve_scalar(0.0, |x| 1.0 - x);
        assert!(matches!(out, FixedPointOutcome::MaxIterations { .. }));
        // With damping the same map converges to 0.5.
        let damped = FixedPointSolver::with_damping(0.5).solve_scalar(0.0, |x| 1.0 - x);
        assert!((damped.converged_state().unwrap() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn converged_state_accessor_none_on_divergence() {
        let solver = FixedPointSolver { divergence_ceiling: 10.0, ..Default::default() };
        let out = solver.solve_scalar(1.0, |x| x * 2.0);
        assert!(out.converged_state().is_none());
    }

    mod prop {
        use super::*;

        #[test]
        fn linear_contractions_always_converge() {
            for i in 0..19 {
                let slope = -0.9 + 1.8 * f64::from(i) / 18.0;
                for &intercept in &[-100.0f64, -7.5, 0.0, 3.25, 100.0] {
                    for &start in &[-100.0f64, 0.0, 42.0, 100.0] {
                        let solver = FixedPointSolver::with_damping(0.8);
                        let out = solver.solve_scalar(start, |x| slope * x + intercept);
                        let expected = intercept / (1.0 - slope);
                        let s = out
                            .converged_state()
                            .unwrap_or_else(|| panic!("contraction slope={slope} must converge"));
                        assert!(
                            (s - expected).abs() < 1e-5 * (1.0 + expected.abs()),
                            "slope={slope}, intercept={intercept}, start={start}: \
                             got {s}, want {expected}"
                        );
                    }
                }
            }
        }
    }
}
