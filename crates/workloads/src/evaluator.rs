//! The unified evaluation API: one [`Evaluator`] trait answered by both the
//! analytical model and the flit-level simulator.
//!
//! Both backends take an [`OperatingPoint`] and return a [`PointEstimate`]
//! with the same headline quantities — the across-replicate mean message
//! latency with its Student-t 95% confidence interval and a saturation flag
//! — plus backend-specific diagnostics, so any harness can swap backends
//! — or run both and diff them, which is the paper's entire validation
//! methodology.
//!
//! Evaluation is **replicate-aware** end to end: a stochastic backend (the
//! simulator) runs [`Scenario::replicates`] independently seeded replicates
//! per point (seed `i` derived as
//! `star_queueing::replicate_seed(scenario.seed_base, i)`), a deterministic
//! backend (the model) contributes a single degenerate replicate with a
//! zero-width interval, and both report through the same
//! [`crate::ReplicateStats`]-carrying estimate.  The
//! [`Evaluator::evaluate_replicate`] / [`Evaluator::aggregate`] split lets a
//! [`crate::SweepRunner`] shard (point × replicate) work items across
//! threads and reassemble them byte-identically for any thread count.

use std::sync::Arc;

use serde::{Deserialize, Serialize};
use star_core::{ModelParams, SpectrumModel, SpectrumResult, TraversalSpectrum};
use star_graph::{Hypercube, StarGraph};
use star_queueing::ReplicateStats;
use star_sim::{ReplicateReport, ReplicateRun, SimReport};

use crate::budget::SimBudget;
use crate::scenario::{OperatingPoint, Scenario};

/// Backend-specific diagnostics attached to a [`PointEstimate`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EstimateDetail {
    /// The full analytical-model result (fixed-point iterations and
    /// residual, multiplexing degree, waiting times, …).
    Spectrum(SpectrumResult),
    /// The replicate set of simulation reports with across-replicate
    /// statistics (cycles, observed multiplexing, … per replicate).
    Sim(Box<ReplicateReport>),
}

/// What an [`Evaluator`] answers for one operating point: the common headline
/// quantities plus the backend's full diagnostics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointEstimate {
    /// The operating point that was evaluated.
    pub point: OperatingPoint,
    /// Name of the backend that produced the estimate (`"model"` / `"sim"`).
    pub backend: String,
    /// Whether the backend declared the point beyond saturation (for
    /// replicated estimates: whether **any** replicate saturated).
    pub saturated: bool,
    /// Across-replicate mean message latency in cycles (infinite when
    /// saturated).
    pub mean_latency: f64,
    /// Across-replicate statistics of the mean message latency: replicate
    /// count, sample standard deviation and Student-t 95% confidence
    /// half-width.  Deterministic backends report a single degenerate
    /// replicate (zero-width interval), keeping one report schema across
    /// backends.
    pub latency_stats: ReplicateStats,
    /// Backend diagnostics (solve iterations or per-replicate simulation
    /// statistics).
    pub detail: EstimateDetail,
}

impl PointEstimate {
    /// The mean latency when the point is below saturation and, for a model
    /// estimate, its fixed point converged.
    #[must_use]
    pub fn latency(&self) -> Option<f64> {
        (!self.saturated && self.converged() != Some(false)).then_some(self.mean_latency)
    }

    /// Whether the model's fixed-point iteration met its tolerance (model
    /// estimates only).  An unsaturated estimate that did not converge has
    /// no [`Self::latency`].
    #[must_use]
    pub fn converged(&self) -> Option<bool> {
        self.spectrum_result().map(|r| r.converged)
    }

    /// The analytical-model result, if this estimate came from the model.
    #[must_use]
    pub fn spectrum_result(&self) -> Option<&SpectrumResult> {
        match &self.detail {
            EstimateDetail::Spectrum(r) => Some(r),
            _ => None,
        }
    }

    /// The replicate set of simulation reports, if this estimate came from
    /// the simulator.
    #[must_use]
    pub fn sim_report(&self) -> Option<&ReplicateReport> {
        match &self.detail {
            EstimateDetail::Sim(r) => Some(r),
            _ => None,
        }
    }

    /// Number of replicates evaluated for this estimate — always 1 for the
    /// deterministic model (saturated or not), the full run count for the
    /// simulator.  The number of replicates that produced a *finite*
    /// measurement ([`Self::latency_stats`]`.replicates`) may be lower on a
    /// saturated point; see [`Self::sim_report`] for the full set.
    #[must_use]
    pub fn replicates(&self) -> u64 {
        match &self.detail {
            EstimateDetail::Sim(r) => r.replicates() as u64,
            _ => 1,
        }
    }

    /// Student-t 95% confidence half-width of the mean latency across
    /// replicates (0 for deterministic backends and single replicates).
    #[must_use]
    pub fn latency_ci95(&self) -> f64 {
        self.latency_stats.ci95
    }

    /// Relative 95% confidence half-width (`ci95 / mean`).
    #[must_use]
    pub fn latency_rel_ci95(&self) -> f64 {
        self.latency_stats.relative_ci95()
    }

    /// Fixed-point iterations spent (model estimates only).
    #[must_use]
    pub fn iterations(&self) -> Option<usize> {
        self.spectrum_result().map(|r| r.iterations)
    }

    /// The latency as a plottable value: infinite when saturated.
    #[must_use]
    pub fn latency_or_infinity(&self) -> f64 {
        self.latency().unwrap_or(f64::INFINITY)
    }

    /// The table cell of an estimate without a latency.
    fn no_latency_cell(&self) -> String {
        if self.saturated { "saturated" } else { "unconverged" }.to_string()
    }

    /// Formats the latency for tables (`"saturated"` beyond saturation,
    /// `"unconverged"` for a fixed point that ran out of iterations).
    #[must_use]
    pub fn latency_cell(&self) -> String {
        self.latency().map_or_else(|| self.no_latency_cell(), |l| format!("{l:.1}"))
    }

    /// Formats the latency with its confidence interval for tables
    /// (`"74.3 ± 1.2"`; the `± 0.0` is omitted for degenerate intervals,
    /// and estimates without a latency read as in [`Self::latency_cell`]).
    #[must_use]
    pub fn latency_ci_cell(&self) -> String {
        match self.latency() {
            None => self.no_latency_cell(),
            Some(_) if self.latency_stats.ci95 > 0.0 => self.latency_stats.pretty(),
            Some(l) => format!("{l:.1}"),
        }
    }
}

/// A backend that can answer operating points: the analytical model
/// ([`ModelBackend`], covering every topology family), the
/// flit-level simulator ([`SimBackend`]), or anything else that can estimate
/// a latency (future: a learned surrogate, a remote service).
///
/// The unit of work is the **replicate**, not the point: a backend answers
/// [`Self::evaluate_replicate`] for each replicate index and folds the
/// per-replicate estimates with [`Self::aggregate`]; [`Self::evaluate`] is
/// the sequential composition of the two.  Deterministic backends keep the
/// defaults (one replicate, identity aggregation); stochastic backends
/// advertise their fan-out through [`Self::fixed_replicates`] so a
/// [`crate::SweepRunner`] can shard (point × replicate) work items across
/// threads.
///
/// Implementations must be [`Sync`] so a [`crate::SweepRunner`] can shard
/// work across threads.
pub trait Evaluator: Sync {
    /// Short backend name used in reports (`"model"`, `"sim"`).
    fn name(&self) -> &'static str;

    /// Whether this backend can evaluate the scenario at all.
    fn supports(&self, scenario: &Scenario) -> bool;

    /// Number of replicates one point evaluation fans out to, when that
    /// count is known up front: `Some(R)` lets a runner schedule the R
    /// replicates as independent work items; `None` means the backend
    /// decides dynamically (adaptive confidence targeting), so the runner
    /// must hand it whole points via [`Self::evaluate`].
    fn fixed_replicates(&self, scenario: &Scenario) -> Option<usize> {
        let _ = scenario;
        Some(1)
    }

    /// Evaluates one replicate of one operating point.  Deterministic
    /// backends ignore the replicate index.
    ///
    /// # Panics
    /// May panic if [`Self::supports`] is false for the scenario or its
    /// parameters are out of range.
    fn evaluate_replicate(&self, point: &OperatingPoint, replicate: usize) -> PointEstimate;

    /// Folds per-replicate estimates — in replicate-index order — into the
    /// point's aggregate estimate.  The fold must be a pure function of the
    /// ordered input so any scheduler that reassembles replicates by index
    /// reproduces the sequential result byte for byte.  The default is the
    /// single-replicate identity.
    ///
    /// # Panics
    /// The default panics when handed anything but exactly one estimate;
    /// backends with a real fan-out must override it.
    fn aggregate(&self, replicates: Vec<PointEstimate>) -> PointEstimate {
        assert_eq!(
            replicates.len(),
            1,
            "the default aggregation covers single-replicate backends only"
        );
        replicates.into_iter().next().expect("one replicate in, one estimate out")
    }

    /// Evaluates one operating point: all replicates, sequentially, folded
    /// with [`Self::aggregate`].
    ///
    /// # Panics
    /// As [`Self::evaluate_replicate`].
    fn evaluate(&self, point: &OperatingPoint) -> PointEstimate {
        let replicates = self.fixed_replicates(&point.scenario).unwrap_or(1).max(1);
        self.aggregate((0..replicates).map(|i| self.evaluate_replicate(point, i)).collect())
    }

    /// Evaluates one scenario across a whole rate sweep.  The default runs
    /// [`Self::evaluate`] independently per rate; backends with useful state
    /// to carry between rates (the model's warm-started fixed point)
    /// override it.
    fn evaluate_sweep(&self, scenario: &Scenario, rates: &[f64]) -> Vec<PointEstimate> {
        rates.iter().map(|&r| self.evaluate(&scenario.at(r))).collect()
    }

    /// Whether consecutive rates of one sweep must stay on one worker because
    /// [`Self::evaluate_sweep`] chains state between them.  A
    /// [`crate::SweepRunner`] shards whole sweeps (not points) across threads
    /// when this is true, keeping results identical for any thread count.
    fn chains_rates(&self) -> bool {
        false
    }
}

/// The spectrum build a scenario's model evaluations share, as a reusable
/// value: the expensive topology-dependent half of a model solve,
/// `Arc`-shared so clones and concurrent evaluations reuse one allocation.
///
/// [`Evaluator::evaluate`] builds one per call; callers that answer *many*
/// points of one scenario family — the serving daemon's topology/spectrum
/// cache, long-lived REPL sessions — build it once with
/// [`ScenarioSpectrum::build`] and pass it to
/// [`ModelBackend::estimate_with`], which is exactly the
/// [`Evaluator::evaluate`] computation with the spectrum build hoisted out
/// (the answers are bit-identical).
pub struct ScenarioSpectrum(Arc<TraversalSpectrum>);

impl std::fmt::Debug for ScenarioSpectrum {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("ScenarioSpectrum").field(&self.0.topology_name()).finish()
    }
}

impl ScenarioSpectrum {
    /// Builds the spectrum for a scenario's topology: the closed forms for
    /// star graphs and hypercubes, the BFS census for anything else.  Only
    /// the topology matters: every `V`/`M`/rate/discipline of the same
    /// network shares the build.
    #[must_use]
    pub fn build(scenario: &Scenario) -> Self {
        let topology = scenario.topology();
        let any = topology.as_any();
        let spectrum = if let Some(star) = any.downcast_ref::<StarGraph>() {
            TraversalSpectrum::star(star.symbols())
        } else if let Some(cube) = any.downcast_ref::<Hypercube>() {
            TraversalSpectrum::hypercube(cube.dims())
        } else {
            TraversalSpectrum::new(topology.as_ref())
        };
        Self(Arc::new(spectrum))
    }

    /// The spectrum itself.
    #[must_use]
    pub fn spectrum(&self) -> &Arc<TraversalSpectrum> {
        &self.0
    }
}

/// One configuration's model, built once: the scenario's [`ScenarioSpectrum`]
/// with the step kernel of its discipline, `V` and `M` flattened over it.
///
/// [`ModelBackend::estimate_with`] builds the model for every point it
/// answers; a caller that answers many rates of one configuration — the
/// serving daemon's configuration cache — builds it once with
/// [`ScenarioModel::build`] and answers each rate through
/// [`ModelBackend::estimate_on`], bit for bit what `estimate_with` returns
/// with a cold start.
pub struct ScenarioModel(SpectrumModel);

impl std::fmt::Debug for ScenarioModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("ScenarioModel")
            .field(&self.0.spectrum().topology_name())
            .field(self.0.params())
            .finish()
    }
}

impl ScenarioModel {
    /// The model of `scenario`'s configuration on `spectrum` (which must be
    /// the scenario topology's), or `None` when the analytical model does
    /// not cover the configuration ([`Scenario::model_params`] is not
    /// `Ok(Some(_))`).
    #[must_use]
    pub fn build(scenario: &Scenario, spectrum: &ScenarioSpectrum) -> Option<Self> {
        let params = scenario.model_params(0.0).ok().flatten()?;
        Some(Self(SpectrumModel::new(params, Arc::clone(&spectrum.0))))
    }
}

/// The analytical model as an [`Evaluator`]: microseconds per point.  Covers
/// star networks with the three adaptive disciplines and every other
/// topology with all four (deterministic routing on `Q_d` is
/// dimension-order), under uniform traffic, through [`SpectrumModel`] on the
/// scenario's [`ScenarioSpectrum`].
///
/// ```
/// use star_workloads::{Evaluator, ModelBackend, Scenario};
///
/// let backend = ModelBackend::new();
/// // the same backend answers every topology, model-only — this is what
/// // lets the star-vs-hypercube comparison run at S6/Q10 and S7/Q13 scale,
/// // far beyond the flit-level simulator's reach
/// let star = backend.evaluate(&Scenario::star(5).at(0.004));
/// let cube = backend.evaluate(&Scenario::hypercube(7).at(0.004));
/// let torus = backend.evaluate(&Scenario::torus(8).at(0.004));
/// assert!(!star.saturated && !cube.saturated && !torus.saturated);
/// assert_eq!(cube.spectrum_result().unwrap().topology, "Q7");
/// assert_eq!(torus.converged(), Some(true));
/// // all are latency estimates above their zero-load bound M + d̄
/// assert!(star.mean_latency > 32.0);
/// assert!(cube.mean_latency > 32.0);
/// assert!(torus.mean_latency > 32.0);
/// ```
#[derive(Debug, Clone)]
pub struct ModelBackend {
    /// Warm-start each rate of a sweep from the previous rate's converged
    /// fixed point (on by default; matches cold starts to solver tolerance).
    pub warm_start: bool,
}

impl Default for ModelBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl ModelBackend {
    /// A warm-starting model backend (the default).
    #[must_use]
    pub fn new() -> Self {
        Self { warm_start: true }
    }

    /// A backend that solves every rate from the cold zero-load state
    /// (for iteration-count comparisons and benchmarks).
    #[must_use]
    pub fn cold() -> Self {
        Self { warm_start: false }
    }

    /// The model of `scenario` on its spectrum, built at `traffic_rate`.
    fn model(scenario: &Scenario, traffic_rate: f64, spectrum: &ScenarioSpectrum) -> SpectrumModel {
        let params: ModelParams = scenario
            .model_params(traffic_rate)
            .unwrap_or_else(|e| panic!("invalid model scenario {}: {e}", scenario.label()))
            .unwrap_or_else(|| panic!("{}", Self::unsupported_message(scenario)));
        SpectrumModel::new(params, Arc::clone(&spectrum.0))
    }

    /// Answers `point` with a model of its scenario, warm-started from
    /// `warm_state` (empty: cold).
    fn estimate(
        &self,
        point: &OperatingPoint,
        model: &SpectrumModel,
        warm_state: &[f64],
    ) -> PointEstimate {
        let result = model.solve_at(point.traffic_rate, warm_state);
        let answered = !result.saturated && result.converged;
        PointEstimate {
            point: point.clone(),
            backend: self.name().to_string(),
            saturated: result.saturated,
            mean_latency: result.mean_latency,
            // the model is deterministic: one degenerate replicate, CI of
            // zero width (no observation at all when there is no answer)
            latency_stats: if answered {
                ReplicateStats::degenerate(result.mean_latency)
            } else {
                ReplicateStats::empty()
            },
            detail: EstimateDetail::Spectrum(result),
        }
    }

    fn unsupported_message(scenario: &Scenario) -> String {
        format!(
            "the analytical model does not cover scenario {} \
             (star: enhanced-nbc/nbc/nhop; any other topology: any \
             discipline; uniform traffic only)",
            scenario.label()
        )
    }

    /// [`Evaluator::evaluate`] with the spectrum build hoisted out: answers
    /// the point reusing a prebuilt [`ScenarioSpectrum`] (which must belong
    /// to the point's topology) and an optional warm-start state (empty
    /// slice = cold start, the [`Evaluator::evaluate`] behaviour).
    ///
    /// With an empty `warm_state` the returned estimate is **bit-identical**
    /// to [`Evaluator::evaluate`] on the same point — this is the contract
    /// the serving daemon's byte-identity guarantee rests on.  A non-empty
    /// `warm_state` seeds the fixed point the way the sweep chain of
    /// [`Evaluator::evaluate_sweep`] does; the answer then agrees to solver
    /// tolerance (1e-9 relative latency) instead of bit for bit.
    ///
    /// # Panics
    /// As [`Evaluator::evaluate`]; also if the spectrum was built for a
    /// different topology family or size than the point's.
    #[must_use]
    pub fn estimate_with(
        &self,
        point: &OperatingPoint,
        spectrum: &ScenarioSpectrum,
        warm_state: &[f64],
    ) -> PointEstimate {
        assert_eq!(
            point.scenario.topology().name(),
            spectrum.0.topology_name(),
            "spectrum built for another topology"
        );
        let model = Self::model(&point.scenario, point.traffic_rate, spectrum);
        self.estimate(point, &model, warm_state)
    }

    /// [`Self::estimate_with`] with a cold start and the model build hoisted
    /// out as well: answers the point on its configuration's prebuilt
    /// [`ScenarioModel`].  The estimate is **bit-identical** to
    /// `estimate_with(point, spectrum, &[])`: the rate is the only parameter
    /// the model's step kernel does not hold.
    ///
    /// # Panics
    /// Panics if the rate is negative or not finite.  In debug builds, also
    /// if the model was built for another configuration than the point's.
    #[must_use]
    pub fn estimate_on(&self, point: &OperatingPoint, model: &ScenarioModel) -> PointEstimate {
        debug_assert_eq!(
            point.scenario.model_params(point.traffic_rate).ok().flatten(),
            Some(model.0.params().with_rate(point.traffic_rate)),
            "model built for another configuration"
        );
        debug_assert_eq!(point.scenario.topology().name(), model.0.spectrum().topology_name());
        self.estimate(point, &model.0, &[])
    }

    /// The mean network latency an estimate contributes as the next rate's
    /// warm-start seed: the value [`Evaluator::evaluate_sweep`] chains
    /// between rates.  `None` for simulator estimates; non-finite (and
    /// ignored by `solve_from` in favour of a cold start) for saturated
    /// points.
    fn warm_seed(estimate: &PointEstimate) -> Option<f64> {
        // saturated points leave a non-finite seed, which solve_from ignores
        // in favour of the cold start
        estimate.spectrum_result().map(|r| r.mean_network_latency)
    }
}

impl Evaluator for ModelBackend {
    fn name(&self) -> &'static str {
        "model"
    }

    fn supports(&self, scenario: &Scenario) -> bool {
        matches!(scenario.model_params(0.0), Ok(Some(_)))
    }

    fn evaluate_replicate(&self, point: &OperatingPoint, _replicate: usize) -> PointEstimate {
        // the model is deterministic — every replicate is the same solve
        self.evaluate(point)
    }

    fn evaluate(&self, point: &OperatingPoint) -> PointEstimate {
        self.estimate_with(point, &ScenarioSpectrum::build(&point.scenario), &[])
    }

    fn evaluate_sweep(&self, scenario: &Scenario, rates: &[f64]) -> Vec<PointEstimate> {
        let Some(&first) = rates.first() else { return Vec::new() };
        // one model, and so one step kernel, answers every rate
        let model = Self::model(scenario, first, &ScenarioSpectrum::build(scenario));
        let mut warm_state: Vec<f64> = Vec::new();
        rates
            .iter()
            .map(|&rate| {
                let estimate = self.estimate(&scenario.at(rate), &model, &warm_state);
                if self.warm_start {
                    if let Some(seed) = Self::warm_seed(&estimate) {
                        warm_state = vec![seed];
                    }
                }
                estimate
            })
            .collect()
    }

    fn chains_rates(&self) -> bool {
        self.warm_start
    }
}

/// Adaptive stopping rule for replicated simulation: keep running replicate
/// batches until the relative 95% confidence half-width of the mean latency
/// falls below the target, or the replicate cap is hit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CiTarget {
    /// Target relative half-width (`ci95 / mean`), e.g. `0.05` for ±5%.
    pub relative: f64,
    /// Hard cap on replicates per point (the stopping rule gives up there).
    pub max_replicates: usize,
}

impl CiTarget {
    /// Default replicate cap of the adaptive stopping rule.
    pub const DEFAULT_MAX_REPLICATES: usize = 32;

    /// A target with the default replicate cap.
    ///
    /// # Panics
    /// Panics unless `relative` is in `(0, 1)`.
    #[must_use]
    pub fn new(relative: f64) -> Self {
        assert!(relative > 0.0 && relative < 1.0, "relative CI target must be in (0, 1)");
        Self { relative, max_replicates: Self::DEFAULT_MAX_REPLICATES }
    }
}

/// The flit-level simulator as an [`Evaluator`]: seconds per point, any
/// topology and discipline the simulator supports.
///
/// The backend is replicate-aware: each point runs the
/// [`Scenario::replicates`] independently seeded replicates (seed `i`
/// derived from [`Scenario::seed_base`]), and the estimate carries the
/// across-replicate mean and Student-t 95% confidence interval.  There is no
/// single-seed mode — one replicate is simply `replicates = 1`, whose seed
/// is still derived from the base.
///
/// ```
/// use star_workloads::{Evaluator, SimBackend, SimBudget, Scenario};
///
/// let backend = SimBackend::new(SimBudget::Quick);
/// let scenario = Scenario::star(4)
///     .with_message_length(16)
///     .with_replicates(2)
///     .with_seed_base(42);
/// let a = backend.evaluate(&scenario.at(0.003));
/// // the same seed base reproduces the same replicate set, cycle for cycle
/// let b = backend.evaluate(&scenario.at(0.003));
/// assert_eq!(a, b);
/// assert_eq!(a.replicates(), 2);
/// // two independent seeds yield a real (non-degenerate) interval
/// assert!(a.latency_ci95() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct SimBackend {
    /// Simulation effort per replicate.
    pub budget: SimBudget,
    /// Optional adaptive stopping rule: run replicate batches beyond the
    /// scenario's base count until the relative CI half-width meets the
    /// target (or the cap).  `None` runs exactly
    /// [`Scenario::replicates`] replicates.
    pub ci_target: Option<CiTarget>,
}

impl SimBackend {
    /// A simulator backend with the given effort budget, running exactly the
    /// scenario's replicate count per point.
    #[must_use]
    pub fn new(budget: SimBudget) -> Self {
        Self { budget, ci_target: None }
    }

    /// Enables the adaptive stopping rule (see [`CiTarget`]).
    #[must_use]
    pub fn with_ci_target(mut self, target: CiTarget) -> Self {
        self.ci_target = Some(target);
        self
    }

    /// The replicate fan-out of one operating point.
    fn replicate_run(&self, point: &OperatingPoint) -> ReplicateRun {
        let scenario = &point.scenario;
        let topology = scenario.topology();
        let routing = scenario.discipline.routing(topology.as_ref(), scenario.virtual_channels);
        let config =
            self.budget.apply(scenario.message_length, point.traffic_rate, scenario.seed_base);
        ReplicateRun::new(topology, routing, config, scenario.pattern, scenario.replicates.max(1))
    }

    /// Wraps a replicate set as the point's estimate.
    fn estimate(&self, point: &OperatingPoint, runs: Vec<SimReport>) -> PointEstimate {
        let report = ReplicateReport::from_runs(runs);
        // a deadlock-watchdog trip (a simulator bug, never a protocol
        // property of the shipped algorithms) also invalidates the point:
        // without this, an all-deadlocked set would publish its empty-stats
        // mean of 0.0 as a valid finite latency
        let unusable = report.saturated || report.deadlock_detected;
        PointEstimate {
            point: point.clone(),
            backend: self.name().to_string(),
            saturated: unusable,
            // keep the headline field's contract backend-agnostic: infinite
            // beyond saturation (partial measurements stay in the report)
            mean_latency: if unusable { f64::INFINITY } else { report.latency.mean },
            latency_stats: report.latency,
            detail: EstimateDetail::Sim(Box::new(report)),
        }
    }
}

impl Evaluator for SimBackend {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn supports(&self, _scenario: &Scenario) -> bool {
        true
    }

    fn fixed_replicates(&self, scenario: &Scenario) -> Option<usize> {
        // under a CI target the count is decided while evaluating, so the
        // runner must hand this backend whole points
        if self.ci_target.is_some() {
            None
        } else {
            Some(scenario.replicates.max(1))
        }
    }

    fn evaluate_replicate(&self, point: &OperatingPoint, replicate: usize) -> PointEstimate {
        let run = self.replicate_run(point);
        self.estimate(point, vec![run.run_replicate(replicate as u64)])
    }

    fn aggregate(&self, replicates: Vec<PointEstimate>) -> PointEstimate {
        assert!(!replicates.is_empty(), "a point aggregates at least one replicate");
        let point = replicates[0].point.clone();
        let runs: Vec<SimReport> = replicates
            .into_iter()
            .flat_map(|estimate| match estimate.detail {
                EstimateDetail::Sim(report) => report.runs,
                _ => panic!("the sim backend can only aggregate sim replicates"),
            })
            .collect();
        self.estimate(&point, runs)
    }

    fn evaluate(&self, point: &OperatingPoint) -> PointEstimate {
        let run = self.replicate_run(point);
        let base = run.replicates() as u64;
        let mut runs: Vec<SimReport> = (0..base).map(|i| run.run_replicate(i)).collect();
        if let Some(target) = self.ci_target {
            // adaptive stopping: a CI needs at least two observations, then
            // grow in base-sized batches until the target or the cap.  The
            // replicate sequence is a pure function of (seed base, index),
            // so adaptive runs extend — never reshuffle — fixed runs.
            let cap = target.max_replicates.max(base as usize) as u64;
            loop {
                let report = ReplicateReport::from_runs(runs);
                let n = report.runs.len() as u64;
                let resolved = report.saturated
                    || report.deadlock_detected
                    || (n >= 2 && report.latency.relative_ci95() <= target.relative);
                if resolved || n >= cap {
                    return self.estimate(point, report.runs);
                }
                let batch = base.min(cap - n);
                runs = report.runs;
                for i in n..n + batch {
                    runs.push(run.run_replicate(i));
                }
            }
        }
        self.estimate(point, runs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Discipline;

    fn s4() -> Scenario {
        Scenario::star(4).with_message_length(16)
    }

    #[test]
    fn model_backend_answers_star_scenarios() {
        let backend = ModelBackend::new();
        assert!(backend.supports(&s4()));
        let estimate = backend.evaluate(&s4().at(0.004));
        assert_eq!(estimate.backend, "model");
        assert!(!estimate.saturated);
        assert!(estimate.latency().unwrap() > 16.0);
        assert!(estimate.iterations().unwrap() > 0);
        assert!(estimate.sim_report().is_none());
    }

    #[test]
    fn model_backend_rejects_unmodelled_scenarios() {
        let backend = ModelBackend::new();
        // the star model has no deterministic variant
        assert!(!backend.supports(&s4().with_discipline(Discipline::Deterministic)));
        // too few virtual channels is a validation error, not a supported scenario
        assert!(!backend.supports(&s4().with_virtual_channels(3)));
        // hypercube scenarios check against the cube's own level minimum
        assert!(!backend.supports(&Scenario::hypercube(10).with_virtual_channels(6)));
        // generic topologies check against their diameter's level minimum
        assert!(!backend.supports(&Scenario::torus(12).with_virtual_channels(7)));
        assert!(backend.supports(&Scenario::torus(12).with_virtual_channels(8)));
        // non-uniform traffic is outside the model on every topology
        let hot = star_sim::TrafficPattern::HotSpot { node: 0, fraction: 0.2 };
        assert!(!backend.supports(&s4().with_pattern(hot)));
        assert!(!backend.supports(&Scenario::hypercube(4).with_pattern(hot)));
        assert!(!backend.supports(&Scenario::torus(8).with_pattern(hot)));
    }

    #[test]
    fn a_prebuilt_model_answers_bit_for_bit_as_a_fresh_one() {
        let backend = ModelBackend::new();
        let scenarios = [
            Scenario::star(5),
            Scenario::star(5).with_discipline(Discipline::NHop).with_virtual_channels(9),
            Scenario::hypercube(5).with_discipline(Discipline::Nbc),
            Scenario::torus(8).with_discipline(Discipline::Deterministic),
            Scenario::ring(8).with_discipline(Discipline::NHop).with_message_length(16),
        ];
        for scenario in &scenarios {
            let spectrum = ScenarioSpectrum::build(scenario);
            let model = ScenarioModel::build(scenario, &spectrum).expect("modelled");
            let knee = crate::model_saturation_rate(scenario, 1e-5);
            // from zero load through the knee into saturation
            for rate in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0, 1.01, 2.0].map(|x| x * knee) {
                let point = scenario.at(rate);
                let fresh = backend.estimate_with(&point, &spectrum, &[]);
                let reused = backend.estimate_on(&point, &model);
                assert_eq!(format!("{reused:?}"), format!("{fresh:?}"), "{}", scenario.label());
                assert_eq!(crate::encode_estimate(&reused), crate::encode_estimate(&fresh));
            }
        }
        // outside the model there is no model to build
        let star = s4().with_discipline(Discipline::Deterministic);
        assert!(ScenarioModel::build(&star, &ScenarioSpectrum::build(&star)).is_none());
        let short = s4().with_virtual_channels(3);
        assert!(ScenarioModel::build(&short, &ScenarioSpectrum::build(&short)).is_none());
    }

    #[test]
    #[should_panic(expected = "does not cover scenario")]
    fn model_backend_panics_on_unsupported_evaluate() {
        let _ = ModelBackend::new()
            .evaluate(&s4().with_discipline(Discipline::Deterministic).at(0.001));
    }

    #[test]
    fn model_backend_answers_hypercube_scenarios() {
        let backend = ModelBackend::new();
        for discipline in Discipline::ALL {
            let scenario = Scenario::hypercube(4).with_discipline(discipline);
            assert!(backend.supports(&scenario), "{discipline:?} must be modelled on Q4");
            let estimate = backend.evaluate(&scenario.at(0.005));
            assert_eq!(estimate.backend, "model");
            assert!(!estimate.saturated);
            assert!(estimate.latency().unwrap() > 32.0);
            assert!(estimate.iterations().unwrap() > 0);
            assert_eq!(estimate.spectrum_result().unwrap().topology, "Q4");
            assert_eq!(estimate.converged(), Some(true));
            assert!(estimate.sim_report().is_none());
        }
    }

    #[test]
    fn model_backend_answers_torus_and_ring_scenarios() {
        // the generic spectrum path: no closed form anywhere, every
        // discipline covered (deterministic routing has one admissible port
        // per hop on the torus's BFS DAG)
        let backend = ModelBackend::new();
        for discipline in Discipline::ALL {
            let scenario = Scenario::torus(8).with_discipline(discipline);
            assert!(backend.supports(&scenario), "{discipline:?} must be modelled on T8");
            let estimate = backend.evaluate(&scenario.at(0.004));
            assert_eq!(estimate.backend, "model");
            assert!(!estimate.saturated);
            assert!(estimate.latency().unwrap() > 32.0);
            assert!(estimate.iterations().unwrap() > 0);
            assert_eq!(estimate.spectrum_result().unwrap().topology, "T8");
            assert!(estimate.sim_report().is_none());
        }
        let ring = backend.evaluate(&Scenario::ring(8).with_virtual_channels(4).at(0.004));
        assert!(!ring.saturated);
        assert_eq!(ring.spectrum_result().unwrap().topology, "R8");
    }

    #[test]
    fn warm_started_torus_sweep_matches_independent_evaluations() {
        // a BFS-census spectrum takes part in the same warm-start chain as
        // the closed-form ones
        let backend = ModelBackend::new();
        let scenario = Scenario::torus(8);
        let rates = [0.006, 0.010, 0.013];
        let swept = backend.evaluate_sweep(&scenario, &rates);
        let total_warm: usize = swept.iter().filter_map(PointEstimate::iterations).sum();
        let mut total_solo = 0;
        for (est, &rate) in swept.iter().zip(&rates) {
            let solo = backend.evaluate(&scenario.at(rate));
            total_solo += solo.iterations().unwrap();
            assert_eq!(est.saturated, solo.saturated);
            if !est.saturated {
                let rel = (est.mean_latency - solo.mean_latency).abs() / solo.mean_latency;
                assert!(rel < 1e-9, "rate {rate}: sweep vs solo differ by {rel}");
            }
        }
        assert!(
            total_warm < total_solo,
            "warm-starting must carry over to the torus ({total_warm} vs {total_solo})"
        );
    }

    #[test]
    fn warm_started_hypercube_sweep_matches_independent_evaluations() {
        let backend = ModelBackend::new();
        // rates approaching the knee, where warm seeds actually save work
        let scenario = Scenario::hypercube(6);
        let rates = [0.012, 0.020, 0.024];
        let swept = backend.evaluate_sweep(&scenario, &rates);
        let total_warm: usize = swept.iter().filter_map(PointEstimate::iterations).sum();
        let mut total_solo = 0;
        for (est, &rate) in swept.iter().zip(&rates) {
            let solo = backend.evaluate(&scenario.at(rate));
            total_solo += solo.iterations().unwrap();
            assert_eq!(est.saturated, solo.saturated);
            if !est.saturated {
                let rel = (est.mean_latency - solo.mean_latency).abs() / solo.mean_latency;
                assert!(rel < 1e-9, "rate {rate}: sweep vs solo differ by {rel}");
            }
        }
        assert!(
            total_warm < total_solo,
            "warm-starting must carry over to the hypercube ({total_warm} vs {total_solo})"
        );
    }

    #[test]
    fn model_only_parity_scales_to_q10_and_q13() {
        // the sizes behind the S6/S7 parity sweep; sub-millisecond per point,
        // no simulator anywhere near
        let backend = ModelBackend::new();
        for dims in [10usize, 13] {
            let scenario = Scenario::hypercube(dims).with_virtual_channels(8);
            let estimate = backend.evaluate(&scenario.at(0.002));
            assert!(!estimate.saturated, "Q{dims} must solve at light load");
            assert_eq!(estimate.converged(), Some(true));
        }
    }

    #[test]
    fn warm_started_sweep_matches_independent_evaluations() {
        let backend = ModelBackend::new();
        let scenario = s4();
        let rates = [0.002, 0.008, 0.014];
        let swept = backend.evaluate_sweep(&scenario, &rates);
        assert!(backend.chains_rates());
        assert!(!ModelBackend::cold().chains_rates());
        for (est, &rate) in swept.iter().zip(&rates) {
            let solo = backend.evaluate(&scenario.at(rate));
            assert_eq!(est.saturated, solo.saturated);
            if !est.saturated {
                let rel = (est.mean_latency - solo.mean_latency).abs() / solo.mean_latency;
                assert!(rel < 1e-9, "rate {rate}: sweep vs solo differ by {rel}");
            }
        }
    }

    #[test]
    fn sim_backend_answers_any_scenario_deterministically() {
        let backend = SimBackend::new(SimBudget::Quick);
        assert!(backend.supports(&Scenario::hypercube(3)));
        let point = s4().with_seed_base(9).at(0.004);
        let a = backend.evaluate(&point);
        let b = backend.evaluate(&point);
        assert_eq!(a.backend, "sim");
        assert!(!a.saturated);
        assert_eq!(a, b, "same seed base must reproduce the same report");
        let report = a.sim_report().unwrap();
        assert_eq!(report.replicates(), 1);
        assert_eq!(report.first().virtual_channels, 6);
        assert_eq!(a.latency_ci95(), 0.0, "one replicate has a degenerate interval");
        assert!(a.spectrum_result().is_none());
        assert!(a.iterations().is_none());
        assert!(a.converged().is_none());
    }

    #[test]
    fn replicate_fan_out_aggregates_byte_identically() {
        // the contract the sweep runner's (point × replicate) sharding rests
        // on: per-index evaluation + index-ordered aggregation equals the
        // sequential evaluation
        let backend = SimBackend::new(SimBudget::Quick);
        let point = s4().with_replicates(3).with_seed_base(5).at(0.004);
        assert_eq!(backend.fixed_replicates(&point.scenario), Some(3));
        let sequential = backend.evaluate(&point);
        let sharded =
            backend.aggregate((0..3).map(|i| backend.evaluate_replicate(&point, i)).collect());
        assert_eq!(sequential, sharded);
        assert_eq!(sequential.replicates(), 3);
        assert!(sequential.latency_ci95() > 0.0);
        assert!(sequential.latency_rel_ci95() > 0.0);
        // replicate estimates really came from different seeds
        let means: Vec<f64> =
            sequential.sim_report().unwrap().runs.iter().map(|r| r.mean_message_latency).collect();
        assert!(means.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn ci_target_runs_batches_until_resolved_or_capped() {
        let point = s4().with_replicates(2).with_seed_base(11).at(0.004);
        // a loose target resolves quickly…
        let loose =
            SimBackend::new(SimBudget::Quick).with_ci_target(CiTarget::new(0.5)).evaluate(&point);
        assert!(loose.latency_rel_ci95() <= 0.5);
        assert!(loose.replicates() >= 2, "a CI needs at least two replicates");
        // …an unreachable one stops at the cap
        let capped = SimBackend::new(SimBudget::Quick)
            .with_ci_target(CiTarget { relative: 1e-9, max_replicates: 4 })
            .evaluate(&point);
        assert_eq!(capped.replicates(), 4);
        assert!(capped.latency_rel_ci95() > 1e-9);
        // the adaptive prefix extends (never reshuffles) the fixed fan-out
        let fixed = SimBackend::new(SimBudget::Quick)
            .evaluate(&s4().with_replicates(4).with_seed_base(11).at(0.004));
        assert_eq!(
            capped.sim_report().unwrap().runs,
            fixed.sim_report().unwrap().runs,
            "replicate i must be the same simulation however the count was reached"
        );
        // dynamic counts cannot be pre-sharded
        assert_eq!(
            SimBackend::new(SimBudget::Quick)
                .with_ci_target(CiTarget::new(0.1))
                .fixed_replicates(&point.scenario),
            None
        );
    }

    #[test]
    fn deadlocked_replicates_invalidate_the_point() {
        // the watchdog firing means a simulator bug, not a measurement: the
        // point must not publish the empty-stats mean of 0.0 as a latency
        let backend = SimBackend::new(SimBudget::Quick);
        let point = s4().with_seed_base(9).at(0.004);
        let healthy = backend.evaluate_replicate(&point, 0);
        let mut runs = healthy.sim_report().unwrap().runs.clone();
        runs[0].deadlock_detected = true;
        let estimate = backend.estimate(&point, runs);
        assert!(estimate.saturated, "a deadlocked set is unusable");
        assert!(estimate.latency().is_none());
        assert!(estimate.mean_latency.is_infinite());
        assert_eq!(estimate.latency_stats.replicates, 0);
        // …and under a CI target the adaptive loop stops instead of
        // chasing a zero-mean interval (exercised via aggregate semantics:
        // the unusable flag comes straight from the replicate report)
        assert!(estimate.sim_report().unwrap().deadlock_detected);
    }

    #[test]
    fn saturated_model_points_still_count_one_replicate() {
        let sat = ModelBackend::new().evaluate(&s4().at(0.5));
        assert!(sat.saturated);
        assert_eq!(sat.replicates(), 1, "the model is always one deterministic replicate");
        assert_eq!(sat.latency_stats.replicates, 0, "…with no finite observation");
    }

    #[test]
    fn model_reports_zero_width_interval() {
        let estimate = ModelBackend::new().evaluate(&s4().with_replicates(8).at(0.004));
        // the model is deterministic: replicates are ignored, the interval
        // is degenerate, and the schema still carries the stats fields
        assert_eq!(estimate.replicates(), 1);
        assert_eq!(estimate.latency_ci95(), 0.0);
        assert_eq!(estimate.latency_rel_ci95(), 0.0);
        assert_eq!(estimate.latency_stats.mean, estimate.mean_latency);
    }

    #[test]
    fn model_and_sim_agree_at_light_load() {
        let scenario = s4().with_replicates(2).with_seed_base(1);
        let model = ModelBackend::new().evaluate(&scenario.at(0.004));
        let sim = SimBackend::new(SimBudget::Quick).evaluate(&scenario.at(0.004));
        assert!(!model.saturated && !sim.saturated);
        let err = (model.mean_latency - sim.mean_latency).abs() / sim.mean_latency;
        assert!(
            err < 0.25,
            "model {} vs sim {} ± {} differ by {err}",
            model.mean_latency,
            sim.mean_latency,
            sim.latency_ci95()
        );
    }

    #[test]
    fn a_non_converged_solve_has_no_latency() {
        // T8 at its knee: the fixed point runs out of iterations unsaturated
        let point = Scenario::torus(8).at(0.014_881_188_037_297_724);
        let estimate = ModelBackend::new().evaluate(&point);
        assert!(!estimate.saturated);
        assert_eq!(estimate.converged(), Some(false));
        assert!(estimate.mean_latency.is_finite());
        assert_eq!(estimate.latency(), None);
        assert_eq!(estimate.latency_stats.replicates, 0);
        assert_eq!(estimate.latency_cell(), "unconverged");
    }

    #[test]
    fn latency_cell_formats_saturation() {
        let backend = ModelBackend::new();
        let fine = backend.evaluate(&s4().at(0.004));
        assert!(fine.latency_cell().parse::<f64>().is_ok());
        let sat = backend.evaluate(&s4().at(0.5));
        assert!(sat.saturated);
        assert_eq!(sat.latency_cell(), "saturated");
        assert!(sat.latency().is_none());
        assert!(sat.latency_or_infinity().is_infinite());
    }
}
