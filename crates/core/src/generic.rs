//! The analytical latency model (Eq. 1) and its fixed-point solution, on
//! any [`TraversalSpectrum`].
//!
//! The model is one fixed point solved over a destination spectrum: the
//! mean network latency `S̄` (Eqs. 4-5) depends on the per-hop blocking
//! delays (Eqs. 6-11), which depend on the channel waiting time (Eqs.
//! 12-16), which depends on `S̄` again.  [`SpectrumModel`] iterates that
//! dependency with a damped solver and composes the answer
//! `(S̄ + W_s)·V̄`.  The star's cycle types, the hypercube's Hamming classes
//! and the BFS census of any other [`star_graph::Topology`] are just
//! different spectra fed to the same solve; [`saturation_rate`] is the one
//! bisection over it.

use std::sync::Arc;

use serde::{Deserialize, Serialize};
use star_queueing::{FixedPointOutcome, FixedPointSolver};

use crate::kernel::{StepKernel, StepScratch};
use crate::occupancy::ChannelOccupancy;
use crate::params::ModelParams;
use crate::spectrum::TraversalSpectrum;
use crate::waiting::{channel_waiting_time, source_waiting_time};

/// Result of evaluating the model at one operating point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpectrumResult {
    /// The parameters that were evaluated.
    pub params: ModelParams,
    /// Name of the topology the spectrum was built from.
    pub topology: String,
    /// Whether the operating point is beyond saturation (the fixed point
    /// diverged or a queue became unstable).
    pub saturated: bool,
    /// Whether the fixed-point iteration met its tolerance.  An unsaturated
    /// result with `converged == false` ran out of iterations: its latency
    /// is the last iterate, not an answer.
    pub converged: bool,
    /// Relative change of `S̄` at the last iteration (infinite when the
    /// iteration diverged or never ran).
    pub residual: f64,
    /// Mean network latency `S̄` (time to cross the network), in cycles.
    pub mean_network_latency: f64,
    /// Mean waiting time at the source queue `W_s`, in cycles.
    pub source_waiting: f64,
    /// Average degree of virtual-channel multiplexing `V̄` (Eq. 19).
    pub multiplexing: f64,
    /// Mean message latency `(S̄ + W_s)·V̄`, in cycles.
    pub mean_latency: f64,
    /// Mean minimal distance `d̄` (Eq. 2).
    pub mean_distance: f64,
    /// Traffic rate per channel `λ_c = λ_g·d̄/degree` (Eq. 3).
    pub channel_rate: f64,
    /// Channel utilisation `λ_c · S̄` at the solution.
    pub channel_utilization: f64,
    /// Mean waiting time `w̄` at a channel when blocking occurs (Eq. 15).
    pub channel_waiting: f64,
    /// Number of fixed-point iterations used.
    pub iterations: usize,
}

/// The damped fixed-point solver the latency model iterates with.
///
/// Tolerance 1e-12 (not the solver default 1e-9): near the knee the
/// contraction factor approaches 1 and the per-iteration residual understates
/// the distance to the fixed point, and warm- and cold-started solves must
/// agree to 1e-9 relative latency.
fn latency_solver() -> FixedPointSolver {
    FixedPointSolver {
        damping: 0.5,
        tolerance: 1e-12,
        max_iterations: 20_000,
        divergence_ceiling: 1e7,
    }
}

/// The analytical model of mean message latency on a [`TraversalSpectrum`].
///
/// Building a model also flattens the rate-independent half of the
/// fixed-point step: per class `M + distance` and population, per hop the
/// index of its kind — the admissible virtual-channel count of each source
/// colour and the adaptivity distribution, interned once per distinct
/// kind — and the binomial weights of `P(all a busy)`.  Each iteration of
/// a solve then only fills the Eq. 18 occupancy, `P(all a busy)`, the
/// powers `P^f` it reads and one blocking delay per hop kind into buffers
/// the solve owns, and walks those flat arrays without allocating.  The
/// per-hop formula of [`crate::blocking::total_blocking_delay`] stays the
/// documented reference the step reproduces bit for bit.
#[derive(Debug, Clone)]
pub struct SpectrumModel {
    params: ModelParams,
    spectrum: Arc<TraversalSpectrum>,
    kernel: StepKernel,
}

impl SpectrumModel {
    /// Builds the model around an already computed spectrum (the spectrum
    /// only depends on the topology, so a sweep — or several threads — can
    /// reuse one allocation).
    ///
    /// # Panics
    /// Panics if the parameters are invalid for the spectrum's topology
    /// (diameter-derived virtual-channel floor, message length, rate).
    #[must_use]
    pub fn new(params: ModelParams, spectrum: Arc<TraversalSpectrum>) -> Self {
        if let Err(e) = params.validate(spectrum.node_count(), spectrum.diameter()) {
            panic!("invalid parameters for {}: {e}", spectrum.topology_name());
        }
        let kernel = StepKernel::new(&params, &spectrum);
        Self { params, spectrum, kernel }
    }

    /// Builds the model and the BFS spectrum in one go.
    ///
    /// # Panics
    /// As [`Self::new`] and [`TraversalSpectrum::new`].
    #[must_use]
    pub fn for_topology(params: ModelParams, topology: &dyn star_graph::Topology) -> Self {
        Self::new(params, Arc::new(TraversalSpectrum::new(topology)))
    }

    /// The parameters being evaluated.
    #[must_use]
    pub fn params(&self) -> &ModelParams {
        &self.params
    }

    /// The traversal spectrum (shared across operating points of the same
    /// topology).
    #[must_use]
    pub fn spectrum(&self) -> &TraversalSpectrum {
        &self.spectrum
    }

    /// Solves the model at the configured operating point from the cold
    /// (zero-load) initial state.
    #[must_use]
    pub fn solve(&self) -> SpectrumResult {
        self.solve_from(&[])
    }

    /// Solves the model, warm-starting the damped fixed-point iteration from
    /// a previously converged state vector (one component: the mean network
    /// latency `S̄`).
    ///
    /// Sweeps over increasing traffic rates converge to nearby fixed points,
    /// so seeding each rate with the previous rate's converged state cuts the
    /// iteration count substantially near the saturation knee while reaching
    /// the same fixed point (the solver tolerance bounds the answer, not the
    /// path to it).  An empty slice or a non-finite / below-zero-load seed
    /// (e.g. from a saturated previous point) falls back to the cold start,
    /// so callers can pass the previous state unconditionally.
    #[must_use]
    pub fn solve_from(&self, warm_state: &[f64]) -> SpectrumResult {
        self.solve_at(self.params.traffic_rate, warm_state)
    }

    /// [`Self::solve_from`] at another traffic rate.  The rate is the only
    /// parameter the step's kernel does not hold, so one model answers a
    /// whole sweep, each rate bit for bit as a model built for it would.
    ///
    /// # Panics
    /// Panics if the rate is negative or not finite.
    #[must_use]
    pub fn solve_at(&self, traffic_rate: f64, warm_state: &[f64]) -> SpectrumResult {
        let params = &self.params.with_rate(traffic_rate);
        if let Err(e) = params.validate(self.spectrum.node_count(), self.spectrum.diameter()) {
            panic!("invalid parameters for {}: {e}", self.spectrum.topology_name());
        }
        let name = self.spectrum.topology_name().to_string();
        let mean_distance = self.spectrum.mean_distance();
        let channel_rate = params.traffic_rate * mean_distance / self.spectrum.degree() as f64;
        let zero_load = params.message_length as f64 + mean_distance;
        // a placeholder result with infinite latency
        let saturated = |topology, iterations, converged, residual| SpectrumResult {
            params: *params,
            topology,
            saturated: true,
            converged,
            residual,
            mean_network_latency: f64::INFINITY,
            source_waiting: f64::INFINITY,
            multiplexing: params.virtual_channels as f64,
            mean_latency: f64::INFINITY,
            mean_distance,
            channel_rate,
            channel_utilization: 1.0,
            channel_waiting: f64::INFINITY,
            iterations,
        };

        // a channel can never serve more than one message of M flits at a
        // time, so λ_c·M ≥ 1 is beyond saturation
        if channel_rate * params.message_length as f64 >= 1.0 {
            return saturated(name, 0, false, f64::INFINITY);
        }

        let initial = match warm_state.first() {
            Some(&seed) if seed.is_finite() && seed >= zero_load => seed,
            _ => zero_load,
        };
        let solver = latency_solver();
        // one application of Eqs. 4-15 per iteration, through the kernel
        // built with the model and scratch tables the closure owns
        let mut scratch = StepScratch::default();
        let outcome = solver.solve_scalar(initial, move |mean_service| {
            self.kernel.network_latency_step(mean_service, channel_rate, &mut scratch)
        });
        let (mean_network_latency, iterations, converged, residual) = match outcome {
            FixedPointOutcome::Converged { state, iterations, residual } => {
                (state, iterations, true, residual)
            }
            FixedPointOutcome::Diverged { iterations, .. } => {
                return saturated(name, iterations, false, f64::INFINITY);
            }
            FixedPointOutcome::MaxIterations { state, residual } => {
                (state, solver.max_iterations, false, residual)
            }
        };

        let occupancy =
            ChannelOccupancy::new(channel_rate, mean_network_latency, params.virtual_channels);
        let multiplexing = occupancy.multiplexing_degree();
        let channel_waiting =
            channel_waiting_time(channel_rate, mean_network_latency, params.message_length);
        let source_waiting = source_waiting_time(
            params.traffic_rate,
            params.virtual_channels,
            mean_network_latency,
            params.message_length,
        );
        if !source_waiting.is_finite() || !channel_waiting.is_finite() {
            return saturated(name, iterations, converged, residual);
        }
        let mean_latency = (mean_network_latency + source_waiting) * multiplexing;
        SpectrumResult {
            params: *params,
            topology: name,
            saturated: false,
            converged,
            residual,
            mean_network_latency,
            source_waiting,
            multiplexing,
            mean_latency,
            mean_distance,
            channel_rate,
            channel_utilization: channel_rate * mean_network_latency,
            channel_waiting,
            iterations,
        }
    }
}

/// The share `θ` of the stretch cleared of fixed points that a walk step
/// crosses: the walk stays strictly below the least fixed point, and each
/// cell keeps a tenth of its gap.
const WALK_RELAXATION: f64 = 0.9;

/// The relative margin each cell keeps between `F` and `S̄`.
const CELL_MARGIN: f64 = 1e-9;

/// The relative rounding the secant lines are shaded for: the convexity
/// premise's tolerance.
const STEP_ROUNDING: f64 = 1e-12;

/// Midpoints a saturating probe may add to bring its bound under the cap.
const REFINEMENTS: usize = 16;

/// A point `(S̄, F(S̄))` a probe evaluated the step at.
type Knot = (f64, f64);

/// A lower bound `F(x) ≥ value + slope·(x − at)` on one side of `at`.
#[derive(Debug, Clone, Copy)]
struct Line {
    at: f64,
    value: f64,
    slope: f64,
}

impl Line {
    /// The bound for `x ≥ q`: the secant through `p < q`, or flat through `q`.
    fn forward(p: Option<Knot>, q: Knot) -> Self {
        let shade = 2.0 * STEP_ROUNDING * q.1;
        let slope = p.map_or(0.0, |p| (q.1 - p.1 - shade) / (q.0 - p.0));
        Self { at: q.0, value: q.1 - shade, slope: slope.max(0.0) }
    }

    /// The bound convexity draws for `x ≤ p` through `p < q`.
    fn backward(p: Knot, q: Knot) -> Self {
        let shade = 2.0 * STEP_ROUNDING * q.1;
        Self { at: p.0, value: p.1 - shade, slope: (q.1 - p.1 + shade) / (q.0 - p.0) }
    }

    /// The bound on the gap `F(x) − (1 + CELL_MARGIN)·x`.
    fn gap(self, x: f64) -> f64 {
        self.value + self.slope * (x - self.at) - (1.0 + CELL_MARGIN) * x
    }

    /// How fast that gap falls as `x` grows (negative when it rises).
    fn descent(self) -> f64 {
        1.0 + CELL_MARGIN - self.slope
    }

    /// A bound on the steps the damped solve's lower envelope
    /// `z ← z + ½·gap(z)` takes from `from` to `to` (infinite if the gap
    /// closes): with `σ = −descent` and `g = gap(from)` it has moved
    /// `(g/σ)·((1 + σ/2)^k − 1)` after `k` steps, `kg/2` for `σ = 0`.  One
    /// step is added for rounding.
    fn steps(self, from: f64, to: f64) -> f64 {
        let (gap, rise) = (self.gap(from), -self.descent());
        if !(gap > 0.0 && self.gap(to) > 0.0) {
            return f64::INFINITY;
        }
        let width = to - from;
        let steps = if rise == 0.0 {
            2.0 * width / gap
        } else {
            (rise * width / gap).ln_1p() / (0.5 * rise).ln_1p()
        };
        steps.ceil() + 1.0
    }
}

/// A bound on the damped solve's iterations from `knots[0]` to divergence,
/// given that it diverges from `end` on, and the cell that holds the most
/// of it.  Cell `i` runs from knot `i` to the next (the last to `end`), and
/// counts the lesser of its steps under the forward bound into it and the
/// backward bound out of the next cell.
fn envelope(knots: &[Knot], end: f64) -> (f64, usize) {
    // the iteration that diverges
    let (mut total, mut worst) = (1.0, (0.0, 0));
    for (i, &knot) in knots.iter().enumerate() {
        let top = knots.get(i + 1).map_or(end, |k| k.0);
        let mut steps = Line::forward(i.checked_sub(1).map(|j| knots[j]), knot).steps(knot.0, top);
        if let Some(&[p, q]) = knots.get(i + 1..i + 3) {
            steps = steps.min(Line::backward(p, q).steps(knot.0, top));
        }
        total += steps;
        if steps > worst.0 {
            worst = (steps, i);
        }
    }
    (total, worst.1)
}

/// The buffers a search's probes reuse.
#[derive(Debug, Default)]
struct ProbeScratch {
    step: StepScratch,
    knots: Vec<Knot>,
}

/// What one bisection probe decided about a rate.
#[derive(Debug, Clone, Copy)]
struct Probe {
    saturated: bool,
    /// A lower bound on the rate's `S̄`, to seed the next probe with
    /// (meaningless when saturated).
    state: f64,
    /// Step evaluations: walk steps, certificate tests and refinements,
    /// those of a walk that gave up included, and damped iterations.
    iterations: usize,
    /// Decided by a certificate: `F(y) ≤ y` for a rate that solves, the
    /// envelope for one that saturates.
    certified: bool,
    capped: bool,
    /// The walk gave up and the damped solve decided.
    fallback: bool,
    /// A certified saturated probe's bound on the iterations the damped
    /// solve takes to diverge (0 otherwise).
    bound: usize,
}

impl Probe {
    fn saturated(iterations: usize) -> Self {
        Self {
            saturated: true,
            state: f64::NAN,
            iterations,
            certified: false,
            capped: false,
            fallback: false,
            bound: 0,
        }
    }
}

impl SpectrumModel {
    /// Decides whether the model saturates at `traffic_rate`, exactly as
    /// `self.params().with_rate(traffic_rate)`'s [`Self::solve_from`] with
    /// `seed` would, usually without running its damped iteration.
    ///
    /// The probe walks up from the solve's start `a₀` in secant cells.  At
    /// `a_i` the secant through `a_{i−1}` (flat at `a₀`) is a lower bound on
    /// `F` above `a_i`.  While its slope `s_i` is below 1 it clears
    /// `[a_i, a_i + g_i/(1 − s_i))` of fixed points, `g_i = F(a_i) − a_i`
    /// less a [`CELL_MARGIN`], and the walk steps [`WALK_RELAXATION`] of the
    /// way across.  It ends in one of three ways:
    /// - **Solves (certified).**  Once the cleared stretch shrinks below a
    ///   quarter of the last one, or gets thin, it tests
    ///   `y = x̂ + (x̂ − a_i) + 1e-9·x̂`, just above the secant's fixed point
    ///   `x̂`: if `F(y) ≤ y` and both waits are finite at `y`, the rate
    ///   solves.
    /// - **Saturates (certified).**  The slope reaches 1, so `F − S̄` cannot
    ///   fall again before the pole, or a step lands where `F` diverges.
    ///   The solve from `a₀` then rises through every cell without a fixed
    ///   point, each damped step moving `S̄` by far more than its 1e-12
    ///   tolerance; [`envelope`] bounds its divergence within the cap.
    ///   While the bound is over the cap the walk doubles its cells onward,
    ///   or evaluates the midpoint of an earlier cell that holds most of the
    ///   bound, at most [`REFINEMENTS`] times.
    /// - **Gives up.**  A thin cell fails the certificate, or the
    ///   refinements run out.  The damped solve runs from the same start, so
    ///   the flag is the solve's by construction.
    ///
    /// **Premises** (unit tests hold the kernel to them): the step `F`
    /// (Eqs. 4-15) is non-decreasing and convex in `S̄` up to the channel
    /// pole `λ_c·S̄ = 1`, and non-decreasing in the rate.  So a walk from at
    /// or below the least fixed point stays below it, and the `x̂` a probe
    /// passes on bounds `S̄` at every higher rate from below; and `x ≤ y`
    /// gives `G(x) ≤ G(y) ≤ y` for the damped map `G(x) = ½x + ½F(x)`, so a
    /// certified rate's solve can neither diverge nor end with an infinite
    /// wait.
    fn probe(&self, traffic_rate: f64, seed: f64, scratch: &mut ProbeScratch) -> Probe {
        let m = self.params.message_length;
        let mean_distance = self.spectrum.mean_distance();
        let channel_rate = traffic_rate * mean_distance / self.spectrum.degree() as f64;
        if channel_rate * m as f64 >= 1.0 {
            return Probe::saturated(0);
        }
        let zero_load = m as f64 + mean_distance;
        let start = if seed.is_finite() && seed >= zero_load { seed } else { zero_load };
        self.walk(traffic_rate, channel_rate, start, scratch).unwrap_or_else(|wasted| {
            let probe = self.damped_probe(traffic_rate, channel_rate, start, scratch);
            Probe { iterations: wasted + probe.iterations, fallback: true, ..probe }
        })
    }

    /// The probe's walk from `start`: its decision, or the step evaluations
    /// it spent before giving up.
    fn walk(
        &self,
        traffic_rate: f64,
        channel_rate: f64,
        start: f64,
        scratch: &mut ProbeScratch,
    ) -> Result<Probe, usize> {
        let FixedPointSolver { max_iterations: cap, divergence_ceiling: ceiling, .. } =
            latency_solver();
        let mut evaluations = 0;
        let ProbeScratch { step, knots } = scratch;
        let mut image = |x: f64, evaluations: &mut usize| {
            *evaluations += 1;
            let image = self.kernel.network_latency_step(x, channel_rate, step);
            // NaN, infinity or above the ceiling: the damped solve diverges
            Some(image).filter(|&f| f <= ceiling).unwrap_or(f64::INFINITY)
        };
        knots.clear();
        // every wait is infinite at and past the channel pole
        let mut end = (1.0 / channel_rate) * (1.0 + 1e-15);
        let (mut point, mut cleared_before) = (start, f64::INFINITY);
        loop {
            let value = image(point, &mut evaluations);
            if value == f64::INFINITY {
                end = point;
                break;
            }
            knots.push((point, value));
            let line = Line::forward(knots.len().checked_sub(2).map(|i| knots[i]), (point, value));
            let gap = line.gap(point);
            if gap > 0.0 && line.descent() <= 0.0 {
                break;
            }
            // the stretch `[point, root)` the line clears of fixed points
            let cleared = if gap > 0.0 { gap / line.descent() } else { 0.0 };
            let root = point + cleared;
            let thin = cleared <= CELL_MARGIN * point;
            if thin || cleared < 0.25 * cleared_before {
                // just above the secant's own fixed point, margin aside
                let fixed = point + (line.value - point) / (1.0 - line.slope);
                let y = fixed + (fixed - point) + CELL_MARGIN * fixed;
                if y >= point
                    && y <= ceiling
                    && self.waits_finite(traffic_rate, channel_rate, y)
                    && image(y, &mut evaluations) <= y
                {
                    let probe = Probe::saturated(evaluations);
                    return Ok(Probe { saturated: false, state: root, certified: true, ..probe });
                }
            }
            if thin || evaluations >= cap {
                return Err(evaluations);
            }
            cleared_before = cleared;
            point += WALK_RELAXATION * cleared;
        }
        let mut refinements = 0;
        loop {
            let (bound, worst) = envelope(knots, end);
            if bound <= cap as f64 {
                let bound = bound as usize;
                return Ok(Probe { certified: true, bound, ..Probe::saturated(evaluations) });
            }
            let last = knots.len() - 1;
            let (low, high) = (knots[worst].0, knots.get(worst + 1).map_or(end, |k| k.0));
            // past the last knot, a step twice the last cell
            let ahead = if worst == last && last > 0 {
                low + 2.0 * (low - knots[last - 1].0)
            } else {
                f64::INFINITY
            };
            let x = if ahead < high && evaluations < cap {
                ahead
            } else if refinements < REFINEMENTS {
                refinements += 1;
                0.5 * (low + high)
            } else {
                return Err(evaluations);
            };
            let value = image(x, &mut evaluations);
            if value == f64::INFINITY && worst == last {
                end = x;
            } else if value < f64::INFINITY && Line::forward(None, (x, value)).gap(x) > 0.0 {
                knots.insert(worst + 1, (x, value));
            } else {
                return Err(evaluations);
            }
        }
    }

    /// Whether both M/G/1 waits are finite at `S̄ = mean_service`.
    fn waits_finite(&self, traffic_rate: f64, channel_rate: f64, mean_service: f64) -> bool {
        let (m, v) = (self.params.message_length, self.params.virtual_channels);
        channel_waiting_time(channel_rate, mean_service, m).is_finite()
            && source_waiting_time(traffic_rate, v, mean_service, m).is_finite()
    }

    /// The damped solve of [`Self::solve_from`] from `start`, reduced to the
    /// probe it decides: the same iteration and the same M/G/1 post-check.
    fn damped_probe(
        &self,
        traffic_rate: f64,
        channel_rate: f64,
        start: f64,
        scratch: &mut ProbeScratch,
    ) -> Probe {
        let solver = latency_solver();
        let step = &mut scratch.step;
        let outcome = solver.solve_scalar(start, |mean_service| {
            self.kernel.network_latency_step(mean_service, channel_rate, step)
        });
        let (state, iterations, capped) = match outcome {
            FixedPointOutcome::Diverged { iterations, .. } => return Probe::saturated(iterations),
            FixedPointOutcome::Converged { state, iterations, .. } => (state, iterations, false),
            FixedPointOutcome::MaxIterations { state, .. } => (state, solver.max_iterations, true),
        };
        let saturated = !self.waits_finite(traffic_rate, channel_rate, state);
        Probe { saturated, state, capped, ..Probe::saturated(iterations) }
    }
}

/// How [`saturation_search`] found the knee.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SaturationSearch {
    /// The predicted saturation rate: the largest probed rate that solves.
    pub rate: f64,
    /// Probes the bisection ran.
    pub probes: usize,
    /// Step evaluations over all probes, every one a probe makes: walk
    /// steps, certificate tests and refinements, those of walks that gave
    /// up included, and damped iterations.
    pub iterations: usize,
    /// Probes decided unsaturated by the certificate, before converging.
    pub certified: usize,
    /// Probes decided saturated by the walk's envelope, without running the
    /// damped iteration.
    pub certified_saturated: usize,
    /// Probes whose walk gave up, so that the damped solve decided them.
    pub fallbacks: usize,
    /// Probes that spent the whole iteration budget: their flag is the one
    /// of an unconverged last iterate.
    pub capped: usize,
}

/// Largest traffic generation rate at which the model still solves
/// unsaturated (the predicted saturation rate), found by bisection on the
/// `saturated` flag to the given relative tolerance.
///
/// # Panics
/// As [`saturation_search`].
#[must_use]
pub fn saturation_rate(
    base: ModelParams,
    spectrum: &Arc<TraversalSpectrum>,
    tolerance: f64,
) -> f64 {
    saturation_search(base, spectrum, tolerance).rate
}

/// [`saturation_rate`]'s bisection, with an account of its probes.
///
/// The bisection only needs each probe's `saturated` flag, and its `S̄` to
/// seed the next probe.  A probe returns the flag
/// [`SpectrumModel::solve_from`] would, from a walk in secant cells that
/// certifies it either way: a rate that solves long before its fixed point
/// converges, a rate that saturates once the step's slope passes 1, with a
/// bound showing that the damped solve would diverge within its cap.  A
/// walk that cannot certify falls back to the damped iteration.  Each probe
/// warm-starts from an `S̄` at or below the fixed point of every higher
/// rate, and the knee is the one of a bisection over converged solves, bit
/// for bit.  The step's rate-independent kernel is built once per search.
///
/// # Panics
/// Panics if the parameters are invalid for the spectrum's topology or
/// `tolerance` is outside `(0, 1)`.
#[must_use]
pub fn saturation_search(
    base: ModelParams,
    spectrum: &Arc<TraversalSpectrum>,
    tolerance: f64,
) -> SaturationSearch {
    assert!(tolerance > 0.0 && tolerance < 1.0, "tolerance must be in (0, 1)");
    let model = SpectrumModel::new(base, Arc::clone(spectrum));
    let mut scratch = ProbeScratch::default();
    let mut search = SaturationSearch::default();
    // NaN: no rate is known to solve yet, so the first probe starts cold
    let mut seed = f64::NAN;
    let m = base.message_length as f64;
    // λ_c·M ≥ 1 (one message of M flits per channel at a time) is certainly
    // beyond saturation: λ_g = degree/(d̄·M).  The closed-form star keeps the
    // 1/M bracket its pinned curves were bisected from.
    let mut high = if spectrum.is_closed_form_star() {
        1.0 / m
    } else {
        spectrum.degree() as f64 / (spectrum.mean_distance() * m)
    };
    debug_assert!(model.probe(high, seed, &mut scratch).saturated);
    while (high - search.rate) / high.max(1e-12) > tolerance {
        let mid = 0.5 * (search.rate + high);
        let probe = model.probe(mid, seed, &mut scratch);
        debug_assert!(probe.bound <= latency_solver().max_iterations);
        search.probes += 1;
        search.iterations += probe.iterations;
        search.certified += usize::from(probe.certified && !probe.saturated);
        search.certified_saturated += usize::from(probe.certified && probe.saturated);
        search.fallbacks += usize::from(probe.fallback);
        search.capped += usize::from(probe.capped);
        if probe.saturated {
            high = mid;
        } else {
            search.rate = mid;
            seed = probe.state;
        }
    }
    search
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ModelDiscipline;
    use star_graph::{Ring, Torus};

    /// The spectra every model property is checked on: the two closed forms
    /// and the BFS census of a torus.
    fn spectra() -> [Arc<TraversalSpectrum>; 3] {
        [
            Arc::new(TraversalSpectrum::star(5)),
            Arc::new(TraversalSpectrum::hypercube(7)),
            Arc::new(TraversalSpectrum::new(&Torus::new(8))),
        ]
    }

    fn params(v: usize, m: usize, rate: f64) -> ModelParams {
        ModelParams {
            virtual_channels: v,
            message_length: m,
            traffic_rate: rate,
            ..ModelParams::default()
        }
    }

    fn solve(spectrum: &Arc<TraversalSpectrum>, params: ModelParams) -> SpectrumResult {
        SpectrumModel::new(params, Arc::clone(spectrum)).solve()
    }

    /// V = 7 covers the escape-level floor of every spectrum above.
    fn sat(spectrum: &Arc<TraversalSpectrum>) -> f64 {
        saturation_rate(params(7, 32, 0.0), spectrum, 0.02)
    }

    #[test]
    fn zero_load_latency_equals_message_length_plus_mean_distance() {
        for spectrum in spectra() {
            for (v, m) in [(7, 32), (9, 64), (12, 32)] {
                let r = solve(&spectrum, params(v, m, 0.0));
                assert!(!r.saturated && r.converged);
                assert_eq!(r.topology, spectrum.topology_name());
                assert!((r.mean_network_latency - (m as f64 + r.mean_distance)).abs() < 1e-6);
                assert!((r.mean_latency - r.mean_network_latency).abs() < 1e-6);
                assert_eq!(r.source_waiting, 0.0);
                assert!((r.multiplexing - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn latency_is_monotone_in_load_until_saturation() {
        for spectrum in spectra() {
            let step = sat(&spectrum) / 20.0;
            let mut last = 0.0;
            let mut saturated_seen = false;
            for i in 1..=40 {
                let r = solve(&spectrum, params(7, 32, i as f64 * step));
                if r.saturated {
                    saturated_seen = true;
                    break;
                }
                assert!(r.mean_latency > last, "{}: latency must grow with load", r.topology);
                last = r.mean_latency;
            }
            assert!(saturated_seen, "the sweep must eventually saturate");
        }
    }

    #[test]
    fn more_virtual_channels_lower_latency_and_push_saturation_right() {
        for spectrum in spectra() {
            let rate = 0.7 * sat(&spectrum);
            let r7 = solve(&spectrum, params(7, 32, rate));
            let r9 = solve(&spectrum, params(9, 32, rate));
            let r12 = solve(&spectrum, params(12, 32, rate));
            assert!(!r7.saturated && !r9.saturated && !r12.saturated);
            assert!(r9.mean_latency <= r7.mean_latency + 1e-9);
            assert!(r12.mean_latency <= r9.mean_latency + 1e-9);
            let sat12 = saturation_rate(params(12, 32, 0.0), &spectrum, 0.02);
            assert!(sat12 >= sat(&spectrum) * 0.95, "{}", r7.topology);
        }
    }

    #[test]
    fn longer_messages_raise_latency_and_saturate_earlier() {
        for spectrum in spectra() {
            let sat32 = sat(&spectrum);
            let sat64 = saturation_rate(params(7, 64, 0.0), &spectrum, 0.02);
            assert!(sat64 < sat32 && sat64 > sat32 * 0.3, "{}", spectrum.topology_name());
            let rate = 0.3 * sat64;
            let m32 = solve(&spectrum, params(7, 32, rate));
            let m64 = solve(&spectrum, params(7, 64, rate));
            assert!(m64.mean_latency > m32.mean_latency + 20.0);
        }
    }

    #[test]
    fn plain_negative_hop_is_the_slowest_discipline() {
        // with the same V and load, plain negative-hop offers the least
        // choice per hop of the three adaptive schemes
        for spectrum in spectra() {
            let with = |discipline| ModelParams { discipline, ..params(7, 32, 0.0) };
            let rate = 0.6 * saturation_rate(with(ModelDiscipline::NHop), &spectrum, 0.02);
            let enhanced = solve(&spectrum, with(ModelDiscipline::EnhancedNbc).with_rate(rate));
            let nbc = solve(&spectrum, with(ModelDiscipline::Nbc).with_rate(rate));
            let nhop = solve(&spectrum, with(ModelDiscipline::NHop).with_rate(rate));
            assert!(!enhanced.saturated && !nbc.saturated && !nhop.saturated);
            assert!(nhop.mean_latency >= nbc.mean_latency - 1e-9);
            assert!(nhop.mean_latency >= enhanced.mean_latency - 1e-9);
            let sat_of = |d| saturation_rate(with(d), &spectrum, 0.03);
            let nhop_sat = sat_of(ModelDiscipline::NHop);
            assert!(nhop_sat <= sat_of(ModelDiscipline::Nbc) * 1.05);
            assert!(nhop_sat <= sat_of(ModelDiscipline::EnhancedNbc) * 1.05);
        }
    }

    #[test]
    fn deterministic_routing_is_slower_than_adaptive() {
        for spectrum in spectra() {
            let det =
                ModelParams { discipline: ModelDiscipline::Deterministic, ..params(7, 32, 0.0) };
            let rate = 0.7 * sat(&spectrum);
            let adaptive = solve(&spectrum, params(7, 32, rate));
            let deterministic = solve(&spectrum, det.with_rate(rate));
            assert!(!adaptive.saturated);
            if !deterministic.saturated {
                assert!(deterministic.mean_latency >= adaptive.mean_latency - 1e-9);
            }
            assert!(saturation_rate(det, &spectrum, 0.02) <= sat(&spectrum) * 1.05);
        }
    }

    #[test]
    fn channel_rate_follows_equation_three_and_multiplexing_stays_in_range() {
        for spectrum in spectra() {
            for fraction in [0.1, 0.5, 0.9] {
                let rate = fraction * sat(&spectrum);
                let r = solve(&spectrum, params(9, 32, rate));
                let expected = rate * r.mean_distance / spectrum.degree() as f64;
                assert!((r.channel_rate - expected).abs() < 1e-12);
                assert!(!r.saturated);
                assert!((1.0..=9.0).contains(&r.multiplexing), "V̄ = {}", r.multiplexing);
            }
        }
        assert_eq!(TraversalSpectrum::star(5).degree(), 4);
        assert_eq!(TraversalSpectrum::hypercube(7).degree(), 7);
    }

    #[test]
    fn larger_networks_have_higher_zero_load_latency() {
        for family in [
            [TraversalSpectrum::star(4), TraversalSpectrum::star(5), TraversalSpectrum::star(6)],
            [
                TraversalSpectrum::hypercube(6),
                TraversalSpectrum::hypercube(8),
                TraversalSpectrum::hypercube(10),
            ],
        ] {
            let zero: Vec<f64> = family
                .into_iter()
                .map(|s| solve(&Arc::new(s), params(8, 32, 0.0)).mean_network_latency)
                .collect();
            assert!(zero.windows(2).all(|w| w[0] < w[1]), "{zero:?}");
        }
    }

    #[test]
    fn warm_start_reaches_the_cold_fixed_point_with_fewer_iterations() {
        for spectrum in spectra() {
            let sat = sat(&spectrum);
            let seed = solve(&spectrum, params(7, 32, sat * 0.9));
            assert!(!seed.saturated);
            let model = SpectrumModel::new(params(7, 32, sat * 0.92), Arc::clone(&spectrum));
            let cold = model.solve();
            let warm = model.solve_from(&[seed.mean_network_latency]);
            assert!(!cold.saturated && !warm.saturated);
            let rel = (warm.mean_latency - cold.mean_latency).abs() / cold.mean_latency;
            assert!(rel < 1e-9, "warm and cold fixed points differ by {rel}");
            assert!(warm.iterations < cold.iterations, "{}", cold.topology);
        }
    }

    #[test]
    fn warm_started_sweep_matches_the_cold_sweep_with_fewer_iterations() {
        for spectrum in spectra() {
            let sat = sat(&spectrum);
            let rates: Vec<f64> = (1..=12).map(|i| sat * i as f64 / 10.0).collect();
            let mut seed: Vec<f64> = Vec::new();
            let (mut warm_iters, mut cold_iters) = (0, 0);
            for &rate in &rates {
                let model = SpectrumModel::new(params(7, 32, rate), Arc::clone(&spectrum));
                let warm = model.solve_from(&seed);
                let cold = model.solve();
                seed = vec![warm.mean_network_latency];
                assert_eq!(warm.saturated, cold.saturated);
                if !warm.saturated {
                    let rel = (warm.mean_latency - cold.mean_latency).abs() / cold.mean_latency;
                    assert!(rel < 1e-9, "rate {rate}: warm/cold differ by {rel}");
                }
                warm_iters += warm.iterations;
                cold_iters += cold.iterations;
            }
            assert!(warm_iters < cold_iters, "{warm_iters} vs {cold_iters}");
        }
    }

    #[test]
    fn one_model_solves_every_rate_as_a_model_built_for_it() {
        for spectrum in spectra() {
            let knee = sat(&spectrum);
            let model = SpectrumModel::new(params(7, 32, 0.0), Arc::clone(&spectrum));
            let mut seed = Vec::new();
            for fraction in [0.0, 0.3, 0.9, 0.99, 1.2] {
                let rate = knee * fraction;
                let built = SpectrumModel::new(params(7, 32, rate), Arc::clone(&spectrum));
                assert_eq!(model.solve_at(rate, &seed), built.solve_from(&seed));
                assert_eq!(model.solve_at(rate, &[]), built.solve());
                seed = vec![built.solve_from(&seed).mean_network_latency];
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid parameters for S5")]
    fn a_negative_rate_is_rejected() {
        let model = SpectrumModel::new(params(7, 32, 0.0), Arc::new(TraversalSpectrum::star(5)));
        let _ = model.solve_at(-0.001, &[]);
    }

    #[test]
    fn solve_from_falls_back_to_cold_start_on_unusable_seeds() {
        for spectrum in spectra() {
            let model = SpectrumModel::new(params(7, 32, 0.5 * sat(&spectrum)), spectrum);
            let cold = model.solve();
            for seed in [&[][..], &[f64::INFINITY][..], &[f64::NAN][..], &[1.0][..]] {
                assert_eq!(model.solve_from(seed), cold);
            }
        }
    }

    /// [`saturation_rate`] with every probe started cold, as the bisection
    /// ran before its probes were warm-started.
    fn cold_saturation_rate(
        base: ModelParams,
        spectrum: &Arc<TraversalSpectrum>,
        tolerance: f64,
    ) -> f64 {
        let solves = |rate: f64| !solve(spectrum, base.with_rate(rate)).saturated;
        let m = base.message_length as f64;
        let (mut low, mut high) = if spectrum.is_closed_form_star() {
            (0.0, 1.0 / m)
        } else {
            (0.0, spectrum.degree() as f64 / (spectrum.mean_distance() * m))
        };
        while (high - low) / high.max(1e-12) > tolerance {
            let mid = 0.5 * (low + high);
            if solves(mid) {
                low = mid;
            } else {
                high = mid;
            }
        }
        low
    }

    #[test]
    fn warm_started_bisection_finds_the_cold_knee_bit_for_bit() {
        for spectrum in spectra() {
            for discipline in [
                ModelDiscipline::EnhancedNbc,
                ModelDiscipline::Nbc,
                ModelDiscipline::NHop,
                ModelDiscipline::Deterministic,
            ] {
                let floor = ModelParams::min_virtual_channels(discipline, spectrum.diameter());
                let base = ModelParams { discipline, ..params(floor, 32, 0.0) };
                // the tolerance the rate grids are bisected to
                let warm = saturation_rate(base, &spectrum, 1e-5);
                let cold = cold_saturation_rate(base, &spectrum, 1e-5);
                assert_eq!(
                    warm.to_bits(),
                    cold.to_bits(),
                    "{} {discipline:?}: warm {warm} vs cold {cold}",
                    spectrum.topology_name()
                );
            }
        }
    }

    #[test]
    fn a_probe_decides_as_the_solve_and_passes_on_a_lower_bound() {
        let mut scratch = ProbeScratch::default();
        for spectrum in spectra() {
            let model = SpectrumModel::new(params(7, 32, 0.0), Arc::clone(&spectrum));
            let knee = sat(&spectrum);
            for fraction in [0.1, 0.5, 0.9, 0.99, 1.01, 1.1, 1.5] {
                let rate = knee * fraction;
                let solved = solve(&spectrum, params(7, 32, rate));
                let probe = model.probe(rate, f64::NAN, &mut scratch);
                let label = format!("{} at {fraction} of the knee: {probe:?}", solved.topology);
                assert_eq!(probe.saturated, solved.saturated, "{label}");
                // a certificate decides every one of these, in fewer steps
                // than the solve takes
                assert!(probe.certified && !probe.fallback, "{label}");
                assert!(probe.iterations <= solved.iterations, "{label}");
                if probe.saturated {
                    // the envelope bounds the damped solve's length
                    assert!(probe.bound >= solved.iterations, "{label}");
                } else {
                    assert!(probe.state <= solved.mean_network_latency, "{label}");
                    // and from that seed, the solve at a higher rate agrees
                    let decided = model.probe(rate * 1.005, probe.state, &mut scratch);
                    let higher = solve(&spectrum, params(7, 32, rate * 1.005));
                    assert_eq!(decided.saturated, higher.saturated, "{label}");
                }
            }
        }
    }

    #[test]
    fn a_line_counts_the_envelope_steps_it_bounds() {
        // iterate z ← z + ½·gap(z) across [from, to) and compare: the closed
        // form may only add its one step of rounding slack and a ceiling
        let mut checked = 0;
        for slope in [0.0, 0.3, 0.9, 0.999, 1.0 + CELL_MARGIN, 1.001, 1.5, 4.0] {
            for (value, to) in [(60.0, 55.0), (50.001, 50.001), (51.0, 90.0)] {
                let line = Line { at: 50.0, value, slope };
                let (bound, mut z, mut steps) = (line.steps(50.0, to), 50.0, 0.0);
                // an infinite count only where the gap closes first
                assert_eq!(bound.is_infinite(), line.gap(to) <= 0.0, "slope {slope}");
                while bound.is_finite() && z < to {
                    z += 0.5 * line.gap(z);
                    steps += 1.0;
                }
                assert!(bound.is_infinite() || (steps <= bound && bound <= steps + 2.0));
                checked += usize::from(bound.is_finite());
            }
        }
        assert!(checked >= 16);
    }

    /// `saturation_rate(ModelParams::default(), T8, 1e-13)`, pinned because
    /// that bisection takes half a minute in a debug build.
    const T8_KNEE: f64 = 0.014_881_188_037_297_724;

    #[test]
    fn just_past_the_knee_a_probe_certifies_what_the_cap_allows_and_falls_back_otherwise() {
        // from 1% to 1e-9 past the knee the damped solve needs from tens to
        // tens of thousands of iterations to diverge: the envelope must
        // bound each count above the real one and under the cap, or give up
        // having spent little
        let spectrum = Arc::new(TraversalSpectrum::new(&Torus::new(8)));
        let model = SpectrumModel::new(ModelParams::default(), Arc::clone(&spectrum));
        let mut scratch = ProbeScratch::default();
        let (mut longest, mut fallbacks) = (0, 0);
        for k in 2..=9 {
            let rate = T8_KNEE * (1.0 + 10f64.powi(-k));
            let solved = solve(&spectrum, ModelParams::default().with_rate(rate));
            let probe = model.probe(rate, f64::NAN, &mut scratch);
            let label = format!("1e-{k} past the knee: {probe:?} vs {solved:?}");
            assert_eq!(probe.saturated, solved.saturated, "{label}");
            if probe.certified {
                assert!(solved.iterations <= probe.bound, "{label}");
                assert!(probe.bound <= latency_solver().max_iterations, "{label}");
                // a handful of steps however long the solve
                assert!(probe.iterations <= 32, "{label}");
                longest = longest.max(solved.iterations);
            } else {
                // the walk, its certificate tests and its refinements waste
                // at most 64 evaluations before the damped solve decides
                assert!(probe.fallback && probe.iterations <= solved.iterations + 64, "{label}");
                fallbacks += 1;
            }
        }
        assert!(longest > 15_000, "a certificate must reach past 15,000 iterations");
        assert!(fallbacks >= 1, "a probe near the cap must fall back");
    }

    #[test]
    fn saturation_rate_is_consistent_with_solves() {
        for spectrum in spectra() {
            let sat = sat(&spectrum);
            assert!(sat > 0.0);
            assert!(!solve(&spectrum, params(7, 32, sat * 0.9)).saturated);
            assert!(solve(&spectrum, params(7, 32, sat * 1.2)).saturated);
        }
    }

    #[test]
    fn heavy_load_is_reported_as_saturated() {
        for spectrum in spectra() {
            let r = solve(&spectrum, params(7, 32, 0.5));
            assert!(r.saturated && !r.converged);
            assert!(r.mean_latency.is_infinite());
        }
    }

    #[test]
    fn a_solve_that_runs_out_of_iterations_is_not_converged() {
        // right at the knee the iteration stops contracting: the solver
        // spends its whole budget without meeting its tolerance, so the
        // point is not saturated, but its latency is no answer either.
        const KNEE: f64 = T8_KNEE;
        let spectrum = Arc::new(TraversalSpectrum::new(&Torus::new(8)));
        assert!(solve(&spectrum, ModelParams::default().with_rate(KNEE * (1.0 + 1e-9))).saturated);
        let r = solve(&spectrum, ModelParams::default().with_rate(KNEE));
        assert!(!r.saturated);
        assert!(!r.converged);
        assert_eq!(r.iterations, latency_solver().max_iterations);
        assert!(r.residual >= latency_solver().tolerance && r.residual.is_finite());
        // an ordinary point converges with a residual under the tolerance
        let fine = solve(&spectrum, ModelParams::default().with_rate(KNEE * 0.5));
        assert!(fine.converged && fine.residual < latency_solver().tolerance);
    }

    #[test]
    fn large_spectra_solve_in_the_model_only_regime() {
        // Q10/Q13 and S7: sizes the simulator cannot reach
        for spectrum in [
            TraversalSpectrum::hypercube(10),
            TraversalSpectrum::hypercube(13),
            TraversalSpectrum::star(7),
        ] {
            let r = solve(&Arc::new(spectrum), params(8, 32, 0.001));
            assert!(!r.saturated && r.converged, "{} must solve at light load", r.topology);
            assert!(r.mean_latency > 32.0 + r.mean_distance);
        }
    }

    #[test]
    fn ring_solves_at_light_load() {
        let r = SpectrumModel::for_topology(params(4, 32, 0.001), &Ring::new(8)).solve();
        assert!(!r.saturated);
        assert!(r.mean_latency > 32.0 + r.mean_distance);
    }

    #[test]
    #[should_panic(expected = "invalid parameters for T12")]
    fn too_few_virtual_channels_are_rejected() {
        // T12: diameter 12 → 7 levels → Enhanced-Nbc needs V ≥ 8
        let _ = SpectrumModel::for_topology(params(7, 32, 0.001), &Torus::new(12));
    }
}
