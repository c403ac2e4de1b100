//! # star-workloads
//!
//! The unified evaluation layer of the star-wormhole workspace:
//!
//! * [`scenario`] — topology-generic [`Scenario`]/[`OperatingPoint`] types
//!   naming what both evaluation backends must agree on (the topology as an
//!   `Arc<dyn Topology>` value, routing discipline, `V`, `M`, traffic
//!   pattern, rate, and the replication policy: `replicates` × `seed_base`),
//!   plus the [`TopologyKind`] names the `--topology` CLI flag parses into;
//! * [`evaluator`] — the [`Evaluator`] trait with its common
//!   [`PointEstimate`] output, implemented by the analytical model
//!   ([`ModelBackend`], covering every topology family, warm-started across
//!   sweeps) and the flit-level simulator
//!   ([`SimBackend`], fanning each point out to independently seeded
//!   replicates, optionally until a [`CiTarget`] is met), so any harness
//!   can swap backends or run both and diff them;
//! * [`sweep_runner`] — the [`SweepRunner`] that owns the sweep loop every
//!   binary used to hand-roll, sharding independent (point × replicate)
//!   work items across the persistent workers of the shared
//!   [`star_exec::ExecPool`] with deterministic output order, plus
//!   [`shard_sweeps`] for slicing one run across processes (`--shard K/N`);
//! * [`experiment`] — the paper's Figure-1 sweeps as [`SweepSpec`]s;
//! * [`budget`] — simulation effort presets (quick smoke runs for CI,
//!   full-fidelity runs for regenerating the figures);
//! * [`report`] — the unified cross-backend [`RunReport`] CSV schema, the
//!   shard-aware [`ReportSink`] the harness binaries write through, plus
//!   CSV / Markdown / ASCII-plot emitters used by the benchmark harness
//!   binaries and the examples.
//!
//! ## The evaluation contract
//!
//! Everything in this crate revolves around one pipeline —
//! `Scenario` → `OperatingPoint` → `Evaluator` → `PointEstimate` — and the
//! guarantees each stage makes:
//!
//! * **Scenario totality.**  A [`Scenario`] is cheap-to-clone data around a
//!   shared topology handle (`Arc<dyn Topology>`) and the topology's
//!   traversal spectrum, built on the first model evaluation and shared by
//!   every clone and `with_*` variant: constructing one builds the
//!   topology's tables once, but never validates the *pairing* of
//!   topology and knobs, so harnesses can describe sweeps they may never
//!   run.  Validation happens when a backend is asked:
//!   [`Evaluator::supports`] answers cheaply (via
//!   [`Scenario::model_params`]) and [`Evaluator::evaluate`] may panic on
//!   scenarios the backend declared unsupported.
//! * **Replicate semantics.**  A stochastic backend answers one point as
//!   the aggregate of [`Scenario::replicates`] independent replications,
//!   replicate `i` seeded with
//!   `star_queueing::replicate_seed(scenario.seed_base, i)` — a pure,
//!   platform-independent derivation, so replicate `i` is the same
//!   simulation wherever and whenever it runs.  Every estimate carries the
//!   across-replicate mean and Student-t 95% confidence interval
//!   ([`PointEstimate::latency_stats`]); deterministic backends contribute
//!   a single degenerate replicate with a zero-width interval, so one
//!   report schema ([`RunReport`]) covers both.  A point is saturated as
//!   soon as any replicate saturates.
//!
//!   ```
//!   use star_workloads::{Evaluator, SimBackend, SimBudget, Scenario};
//!
//!   // 4 independently seeded replicates of one operating point, folded
//!   // into a mean ± Student-t 95% confidence interval
//!   let scenario = Scenario::star(4)
//!       .with_message_length(16)
//!       .with_replicates(4)
//!       .with_seed_base(7);
//!   let estimate = SimBackend::new(SimBudget::Quick).evaluate(&scenario.at(0.003));
//!   assert_eq!(estimate.replicates(), 4);
//!   assert!(estimate.latency_ci95() > 0.0);
//!   assert!(estimate.latency_rel_ci95() < 0.2, "4 seeds agree to well under 20%");
//!   println!("latency = {}", estimate.latency_stats.pretty()); // e.g. "26.2 ± 0.4"
//!   ```
//! * **Determinism.**  Both shipped backends are referentially transparent:
//!   the model is closed-form plus a deterministic fixed-point iteration,
//!   and the simulator derives every random stream from the scenario's seed
//!   base, so the same [`OperatingPoint`] always returns the same
//!   [`PointEstimate`], bit for bit.  The [`SweepRunner`] preserves this
//!   end-to-end: reports come back grouped by sweep in input order with one
//!   estimate per rate in rate order, **byte-identical for any
//!   `--threads` value** (work units are computed independently of
//!   scheduling, reassembled by index, and replicate groups are folded in
//!   replicate order).
//! * **Warm-start semantics.**  [`ModelBackend`] chains each rate's
//!   fixed-point seed from the previous rate of the *same sweep*
//!   ([`Evaluator::chains_rates`]), on every topology.  This is an
//!   *iteration-count* optimisation, never an *answer* change: warm and
//!   cold solves agree to solver tolerance (1e-9 relative latency), and a
//!   saturated point yields an unusable seed that the next rate ignores in
//!   favour of a cold start.  The [`SweepRunner`] respects the chain by
//!   sharding chaining backends at sweep granularity (so a sweep's rates
//!   never split across workers) and independent backends at
//!   (point × replicate) granularity (so one heavy replicated point still
//!   fills every core); backends with a dynamic replicate count (adaptive
//!   [`CiTarget`] stopping) shard at point granularity.
//! * **`--threads` behaviour.**  Every harness binary forwards `--threads N`
//!   to [`SweepRunner::with_threads`]; `0` (the default) means all available
//!   parallelism.  Thread count affects wall-clock only, never output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod evaluator;
pub mod experiment;
pub mod report;
pub mod scenario;
pub mod sweep_runner;
pub mod wire;

pub use budget::SimBudget;
pub use evaluator::{
    CiTarget, EstimateDetail, Evaluator, ModelBackend, PointEstimate, ScenarioModel,
    ScenarioSpectrum, SimBackend,
};
pub use experiment::figure1_sweeps;
pub use report::{ascii_plot, markdown_table, write_csv, ReportSink, RunReport, RunRow};
pub use scenario::{Discipline, OperatingPoint, Scenario, TopologyKind};
pub use star_exec::{ExecPool, ShardSpec};
pub use star_queueing::ReplicateStats;
pub use sweep_runner::{
    rate_indices, retain_shard, shard_sweeps, SweepReport, SweepRunner, SweepSpec,
};
pub use wire::{
    default_config_pool, encode_estimate, load_rate_grid, model_saturation_rate,
    model_saturation_search, scenario_fingerprint, ScenarioFields, WireError, WireScenario,
};
