//! # star-wormhole
//!
//! Facade crate for the star-wormhole workspace: a Rust reproduction of
//! *Analytical Performance Modelling of Adaptive Wormhole Routing in the Star
//! Interconnection Network* (Kiasari, Sarbazi-Azad & Ould-Khaoua, IPDPS 2006).
//!
//! The workspace contains:
//!
//! * [`exec`] (crate `star-exec`) — the shared execution layer: the
//!   persistent deterministic [`ExecPool`] behind every parallel path
//!   (sweep sharding, simulator replicates, the daemon's solve batches and
//!   prewarm) and the `--shard K/N` cross-process shard/merge machinery
//!   ([`ShardSpec`], `merge_shard_csvs`);
//! * [`graph`] (crate `star-graph`) — the [`Topology`] trait with its star
//!   graph `S_n`, hypercube `Q_d`, torus `T_k` and ring implementations,
//!   permutations, minimal-path DAGs, distance distributions;
//! * [`queueing`] (crate `star-queueing`) — M/G/1 waiting times, the virtual
//!   channel occupancy chain, fixed-point solvers and statistics;
//! * [`routing`] (crate `star-routing`) — the NHop, Nbc, Enhanced-Nbc and
//!   deterministic wormhole routing algorithms;
//! * [`sim`] (crate `star-sim`) — the cycle-accurate flit-level wormhole
//!   simulator used to validate the model;
//! * [`model`] (crate `star-core`) — **the paper's contribution**: the
//!   analytical latency model, [`SpectrumModel`], solved over a
//!   [`TraversalSpectrum`] of destination classes.  The star's cycle types
//!   and the hypercube's Hamming classes are closed-form spectrum
//!   constructors (so the star-vs-hypercube comparison runs model-only far
//!   beyond simulator scale); any other [`Topology`] value gets its
//!   spectrum from a BFS census;
//! * [`serve`] (crate `star-serve`) — the persistent evaluation daemon:
//!   a line-delimited-JSON TCP server answering scenario queries from a
//!   two-level cache (fingerprint-keyed topology/spectrum sharing plus an
//!   LRU solve cache), every answer byte-identical to a batch
//!   [`ModelBackend`] solve (see
//!   `REPRODUCING.md`'s *Serving mode* and the `star-serve` / `star-load`
//!   binaries);
//! * [`workloads`] (crate `star-workloads`) — the unified evaluation API:
//!   [`Scenario`]s carrying their topology as an `Arc<dyn Topology>` value
//!   (including the `replicates` ×
//!   `seed_base` replication policy), the [`Evaluator`] trait answered by
//!   both the analytical model ([`ModelBackend`]) and the simulator
//!   ([`SimBackend`], fanning each point out to independently seeded
//!   replicates with Student-t 95% confidence intervals), and the
//!   multi-threaded [`SweepRunner`] that shards (point × replicate) work
//!   items.
//!
//! The core workflow — answering the same operating points with swappable
//! backends — looks like this:
//!
//! ```
//! use star_wormhole::{ModelBackend, Scenario, SweepRunner, SweepSpec};
//!
//! // S5 (120 nodes), Enhanced-Nbc, V = 9 virtual channels, M = 32 flits,
//! // swept over three traffic generation rates.
//! let scenario = Scenario::star(5).with_virtual_channels(9);
//! let sweep = SweepSpec::new("demo", scenario, vec![0.002, 0.004, 0.006]);
//!
//! // The model backend warm-starts each rate from the previous rate's
//! // converged fixed point; swap in `SimBackend::new(..)` (plus
//! // `.with_replicates(R)` on the scenario for a mean ± 95% CI per point)
//! // to answer the same sweep with the flit-level simulator.
//! let report = SweepRunner::new().run_one(&ModelBackend::new(), &sweep);
//! assert_eq!(report.estimates.len(), 3);
//! assert!(report.estimates.iter().all(|e| !e.saturated));
//! // latency grows with load
//! let curve = report.latency_curve();
//! assert!(curve.windows(2).all(|w| w[0] < w[1]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use star_core as model;
pub use star_exec as exec;
pub use star_graph as graph;
pub use star_queueing as queueing;
pub use star_routing as routing;
pub use star_serve as serve;
pub use star_sim as sim;
pub use star_workloads as workloads;

pub use star_core::{
    saturation_rate, saturation_search, ModelDiscipline, ModelParams, ModelParamsError,
    SaturationSearch, SpectrumModel, SpectrumResult, TraversalSpectrum, ValidationRow,
};
pub use star_exec::{merge_shard_csvs, ExecPool, ShardSpec};
pub use star_graph::{
    Hypercube, Permutation, Ring, StarGraph, Topology, TopologyProperties, Torus,
};
pub use star_queueing::{replicate_seed, ReplicateStats};
pub use star_routing::{DeterministicMinimal, EnhancedNbc, NHop, Nbc, RoutingAlgorithm};
pub use star_serve::{Daemon, ServeConfig};
pub use star_sim::{
    ReplicateReport, ReplicateRun, SimConfig, SimReport, Simulation, TrafficPattern,
};
pub use star_workloads::{
    default_config_pool, encode_estimate, load_rate_grid, scenario_fingerprint, shard_sweeps,
    CiTarget, Discipline, EstimateDetail, Evaluator, ModelBackend, OperatingPoint, PointEstimate,
    ReportSink, RunReport, RunRow, Scenario, ScenarioModel, ScenarioSpectrum, SimBackend,
    SimBudget, SweepReport, SweepRunner, SweepSpec, TopologyKind, WireScenario,
};
