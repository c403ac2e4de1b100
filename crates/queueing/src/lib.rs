//! # star-queueing
//!
//! Queueing-theory and numerical substrate shared by the analytical model
//! (`star-core`) and the flit-level simulator (`star-sim`):
//!
//! * [`mg1`] — M/G/1 mean waiting times, including the paper's approximation
//!   of the service-time variance from the minimum service time (Eq. 12-16);
//! * [`markov`] — the Markovian virtual-channel occupancy distribution of
//!   Eq. (18) and Dally's average multiplexing degree of Eq. (19), plus a
//!   generic birth–death chain solver;
//! * [`fixed_point`] — damped fixed-point iteration with divergence
//!   (saturation) detection, used to resolve the model's circular
//!   dependencies between latency and waiting time;
//! * [`stats`] — running statistics, batch means, across-replicate Student-t
//!   confidence intervals and histograms for simulation output analysis;
//! * [`sampling`] — Poisson-process inter-arrival sampling and deterministic
//!   seeding helpers, including the [`replicate_seed`] derivation the
//!   replicate-aware evaluation layer fans seeds out with.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fixed_point;
pub mod markov;
pub mod mg1;
pub mod sampling;
pub mod stats;

pub use fixed_point::{FixedPointOutcome, FixedPointSolver};
pub use markov::{
    multiplexing_degree, vc_occupancy_distribution, vc_occupancy_distribution_into, BirthDeathChain,
};
pub use mg1::{mg1_waiting_time, mg1_waiting_time_min_service, utilization};
pub use sampling::{replicate_seed, PoissonProcess};
pub use stats::{student_t_975, BatchMeans, Histogram, ReplicateStats, RunningStats};
