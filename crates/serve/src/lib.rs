//! # star-serve
//!
//! A persistent evaluation daemon for the analytical model: scenario
//! queries as line-delimited JSON over TCP, answered from a
//! fingerprint-keyed two-level cache instead of a fresh process per batch.
//!
//! The batch pipeline pays its fixed costs — topology tables, destination
//! spectra, process startup — on every invocation.  A *serving* deployment
//! (a design-space dashboard, a surrogate-training loop issuing millions of
//! point queries) wants them paid once:
//!
//! * **Level 1** ([`cache::ConfigCache`]): configurations keyed by their
//!   wire scenario, derived from one base scenario
//!   per network so they share its spectrum build — one spectrum per
//!   *network* across all disciplines and knobs — and one model per
//!   configuration, whose step kernel every miss reuses.
//! * **Level 2** ([`cache::ShardedSolveCache`]): solved answers keyed by
//!   (configuration fingerprint, exact rate bits) under an LRU byte budget
//!   with per-entry hit counters.  The level is **sharded**: the fingerprint
//!   (a [`star_exec::RunFingerprint`] digest) picks
//!   one of N independently locked [`cache::SolveCache`] shards (all rates
//!   of a configuration share a shard).  A miss is a lookup, one cold
//!   solve and an insert.
//!
//! Around the caches, the daemon scales out instead of serialising:
//! hot configurations can be **prewarmed** ([`prewarm`]) across the whole
//! load-generator rate grid before the listener opens, and the accept loop
//! enforces a **connection budget** ([`daemon::ServeConfig::max_connections`])
//! that answers overload with explicit `busy` refusals rather than
//! unbounded thread growth.
//!
//! The contract that keeps the daemon honest ([`protocol`]): every answer
//! is **byte-identical** to what the batch [`star_workloads::ModelBackend`]
//! encodes for the same point — cold solves on the configuration's
//! prebuilt model ([`star_workloads::ModelBackend::estimate_on`], bit for
//! bit [`star_workloads::ModelBackend::estimate_with`] with an empty warm
//! state), cache hits replaying previously-solved bytes verbatim.  The
//! wire `mode` field is still accepted (`exact`, or the retired `warm`),
//! and both spellings get the same exact answer.
//!
//! Queries pipelined on one connection are evaluated as deterministic
//! ordered batches on the shared [`star_exec::ExecPool`]; SIGINT or a wire
//! `shutdown` request drains in-flight windows before the process exits
//! ([`daemon`], [`signal`]).
//!
//! The workspace facade re-exports this crate as `star_wormhole::serve`;
//! the `star-serve` binary wraps [`Daemon`] behind a tiny CLI, and the
//! `star-load` binary (in `star-bench`) replays mixed query streams
//! against it.

#![deny(unsafe_code)] // one exception: the SIGINT binding in `signal`
#![warn(missing_docs)]

pub mod cache;
pub mod daemon;
pub mod prewarm;
pub mod protocol;
pub mod signal;

pub use cache::{ConfigCache, Lookup, ShardedSolveCache, SolveCache, SolveCounters};
pub use daemon::{Daemon, ServeConfig, ServerState};
pub use prewarm::{parse_prewarm_list, PrewarmReport};
pub use protocol::{CacheOutcome, Query, Request, RequestError, SolveMode};
