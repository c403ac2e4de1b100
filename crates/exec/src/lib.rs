//! # star-exec
//!
//! The shared execution layer of the star-wormhole workspace: one
//! [`ExecPool`] of persistent workers behind every parallel path
//! (`SweepRunner` sweep sharding, simulator replicate fan-out, the serving
//! daemon's solve batches), plus the
//! [`shard`] machinery that splits one run's work list across processes
//! and merges the partial CSVs back together.
//!
//! ## Why a persistent pool
//!
//! Spawning scoped threads per call is fine for coarse work (a sweep of
//! operating points) but makes fine-grained batches slower than the serial
//! loop: the spawn/join cost dominates the microseconds of useful work.
//! [`ExecPool`] spawns its workers once and reuses them for every batch, so
//! a parallel batch costs a queue push instead of a thread spawn per
//! executor.
//!
//! ## The determinism contract
//!
//! [`ExecPool::run_ordered`] computes `f(i, &items[i])` for every item of a
//! slice and returns the results **in item order**.  Each item is evaluated
//! exactly once, by exactly one executor, with the same inputs regardless
//! of which executor runs it or when — scheduling chooses *who* computes an
//! item, never *what* is computed — and results are reassembled by index.
//! Consequently the returned vector is **byte-identical for any worker
//! count**, including the serial short-circuit.  Every caller in the
//! workspace (sweep runner, blocking sums, spectrum build) inherits its
//! "`--threads` never changes the output" guarantee from this contract,
//! and the tests pin it at all three call sites.
//!
//! A width of `0` means "all pool workers" (the `--threads 0` convention of
//! the harness binaries); `1` short-circuits to a serial loop on the
//! calling thread with no queue traffic at all.  Panics from `f` are
//! caught, the batch is drained, and the first panic payload is re-thrown
//! on the caller — a panicking work item never takes a pool worker down
//! with it.
//!
//! Nested batches are safe: the calling thread always participates as an
//! executor, so a batch submitted from inside a pool worker completes even
//! when every other worker is busy (it merely runs with less parallelism).
//!
//! ## Cross-process sharding
//!
//! [`shard::ShardSpec`] deterministically slices a run's flat work list
//! (`--shard K/N` keeps the items whose index `≡ K−1 (mod N)`), partial
//! CSVs carry each row's index in the unsharded run
//! ([`shard::partial_header`] / [`shard::partial_rows`]), and
//! [`shard::merge_shard_csvs`] reassembles any set of partials into a CSV
//! byte-identical to the unsharded run — `cargo xtask merge-shards` is a
//! thin wrapper around it.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod pool;
pub mod shard;

pub use pool::ExecPool;
pub use shard::{merge_shard_csvs, MergeError, RunFingerprint, ShardParseError, ShardSpec};
