//! # star-core
//!
//! The paper's contribution: an analytical model of the mean message latency
//! of fully adaptive (Enhanced-Nbc) wormhole routing in the star
//! interconnection network `S_n` under uniform Poisson traffic
//! (Kiasari, Sarbazi-Azad & Ould-Khaoua, IPDPS 2006).
//!
//! The model composes (equation numbers refer to the paper):
//!
//! * the mean minimal distance `d̄` of `S_n` (Eq. 2), computed exactly from
//!   the permutation cycle structure by `star-graph`;
//! * the per-channel traffic rate `λ_c = λ_g·d̄/(n−1)` (Eq. 3);
//! * the per-destination network latency `S_i = M + h_i + Σ_k B_{i,k}`
//!   (Eq. 4-5), averaged over destinations weighted by how many nodes of each
//!   *cycle type* exist;
//! * the per-hop blocking time `B_{i,k} = P_block(i,k) · w̄` (Eq. 6) where the
//!   blocking probability accounts for the number of alternative output
//!   channels `f(i,j,k)` (Eq. 7-8) and for which virtual channels the
//!   Enhanced-Nbc scheme lets the message use (Eq. 9-11);
//! * M/G/1 waiting times at the channels and at the source queue with the
//!   paper's variance approximation `σ² ≈ (S̄ − M)²` (Eq. 12-16);
//! * the Markovian virtual-channel occupancy distribution (Eq. 18) and
//!   Dally's multiplexing factor `V̄` (Eq. 19);
//! * the final mean latency `(S̄ + W_s)·V̄` (Eq. 1), obtained by damped
//!   fixed-point iteration over the circular dependency between `S̄` and the
//!   waiting times.
//!
//! ## Derivation chain
//!
//! The modules compose in a fixed order — **params → spectrum → blocking →
//! waiting → occupancy → latency** — and only the spectrum knows the
//! topology:
//!
//! | stage | module | what it holds |
//! |---|---|---|
//! | params | [`params`] ([`ModelParams`]) | `V`, `M`, `λ_g`, discipline; validated against a topology |
//! | spectrum | [`spectrum`] ([`TraversalSpectrum`]) | destination classes: distance, population, per-hop adaptivity |
//! | blocking | [`blocking`] (Eqs. 6–11) | per-hop blocking over any bipartite network |
//! | waiting | [`waiting`] (Eqs. 12–16) | M/G/1 channel and source waiting times |
//! | occupancy | [`occupancy`] (Eqs. 18–19) | virtual-channel occupancy and `V̄` |
//! | latency | [`generic`] ([`SpectrumModel`], [`saturation_rate`]) | the Eq. 1 fixed point and its saturation bisection |
//!
//! A spectrum comes from one of three constructors: the closed forms
//! [`TraversalSpectrum::star`] (permutation cycle types of `S_n`) and
//! [`TraversalSpectrum::hypercube`] (binomial Hamming classes of `Q_d`), or
//! the BFS census [`TraversalSpectrum::new`] of any [`star_graph::Topology`]
//! (torus, ring, plugged-in networks).  The census reproduces both closed
//! forms bit for bit, which the `spectrum` module's tests pin down.
//!
//! ```
//! use std::sync::Arc;
//! use star_core::{ModelParams, SpectrumModel, TraversalSpectrum};
//!
//! // S5 (120 nodes, the network of Figure 1), V = 6, M = 32, Enhanced-Nbc
//! let params = ModelParams { traffic_rate: 0.004, ..ModelParams::default() };
//! let result = SpectrumModel::new(params, Arc::new(TraversalSpectrum::star(5))).solve();
//! assert!(!result.saturated && result.converged);
//! // latency is above the zero-load bound M + d̄ and finite below saturation
//! assert!(result.mean_latency > 32.0 + 3.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blocking;
pub mod generic;
mod kernel;
pub mod occupancy;
pub mod params;
pub mod spectrum;
pub mod validation;
pub mod waiting;

pub use generic::{saturation_rate, SpectrumModel, SpectrumResult};
pub use params::{ModelDiscipline, ModelParams, ModelParamsError};
pub use spectrum::{TraversalClass, TraversalSpectrum};
pub use validation::ValidationRow;
