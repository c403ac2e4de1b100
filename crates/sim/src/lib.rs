//! # star-sim
//!
//! A cycle-accurate, flit-level wormhole network simulator with virtual
//! channels, used to validate the analytical model of `star-core` exactly as
//! the paper validates its model (Section 5):
//!
//! * the network cycle is the transmission time of one flit between adjacent
//!   routers;
//! * each node generates messages according to a Poisson process with rate
//!   `λ_g` messages/cycle, destinations drawn uniformly at random;
//! * messages have a fixed length of `M` flits;
//! * every physical channel carries `V` virtual channels, each with its own
//!   flit buffer, allocated according to a pluggable
//!   [`RoutingAlgorithm`](star_routing::RoutingAlgorithm) (Enhanced-Nbc by
//!   default);
//! * messages are consumed by the local processor on arrival (no ejection
//!   contention), and the mean message latency is measured from generation to
//!   the arrival of the last data flit.
//!
//! The engine ([`EventNetwork`]) schedules source arrivals on an
//! [`EventCalendar`] and walks active-entity sets only, skipping empty
//! pipeline stages and fast-forwarding over idle stretches, so its cost
//! scales with traffic rather than network size.  Reports are pinned bit for
//! bit by golden fixtures (`tests/sim_golden.rs`).
//!
//! The simulator is deterministic for a fixed seed, detects saturation
//! (unbounded source queues), and reports message latency, network latency,
//! source-queueing time, channel utilisation and the observed degree of
//! virtual-channel multiplexing.  A [`ReplicateRun`] executes R
//! independently seeded replications of one experiment (seeds derived from a
//! base seed with [`star_queueing::replicate_seed`]) and folds them into a
//! [`ReplicateReport`] with across-replicate means and Student-t 95%
//! confidence intervals.
//!
//! ```
//! use star_graph::StarGraph;
//! use star_routing::EnhancedNbc;
//! use star_sim::{SimConfig, Simulation, TrafficPattern};
//! use std::sync::Arc;
//!
//! let topology = Arc::new(StarGraph::new(4));
//! let routing = Arc::new(EnhancedNbc::for_topology(topology.as_ref(), 6));
//! let config = SimConfig::builder()
//!     .message_length(16)
//!     .traffic_rate(0.001)
//!     .warmup_cycles(1_000)
//!     .measured_messages(2_000)
//!     .max_cycles(200_000)
//!     .seed(7)
//!     .build();
//! let report = Simulation::new(topology, routing, config, TrafficPattern::Uniform).run();
//! assert!(!report.saturated);
//! assert!(report.mean_message_latency > 16.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activeset;
pub mod calendar;
pub mod channel;
pub mod config;
pub mod event;
pub mod message;
pub mod metrics;
pub mod replicate;
pub mod sim;
pub mod traffic;

pub use activeset::ActiveSet;
pub use calendar::EventCalendar;
pub use config::{SelectionPolicy, SimConfig, SimConfigBuilder};
pub use event::EventNetwork;
pub use message::{Message, MessageId};
pub use metrics::{ReplicateReport, SimReport, StageSkips};
pub use replicate::ReplicateRun;
pub use sim::Simulation;
pub use traffic::TrafficPattern;
