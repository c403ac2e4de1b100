//! The model's parameters: the four knobs common to every topology.
//!
//! [`ModelParams`] holds virtual channels `V`, message length `M`, traffic
//! rate `λ_g` and the routing discipline; the topology arrives separately
//! (as a [`Topology`] value or as the [`crate::TraversalSpectrum`] built
//! from one), and [`ModelParams::validate_for`] derives the requirements —
//! the escape-level minimum `⌊diameter/2⌋ + 1` and a network large enough
//! to route in — from the topology itself.

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};
use star_graph::coloring::max_negative_hops;
use star_graph::Topology;

use crate::blocking::VcSplit;

/// Which routing scheme the model evaluates, across every topology.
///
/// The paper derives the model for Enhanced-Nbc and notes that "the
/// modelling approach used here can be equally applied for other routing
/// schemes after few changes"; the other adaptive variants implement exactly
/// those changes — they only differ in how the virtual channels of a
/// physical channel are split and in how many of them a header may request
/// on one hop.  `Deterministic` is the dimension-order style baseline (one
/// admissible output port and one admissible virtual channel per hop; e-cube
/// routing on `Q_d`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ModelDiscipline {
    /// Minimal escape levels plus fully adaptive class-a channels, with
    /// bonus cards on the escape levels (the paper's algorithm).
    #[default]
    EnhancedNbc,
    /// Negative-hop with bonus cards over all `V` virtual channels.
    Nbc,
    /// Plain negative-hop: one admissible virtual channel per admissible
    /// physical channel.
    NHop,
    /// Deterministic minimal routing: one admissible output port per hop,
    /// one admissible virtual channel (the mandatory negative-hop level).
    Deterministic,
}

impl ModelDiscipline {
    /// Whether the scheme offers every profitable output port (adaptive) or
    /// a single canonical one (deterministic).
    #[must_use]
    pub fn is_adaptive(self) -> bool {
        !matches!(self, ModelDiscipline::Deterministic)
    }

    /// Whether headers may climb above their mandatory escape level
    /// (bonus cards).
    #[must_use]
    pub fn bonus_cards(self) -> bool {
        matches!(self, ModelDiscipline::EnhancedNbc | ModelDiscipline::Nbc)
    }
}

/// Why a [`ModelParams`] / topology pairing is invalid.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ModelParamsError {
    /// The network is a single link (`S_2` = `Q_1`): there is nothing to
    /// route, so the model does not cover it.
    TooFewNodes {
        /// The rejected network's node count.
        nodes: usize,
    },
    /// Messages must be at least one flit long.
    ZeroLengthMessage,
    /// The traffic generation rate is negative, NaN or infinite.
    InvalidTrafficRate {
        /// The rejected rate.
        rate: f64,
    },
    /// The discipline needs more virtual channels than were configured.
    TooFewVirtualChannels {
        /// The discipline being modelled.
        discipline: ModelDiscipline,
        /// Minimum negative-hop levels the topology requires.
        required_levels: usize,
        /// The rejected virtual-channel count.
        got: usize,
    },
}

impl fmt::Display for ModelParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ModelParamsError::TooFewNodes { nodes } => {
                write!(f, "the model needs a network of at least 3 nodes, got {nodes}")
            }
            ModelParamsError::ZeroLengthMessage => write!(f, "messages need at least one flit"),
            ModelParamsError::InvalidTrafficRate { rate } => {
                write!(f, "traffic rate must be finite and non-negative, got {rate}")
            }
            ModelParamsError::TooFewVirtualChannels {
                discipline: ModelDiscipline::EnhancedNbc,
                required_levels,
                got,
            } => write!(
                f,
                "Enhanced-Nbc needs more than {required_levels} virtual channels, got {got}"
            ),
            ModelParamsError::TooFewVirtualChannels { discipline, required_levels, got } => {
                write!(
                    f,
                    "{discipline:?} needs at least {required_levels} virtual channels, got {got}"
                )
            }
        }
    }
}

impl Error for ModelParamsError {}

/// The four model knobs that are common to every topology: virtual channels
/// `V`, message length `M`, traffic generation rate `λ_g` and the routing
/// discipline.  Pair with a [`Topology`] (or a
/// [`crate::TraversalSpectrum`]) to evaluate the model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModelParams {
    /// Virtual channels `V` per physical channel.
    pub virtual_channels: usize,
    /// Message length `M` in flits.
    pub message_length: usize,
    /// Traffic generation rate `λ_g` in messages per node per cycle.
    pub traffic_rate: f64,
    /// Routing discipline being modelled.
    pub discipline: ModelDiscipline,
}

impl Default for ModelParams {
    /// The paper's `V = 6`, `M = 32`, Enhanced-Nbc configuration at a low
    /// load (the topology is supplied separately).
    fn default() -> Self {
        Self {
            virtual_channels: 6,
            message_length: 32,
            traffic_rate: 0.001,
            discipline: ModelDiscipline::EnhancedNbc,
        }
    }
}

impl ModelParams {
    /// Returns a copy with the traffic rate replaced — the knob sweeps turn.
    #[must_use]
    pub fn with_rate(self, rate: f64) -> Self {
        Self { traffic_rate: rate, ..self }
    }

    /// Minimum number of negative-hop levels a bipartite topology of the
    /// given diameter requires (`⌊diameter/2⌋ + 1`).
    #[must_use]
    pub fn required_levels(diameter: usize) -> usize {
        max_negative_hops(diameter, 2) + 1
    }

    /// Smallest valid `V` for this discipline on a topology of the given
    /// diameter (`levels + 1` for Enhanced-Nbc, which needs at least one
    /// class-a channel; `levels` otherwise).
    #[must_use]
    pub fn min_virtual_channels(discipline: ModelDiscipline, diameter: usize) -> usize {
        let levels = Self::required_levels(diameter);
        match discipline {
            ModelDiscipline::EnhancedNbc => levels + 1,
            _ => levels,
        }
    }

    /// Number of class-b (escape) virtual channels for a topology of the
    /// given diameter.
    #[must_use]
    pub fn escape_levels(&self, diameter: usize) -> usize {
        match self.discipline {
            ModelDiscipline::EnhancedNbc => Self::required_levels(diameter),
            _ => self.virtual_channels,
        }
    }

    /// Number of class-a (fully adaptive) virtual channels for a topology of
    /// the given diameter.
    #[must_use]
    pub fn adaptive_channels(&self, diameter: usize) -> usize {
        match self.discipline {
            ModelDiscipline::EnhancedNbc => self.virtual_channels - Self::required_levels(diameter),
            _ => 0,
        }
    }

    /// The virtual-channel split the blocking equations assume on a topology
    /// of the given diameter.
    #[must_use]
    pub fn vc_split(&self, diameter: usize) -> VcSplit {
        VcSplit {
            adaptive: self.adaptive_channels(diameter),
            escape_levels: self.escape_levels(diameter),
            bonus_cards: self.discipline.bonus_cards(),
        }
    }

    /// Validates these parameters against a network of the given size and
    /// diameter: at least three nodes, a message of at least one flit, a
    /// finite non-negative rate and the discipline's virtual-channel floor.
    pub(crate) fn validate(&self, nodes: usize, diameter: usize) -> Result<(), ModelParamsError> {
        if nodes < 3 {
            return Err(ModelParamsError::TooFewNodes { nodes });
        }
        if self.message_length < 1 {
            return Err(ModelParamsError::ZeroLengthMessage);
        }
        if !(self.traffic_rate >= 0.0 && self.traffic_rate.is_finite()) {
            return Err(ModelParamsError::InvalidTrafficRate { rate: self.traffic_rate });
        }
        if self.virtual_channels < Self::min_virtual_channels(self.discipline, diameter) {
            return Err(ModelParamsError::TooFewVirtualChannels {
                discipline: self.discipline,
                required_levels: Self::required_levels(diameter),
                got: self.virtual_channels,
            });
        }
        Ok(())
    }

    /// Validates the pairing of these parameters with a topology.
    ///
    /// # Errors
    /// Returns a [`ModelParamsError`] describing the first violation.
    pub fn validate_for(&self, topology: &dyn Topology) -> Result<(), ModelParamsError> {
        self.validate(topology.node_count(), topology.diameter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_graph::{Hypercube, Ring, StarGraph, Torus};

    fn params(v: usize) -> ModelParams {
        ModelParams { virtual_channels: v, ..ModelParams::default() }
    }

    #[test]
    fn default_matches_the_papers_knobs() {
        let p = ModelParams::default();
        assert_eq!(p.virtual_channels, 6);
        assert_eq!(p.message_length, 32);
        assert_eq!(p.discipline, ModelDiscipline::EnhancedNbc);
        assert!((p.with_rate(0.004).traffic_rate - 0.004).abs() < 1e-15);
    }

    #[test]
    fn star_validation_applies_the_escape_level_floor() {
        // S5: diameter 6 → 4 levels → Enhanced-Nbc needs V ≥ 5
        let s5 = StarGraph::new(5);
        assert!(params(5).validate_for(&s5).is_ok());
        assert_eq!(
            params(4).validate_for(&s5),
            Err(ModelParamsError::TooFewVirtualChannels {
                discipline: ModelDiscipline::EnhancedNbc,
                required_levels: 4,
                got: 4,
            })
        );
        // the escape-only schemes accept V == levels
        for discipline in [ModelDiscipline::Nbc, ModelDiscipline::NHop] {
            assert!(ModelParams { discipline, ..params(4) }.validate_for(&s5).is_ok());
            assert!(ModelParams { discipline, ..params(3) }.validate_for(&s5).is_err());
        }
        // S6: diameter 7 → 4 levels; S7: diameter 9 → 5 levels
        assert!(params(5).validate_for(&StarGraph::new(6)).is_ok());
        assert!(params(5).validate_for(&StarGraph::new(7)).is_err());
        assert!(params(6).validate_for(&StarGraph::new(7)).is_ok());
    }

    #[test]
    fn hypercube_validation_applies_the_escape_level_floor() {
        let cube = Hypercube::new(10); // diameter 10 → 6 levels
        assert!(params(7).validate_for(&cube).is_ok());
        assert!(matches!(
            params(6).validate_for(&cube),
            Err(ModelParamsError::TooFewVirtualChannels { required_levels: 6, got: 6, .. })
        ));
        // the deterministic discipline accepts V == required levels
        let det = ModelParams { discipline: ModelDiscipline::Deterministic, ..params(6) };
        assert!(det.validate_for(&cube).is_ok());
        assert_eq!(params(8).vc_split(13).escape_levels, 7);
        assert_eq!(params(8).vc_split(10).adaptive, 2);
    }

    #[test]
    fn single_link_networks_are_outside_the_model() {
        // S2 and Q1 are both one link between two nodes
        for topology in [&StarGraph::new(2) as &dyn Topology, &Hypercube::new(1)] {
            assert_eq!(
                params(8).validate_for(topology),
                Err(ModelParamsError::TooFewNodes { nodes: 2 })
            );
        }
        assert!(params(8).validate_for(&StarGraph::new(3)).is_ok());
        assert!(params(8).validate_for(&Hypercube::new(2)).is_ok());
    }

    #[test]
    fn generic_validation_covers_torus_and_ring() {
        let t12 = Torus::new(12); // diameter 12 → 7 levels → V ≥ 8 for Enhanced-Nbc
        assert_eq!(ModelParams::required_levels(t12.diameter()), 7);
        assert!(params(8).validate_for(&t12).is_ok());
        assert_eq!(
            params(7).validate_for(&t12),
            Err(ModelParamsError::TooFewVirtualChannels {
                discipline: ModelDiscipline::EnhancedNbc,
                required_levels: 7,
                got: 7,
            })
        );
        let ring = Ring::new(8); // diameter 4 → 3 levels
        assert!(params(4).validate_for(&ring).is_ok());
        let nhop = ModelParams { discipline: ModelDiscipline::NHop, ..params(3) };
        assert!(nhop.validate_for(&ring).is_ok(), "escape-only schemes accept V == levels");
    }

    #[test]
    fn validation_rejects_bad_messages_and_rates() {
        let torus = Torus::new(8);
        let zero = ModelParams { message_length: 0, ..params(8) };
        assert_eq!(zero.validate_for(&torus), Err(ModelParamsError::ZeroLengthMessage));
        let nan = ModelParams { traffic_rate: f64::NAN, ..params(8) };
        assert!(matches!(
            nan.validate_for(&torus),
            Err(ModelParamsError::InvalidTrafficRate { .. })
        ));
    }

    #[test]
    fn vc_split_follows_the_discipline() {
        // S5 (diameter 6, 4 levels) at V = 6
        let split = params(6).vc_split(6);
        assert_eq!((split.adaptive, split.escape_levels, split.bonus_cards), (2, 4, true));
        for (discipline, bonus) in [(ModelDiscipline::Nbc, true), (ModelDiscipline::NHop, false)] {
            let split = ModelParams { discipline, ..params(6) }.vc_split(6);
            assert_eq!((split.adaptive, split.escape_levels, split.bonus_cards), (0, 6, bonus));
        }
        assert!(!ModelDiscipline::Deterministic.bonus_cards());
        assert!(!ModelDiscipline::Deterministic.is_adaptive());
        assert!(ModelDiscipline::NHop.is_adaptive());
    }

    #[test]
    fn error_displays() {
        let err = ModelParamsError::TooFewVirtualChannels {
            discipline: ModelDiscipline::EnhancedNbc,
            required_levels: 7,
            got: 7,
        };
        assert_eq!(err.to_string(), "Enhanced-Nbc needs more than 7 virtual channels, got 7");
        let err = ModelParamsError::TooFewVirtualChannels {
            discipline: ModelDiscipline::Deterministic,
            required_levels: 3,
            got: 2,
        };
        assert_eq!(err.to_string(), "Deterministic needs at least 3 virtual channels, got 2");
        let boxed: Box<dyn std::error::Error> = Box::new(ModelParamsError::ZeroLengthMessage);
        assert_eq!(boxed.to_string(), "messages need at least one flit");
        assert_eq!(
            ModelParamsError::TooFewNodes { nodes: 2 }.to_string(),
            "the model needs a network of at least 3 nodes, got 2"
        );
    }
}
