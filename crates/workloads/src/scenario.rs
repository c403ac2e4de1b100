//! Topology-generic evaluation scenarios.
//!
//! The paper's whole evaluation is "the same operating point, answered twice"
//! — once by the analytical model and once by the flit-level simulator.  A
//! [`Scenario`] names everything both backends need to agree on — the
//! topology **as a value** (`Arc<dyn Topology>`), routing discipline, virtual
//! channels, message length, traffic pattern — and an [`OperatingPoint`] pins
//! a scenario to one traffic generation rate.  Every harness binary, example
//! and test builds these, so model and simulator stay swappable.
//!
//! Topologies are plugged in, not enumerated: [`Scenario::on`] accepts any
//! [`Topology`] implementation, and the family constructors
//! ([`Scenario::star`], [`Scenario::hypercube`], [`Scenario::torus`],
//! [`Scenario::ring`]) are thin wrappers over it.  [`TopologyKind`] exists
//! only where a *name* must round-trip through a CLI flag
//! (`--topology star|hypercube|torus|ring`); nothing in the evaluation path
//! matches on it.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use star_core::{ModelDiscipline, ModelParams, ModelParamsError};
use star_graph::{Hypercube, Ring, StarGraph, Topology, Torus};
use star_routing::{DeterministicMinimal, EnhancedNbc, NHop, Nbc, RoutingAlgorithm};
use star_sim::TrafficPattern;

/// The topology families with a CLI name — the `--topology` flag of the
/// harness binaries parses into this.
///
/// This enum is a *naming* convenience only: scenarios carry an
/// `Arc<dyn Topology>` value ([`Scenario::on`]), so a topology outside this
/// list plugs into the whole evaluation stack without touching it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum TopologyKind {
    /// The star graph `S_n` (`size` is the number of symbols `n`).
    #[default]
    Star,
    /// The binary hypercube `Q_d` (`size` is the dimension `d`).
    Hypercube,
    /// The k-ary 2-cube `T_k` (`size` is the side length `k`, even).
    Torus,
    /// The even cycle `R_k` (`size` is the node count `k`).
    Ring,
}

impl TopologyKind {
    /// Every named family, in CLI/report order.
    pub const ALL: [TopologyKind; 4] =
        [TopologyKind::Star, TopologyKind::Hypercube, TopologyKind::Torus, TopologyKind::Ring];

    /// Instantiates the topology of this family at the given size.
    ///
    /// # Panics
    /// Panics if the size is out of range for the topology family.
    #[must_use]
    pub fn topology(self, size: usize) -> Arc<dyn Topology> {
        match self {
            TopologyKind::Star => Arc::new(StarGraph::new(size)),
            TopologyKind::Hypercube => Arc::new(Hypercube::new(size)),
            TopologyKind::Torus => Arc::new(Torus::new(size)),
            TopologyKind::Ring => Arc::new(Ring::new(size)),
        }
    }

    /// The conventional name of the network at the given size
    /// (`"S5"`, `"Q7"`, `"T8"`, `"R8"`).
    #[must_use]
    pub fn label(self, size: usize) -> String {
        match self {
            TopologyKind::Star => format!("S{size}"),
            TopologyKind::Hypercube => format!("Q{size}"),
            TopologyKind::Torus => format!("T{size}"),
            TopologyKind::Ring => format!("R{size}"),
        }
    }

    /// The kebab-case name used by the `--topology` CLI flag.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TopologyKind::Star => "star",
            TopologyKind::Hypercube => "hypercube",
            TopologyKind::Torus => "torus",
            TopologyKind::Ring => "ring",
        }
    }

    /// Parses the kebab-case CLI name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The family's conventional smoke-test size (`S5`, `Q7`, `T8`, `R8`) —
    /// what a harness binary evaluates when `--topology` is given without an
    /// explicit size.
    #[must_use]
    pub fn default_size(self) -> usize {
        match self {
            TopologyKind::Star => 5,
            TopologyKind::Hypercube => 7,
            TopologyKind::Torus | TopologyKind::Ring => 8,
        }
    }

    /// A scenario on this family at the given size, with the paper's default
    /// knobs — shorthand for [`Scenario::on`]`(self.topology(size))`.
    ///
    /// # Panics
    /// Panics if the size is out of range for the topology family.
    #[must_use]
    pub fn scenario(self, size: usize) -> Scenario {
        Scenario::on(self.topology(size))
    }
}

/// Routing discipline of a scenario: the three schemes the analytical model
/// covers plus the deterministic minimal baseline the simulator also
/// implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Discipline {
    /// The paper's algorithm (escape levels + fully adaptive class-a
    /// channels, bonus cards).
    #[default]
    EnhancedNbc,
    /// Negative-hop with bonus cards over all `V` virtual channels.
    Nbc,
    /// Plain negative-hop.
    NHop,
    /// Deterministic minimal routing (the analytical model covers it on
    /// every topology except the star graph).
    Deterministic,
}

impl Discipline {
    /// All disciplines, in the order the comparison studies report them.
    pub const ALL: [Discipline; 4] =
        [Discipline::EnhancedNbc, Discipline::Nbc, Discipline::NHop, Discipline::Deterministic];

    /// The kebab-case name used on CLIs and in CSV columns.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Discipline::EnhancedNbc => "enhanced-nbc",
            Discipline::Nbc => "nbc",
            Discipline::NHop => "nhop",
            Discipline::Deterministic => "deterministic",
        }
    }

    /// Parses the kebab-case CLI name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|d| d.name() == name)
    }

    /// The analytical-model discipline.  All four map;
    /// [`Scenario::model_params`] decides which pairings the model covers.
    #[must_use]
    pub fn model_discipline(self) -> ModelDiscipline {
        match self {
            Discipline::EnhancedNbc => ModelDiscipline::EnhancedNbc,
            Discipline::Nbc => ModelDiscipline::Nbc,
            Discipline::NHop => ModelDiscipline::NHop,
            Discipline::Deterministic => ModelDiscipline::Deterministic,
        }
    }

    /// Instantiates the routing algorithm for a topology.
    ///
    /// # Panics
    /// Panics if the topology cannot support the requested virtual-channel
    /// count for this discipline.
    #[must_use]
    pub fn routing(
        self,
        topology: &dyn Topology,
        virtual_channels: usize,
    ) -> Arc<dyn RoutingAlgorithm> {
        match self {
            Discipline::EnhancedNbc => {
                Arc::new(EnhancedNbc::for_topology(topology, virtual_channels))
            }
            Discipline::Nbc => Arc::new(Nbc::for_topology(topology, virtual_channels)),
            Discipline::NHop => Arc::new(NHop::for_topology(topology, virtual_channels)),
            Discipline::Deterministic => {
                Arc::new(DeterministicMinimal::for_topology(topology, virtual_channels))
            }
        }
    }
}

/// Everything an evaluation backend needs to know about an experiment except
/// the traffic rate: the topology (held as a shared value), the routing
/// discipline, the message shape and the replication policy.  Pin a rate with
/// [`Scenario::at`] to get an [`OperatingPoint`].
///
/// Cloning a scenario is cheap — the topology is behind an `Arc`, so clones
/// share one instance (and one neighbour table).
#[derive(Clone, Serialize, Deserialize)]
pub struct Scenario {
    /// The network, as a value.  Private so every scenario is guaranteed to
    /// hold a live topology; read it back with [`Self::topology`].
    topology: Arc<dyn Topology>,
    /// Routing discipline.
    pub discipline: Discipline,
    /// Virtual channels per physical channel.
    pub virtual_channels: usize,
    /// Message length in flits.
    pub message_length: usize,
    /// Destination selection pattern of the generated traffic.
    pub pattern: TrafficPattern,
    /// Number of independently seeded replicates a stochastic backend runs
    /// per operating point (a deterministic backend such as the analytical
    /// model ignores this and reports a zero-width confidence interval).
    /// `1` is still a replicate — its seed is derived from `seed_base`, not
    /// used verbatim.
    pub replicates: usize,
    /// Base seed the per-replicate seeds are deterministically derived from
    /// (`star_queueing::replicate_seed(seed_base, replicate_index)`).
    pub seed_base: u64,
}

impl fmt::Debug for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scenario")
            .field("topology", &self.topology.name())
            .field("discipline", &self.discipline)
            .field("virtual_channels", &self.virtual_channels)
            .field("message_length", &self.message_length)
            .field("pattern", &self.pattern)
            .field("replicates", &self.replicates)
            .field("seed_base", &self.seed_base)
            .finish()
    }
}

impl PartialEq for Scenario {
    /// Two scenarios are equal when they describe the same experiment: the
    /// topology is compared by name (`"S5"`, `"T8"`, …), which the
    /// [`Topology`] contract makes unique per family and size.
    fn eq(&self, other: &Self) -> bool {
        self.topology.name() == other.topology.name()
            && self.discipline == other.discipline
            && self.virtual_channels == other.virtual_channels
            && self.message_length == other.message_length
            && self.pattern == other.pattern
            && self.replicates == other.replicates
            && self.seed_base == other.seed_base
    }
}

impl Scenario {
    /// A scenario on any topology value, at the paper's defaults
    /// (Enhanced-Nbc, `V = 6`, `M = 32`, uniform traffic, one replicate off
    /// seed base 0).  This is the primitive constructor every family
    /// shorthand delegates to — hand it anything that implements
    /// [`Topology`].
    #[must_use]
    pub fn on(topology: Arc<dyn Topology>) -> Self {
        Self {
            topology,
            discipline: Discipline::EnhancedNbc,
            virtual_channels: 6,
            message_length: 32,
            pattern: TrafficPattern::Uniform,
            replicates: 1,
            seed_base: 0,
        }
    }

    /// A star-graph scenario `S_n`.
    ///
    /// # Panics
    /// Panics if `symbols` is out of the tabled range.
    #[must_use]
    pub fn star(symbols: usize) -> Self {
        Self::on(Arc::new(StarGraph::new(symbols)))
    }

    /// A hypercube scenario `Q_d` with the same defaults.
    ///
    /// # Panics
    /// Panics if `dims` is out of range.
    #[must_use]
    pub fn hypercube(dims: usize) -> Self {
        Self::on(Arc::new(Hypercube::new(dims)))
    }

    /// A k-ary 2-cube (torus) scenario `T_k` with the same defaults.
    ///
    /// # Panics
    /// Panics unless `side` is even and at least 4.
    #[must_use]
    pub fn torus(side: usize) -> Self {
        Self::on(Arc::new(Torus::new(side)))
    }

    /// A ring scenario `R_k` with the same defaults.
    ///
    /// # Panics
    /// Panics unless `nodes` is even and at least 4.
    #[must_use]
    pub fn ring(nodes: usize) -> Self {
        Self::on(Arc::new(Ring::new(nodes)))
    }

    /// Sets the routing discipline.
    #[must_use]
    pub fn with_discipline(mut self, discipline: Discipline) -> Self {
        self.discipline = discipline;
        self
    }

    /// Sets the number of virtual channels per physical channel.
    #[must_use]
    pub fn with_virtual_channels(mut self, v: usize) -> Self {
        self.virtual_channels = v;
        self
    }

    /// Sets the message length in flits.
    #[must_use]
    pub fn with_message_length(mut self, m: usize) -> Self {
        self.message_length = m;
        self
    }

    /// Sets the traffic pattern.
    #[must_use]
    pub fn with_pattern(mut self, pattern: TrafficPattern) -> Self {
        self.pattern = pattern;
        self
    }

    /// Sets the number of independently seeded replicates per operating
    /// point.
    ///
    /// # Panics
    /// Panics if `replicates` is zero.
    #[must_use]
    pub fn with_replicates(mut self, replicates: usize) -> Self {
        assert!(replicates >= 1, "need at least one replicate");
        self.replicates = replicates;
        self
    }

    /// Sets the base seed replicate seeds are derived from.
    #[must_use]
    pub fn with_seed_base(mut self, seed_base: u64) -> Self {
        self.seed_base = seed_base;
        self
    }

    /// The conventional network name (`"S5"`, `"Q7"`, `"T8"`, `"R8"`, …) —
    /// the topology's own [`Topology::name`].
    #[must_use]
    pub fn network_label(&self) -> String {
        self.topology.name()
    }

    /// A short identifier for reports:
    /// `"S5/enhanced-nbc/V6/M32"`, with an `"/R8"` suffix when more than
    /// one replicate is requested.
    #[must_use]
    pub fn label(&self) -> String {
        let replicate_suffix =
            if self.replicates > 1 { format!("/R{}", self.replicates) } else { String::new() };
        format!(
            "{}/{}/V{}/M{}{}",
            self.network_label(),
            self.discipline.name(),
            self.virtual_channels,
            self.message_length,
            replicate_suffix
        )
    }

    /// The scenario's topology (a shared handle — cloning the `Arc` is
    /// cheap, the underlying tables are built once per scenario family).
    #[must_use]
    pub fn topology(&self) -> Arc<dyn Topology> {
        Arc::clone(&self.topology)
    }

    /// Instantiates the routing algorithm on this scenario's topology.
    ///
    /// # Panics
    /// Panics if the virtual-channel count is too small for the discipline on
    /// this topology.
    #[must_use]
    pub fn routing(&self) -> Arc<dyn RoutingAlgorithm> {
        self.discipline.routing(self.topology.as_ref(), self.virtual_channels)
    }

    /// The analytical-model parameters at the given traffic rate, when the
    /// model covers this scenario, validated against this scenario's
    /// topology:
    ///
    /// * `Ok(Some(params))` — the model covers the scenario; pair the
    ///   parameters with the scenario's spectrum
    ///   ([`crate::ScenarioSpectrum`]).
    /// * `Ok(None)` — outside the model's reach by *kind*, not by range:
    ///   non-uniform traffic, or deterministic routing on the star graph
    ///   (the star's cycle-type spectrum models the adaptive schemes only).
    ///
    /// # Errors
    /// Returns the [`ModelParamsError`] when the scenario is in the model's
    /// reach but its parameters are out of range (too few virtual channels
    /// for the topology's escape-level minimum, zero-length messages, a
    /// single-link network, …).
    pub fn model_params(&self, traffic_rate: f64) -> Result<Option<ModelParams>, ModelParamsError> {
        if self.pattern != TrafficPattern::Uniform {
            return Ok(None);
        }
        let params = ModelParams {
            virtual_channels: self.virtual_channels,
            message_length: self.message_length,
            traffic_rate,
            discipline: self.discipline.model_discipline(),
        };
        let topology = self.topology.as_ref();
        if params.discipline == ModelDiscipline::Deterministic
            && topology.as_any().downcast_ref::<StarGraph>().is_some()
        {
            return Ok(None);
        }
        params.validate_for(topology).map(|()| Some(params))
    }

    /// Pins the scenario to one traffic generation rate.
    #[must_use]
    pub fn at(&self, traffic_rate: f64) -> OperatingPoint {
        OperatingPoint { scenario: self.clone(), traffic_rate }
    }

    /// One operating point per rate, in order.
    #[must_use]
    pub fn sweep(&self, rates: &[f64]) -> Vec<OperatingPoint> {
        rates.iter().map(|&r| self.at(r)).collect()
    }
}

/// One scenario at one traffic generation rate — the unit both evaluation
/// backends answer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OperatingPoint {
    /// The scenario being evaluated.
    pub scenario: Scenario,
    /// Traffic generation rate `λ_g` (messages/node/cycle).
    pub traffic_rate: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_scenario_defaults_match_the_paper() {
        let s = Scenario::star(5);
        assert_eq!(s.network_label(), "S5");
        assert_eq!(s.virtual_channels, 6);
        assert_eq!(s.message_length, 32);
        assert_eq!(s.discipline, Discipline::EnhancedNbc);
        assert_eq!(s.label(), "S5/enhanced-nbc/V6/M32");
        assert_eq!(s.topology().node_count(), 120);
    }

    #[test]
    fn family_constructors_are_thin_wrappers_over_on() {
        for (scenario, label, nodes) in [
            (Scenario::star(5), "S5", 120),
            (Scenario::hypercube(7), "Q7", 128),
            (Scenario::torus(8), "T8", 64),
            (Scenario::ring(8), "R8", 8),
        ] {
            assert_eq!(scenario.network_label(), label);
            assert_eq!(scenario.topology().node_count(), nodes);
            // the same scenario built through the primitive constructor
            let direct = Scenario::on(scenario.topology());
            assert_eq!(direct, scenario);
            assert_eq!(direct.virtual_channels, 6);
            assert_eq!(direct.message_length, 32);
        }
    }

    #[test]
    fn scenarios_share_one_topology_instance_across_clones() {
        let s = Scenario::torus(8);
        let t1 = s.topology();
        let point = s.at(0.004);
        let t2 = point.scenario.topology();
        assert!(Arc::ptr_eq(&t1, &t2), "clones must share the Arc, not rebuild tables");
    }

    #[test]
    fn topology_kind_round_trips_names_and_builds_all_families() {
        for kind in TopologyKind::ALL {
            assert_eq!(TopologyKind::parse(kind.name()), Some(kind));
            let size = kind.default_size();
            let scenario = kind.scenario(size);
            assert_eq!(scenario.network_label(), kind.label(size));
            assert_eq!(scenario.topology().name(), kind.label(size));
        }
        assert_eq!(TopologyKind::parse("mesh"), None);
        assert_eq!(TopologyKind::Torus.label(8), "T8");
        assert_eq!(TopologyKind::Ring.default_size(), 8);
    }

    #[test]
    fn hypercube_scenario_builds_the_cube() {
        let s = Scenario::hypercube(7).with_message_length(64);
        assert_eq!(s.network_label(), "Q7");
        assert_eq!(s.topology().node_count(), 128);
        assert_eq!(s.message_length, 64);
        let params = s.model_params(0.001).unwrap().unwrap();
        assert_eq!(params.message_length, 64);
        assert_eq!(params.discipline, ModelDiscipline::EnhancedNbc);
    }

    #[test]
    fn model_params_maps_every_discipline_off_the_star() {
        for discipline in Discipline::ALL {
            for scenario in [Scenario::hypercube(5), Scenario::torus(6), Scenario::ring(8)] {
                let scenario = scenario.with_discipline(discipline);
                let params = scenario.model_params(0.002).unwrap().unwrap();
                assert_eq!(params.discipline, discipline.model_discipline());
                assert!((params.traffic_rate - 0.002).abs() < 1e-15);
            }
        }
        // out-of-range parameters surface as errors, not None
        assert!(matches!(
            Scenario::hypercube(10).model_params(0.002),
            Err(ModelParamsError::TooFewVirtualChannels { .. })
        ));
        assert!(matches!(
            Scenario::torus(12).model_params(0.002),
            Err(ModelParamsError::TooFewVirtualChannels { .. })
        ));
    }

    #[test]
    fn model_params_covers_modelled_star_disciplines_only() {
        let s = Scenario::star(5);
        let params = s.model_params(0.004).unwrap().unwrap();
        assert_eq!(params.virtual_channels, 6);
        assert!((params.traffic_rate - 0.004).abs() < 1e-15);
        assert_eq!(params.discipline, ModelDiscipline::EnhancedNbc);
        // the star model has no deterministic variant
        let det = s.clone().with_discipline(Discipline::Deterministic);
        assert_eq!(det.model_params(0.004), Ok(None));
        let invalid = s.with_virtual_channels(4);
        assert!(matches!(
            invalid.model_params(0.004),
            Err(ModelParamsError::TooFewVirtualChannels { .. })
        ));
        // S2 is a single link
        assert_eq!(
            Scenario::star(2).model_params(0.004),
            Err(ModelParamsError::TooFewNodes { nodes: 2 })
        );
        // non-uniform traffic is outside the model on every topology
        let hot = TrafficPattern::HotSpot { node: 0, fraction: 0.2 };
        assert_eq!(Scenario::torus(8).with_pattern(hot).model_params(0.004), Ok(None));
    }

    #[test]
    fn replication_knobs_default_to_one_replicate_off_seed_zero() {
        let s = Scenario::star(5);
        assert_eq!(s.replicates, 1);
        assert_eq!(s.seed_base, 0);
        let r = s.clone().with_replicates(8).with_seed_base(0xC0FFEE);
        assert_eq!(r.replicates, 8);
        assert_eq!(r.seed_base, 0xC0FFEE);
        // replication shows in the label only when it fans out
        assert_eq!(s.label(), "S5/enhanced-nbc/V6/M32");
        assert_eq!(r.label(), "S5/enhanced-nbc/V6/M32/R8");
        // every family constructor inherits the same defaults
        assert_eq!(Scenario::hypercube(6).replicates, 1);
        assert_eq!(Scenario::torus(6).replicates, 1);
    }

    #[test]
    #[should_panic(expected = "at least one replicate")]
    fn zero_replicates_rejected() {
        let _ = Scenario::star(5).with_replicates(0);
    }

    #[test]
    fn discipline_names_round_trip() {
        for d in Discipline::ALL {
            assert_eq!(Discipline::parse(d.name()), Some(d));
        }
        assert_eq!(Discipline::parse("xy"), None);
    }

    #[test]
    fn every_discipline_builds_routing_on_every_family() {
        for scenario in
            [Scenario::star(4), Scenario::hypercube(4), Scenario::torus(4), Scenario::ring(8)]
        {
            for d in Discipline::ALL {
                let routing = scenario.clone().with_discipline(d).routing();
                assert_eq!(routing.virtual_channels(), 6);
            }
        }
    }

    #[test]
    fn debug_and_equality_see_through_the_topology_arc() {
        let a = Scenario::torus(8);
        let b = Scenario::torus(8);
        let c = Scenario::torus(10);
        assert_eq!(a, b, "equal experiments compare equal across distinct Arcs");
        assert_ne!(a, c);
        assert_ne!(a, a.clone().with_virtual_channels(9));
        let debug = format!("{a:?}");
        assert!(debug.contains("\"T8\""), "debug prints the topology name: {debug}");
    }

    #[test]
    fn sweep_produces_one_point_per_rate_in_order() {
        let s = Scenario::star(5);
        let points = s.sweep(&[0.001, 0.002, 0.003]);
        assert_eq!(points.len(), 3);
        assert!(points.windows(2).all(|w| w[0].traffic_rate < w[1].traffic_rate));
        assert!(points.iter().all(|p| p.scenario == s));
    }
}
