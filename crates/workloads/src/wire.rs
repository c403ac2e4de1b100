//! Scenario ↔ wire-format conversion for the serving daemon.
//!
//! `star-serve` answers line-delimited JSON queries over TCP; this module is
//! the shared vocabulary between that daemon, its load generator and any
//! other remote caller: a [`WireScenario`] is the subset of a [`Scenario`]
//! that can be spelled in a query — one of the four *named* topology families
//! at a given size, a discipline, `V` and `M`, under uniform traffic — plus
//! the canonical JSON encoding of a [`PointEstimate`] answer.
//!
//! Two properties matter here:
//!
//! * **Identity.** [`WireScenario::fingerprint`] folds exactly the fields
//!   that determine a model answer into a [`RunFingerprint`], so the
//!   daemon's caches key on configuration identity — the same scheme (and
//!   the same hex spelling) that stamps shard partial headers.
//! * **Byte stability.** [`encode_estimate`] emits the result payload with a
//!   fixed field order and Rust's shortest round-trip float formatting, so
//!   "the daemon answers byte-identically to the batch backend" is a
//!   testable contract on strings, not a numerical hand-wave.
//!
//! Scenarios outside the wire vocabulary (plugged-in topologies with no
//! family name, non-uniform traffic) are not a protocol error but an
//! [`WireError::Unencodable`] one: batch evaluation still covers them, they
//! just cannot be requested remotely.

use std::fmt;

use serde_json::Value;
use star_core::SaturationSearch;
use star_exec::RunFingerprint;
use star_graph::{Hypercube, StarGraph};

use crate::evaluator::PointEstimate;
use crate::scenario::{Discipline, Scenario, TopologyKind};

/// Why a wire query (or a scenario headed for the wire) was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// A required field is absent from the query object.
    MissingField(&'static str),
    /// A field is present but has the wrong JSON shape.
    BadField {
        /// The offending field name.
        field: &'static str,
        /// What the protocol expects there.
        expected: &'static str,
    },
    /// The `topology` name is not one of the four named families.
    UnknownTopology(String),
    /// The `discipline` name is not a known routing discipline.
    UnknownDiscipline(String),
    /// The size is outside the family's constructible range.
    SizeOutOfRange {
        /// The requested family.
        kind: TopologyKind,
        /// The rejected size.
        size: u64,
    },
    /// The scenario cannot be spelled on the wire at all (custom topology,
    /// non-uniform traffic).
    Unencodable(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::MissingField(field) => write!(f, "missing field `{field}`"),
            Self::BadField { field, expected } => {
                write!(f, "field `{field}` must be {expected}")
            }
            Self::UnknownTopology(name) => {
                write!(f, "unknown topology `{name}` (star|hypercube|torus|ring)")
            }
            Self::UnknownDiscipline(name) => {
                write!(f, "unknown discipline `{name}` (enhanced-nbc|nbc|nhop|deterministic)")
            }
            Self::SizeOutOfRange { kind, size } => {
                write!(f, "size {size} out of range for the {} family", kind.name())
            }
            Self::Unencodable(what) => write!(f, "not expressible on the wire: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// The wire spelling of a scenario: one of the four named topology families
/// with the model-relevant knobs.  Replication fields (`replicates`,
/// `seed_base`) are deliberately absent — the wire serves the deterministic
/// analytical model, whose answer they do not affect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WireScenario {
    /// Topology family.
    pub kind: TopologyKind,
    /// Family size parameter (`n` for `S_n`, `d` for `Q_d`, `k` otherwise).
    pub size: usize,
    /// Routing discipline.
    pub discipline: Discipline,
    /// Virtual channels per physical channel.
    pub virtual_channels: usize,
    /// Message length in flits.
    pub message_length: usize,
}

/// Largest torus side the wire accepts: a `T64` distance census builds in
/// tens of milliseconds, and the cost grows about `k⁴`.
const MAX_WIRE_TORUS_SIDE: u64 = 64;

/// Largest ring the wire accepts: an `R1024` census costs about what a
/// `T64` one does, and the cost grows about `k²`.
const MAX_WIRE_RING_SIZE: u64 = 1_024;

/// Whether a family can construct the size at all (the topology
/// constructors `panic!` out of range, which a daemon must never do on
/// behalf of a remote caller), and cheaply enough that one query cannot
/// stall the daemon on a census build: tori and rings are capped well
/// below what their constructors accept.
fn size_in_range(kind: TopologyKind, size: u64) -> bool {
    let even = size % 2 == 0;
    match kind {
        TopologyKind::Star => (2..=StarGraph::MAX_TABLED_SYMBOLS as u64).contains(&size),
        TopologyKind::Hypercube => (1..=Hypercube::MAX_DIMS as u64).contains(&size),
        TopologyKind::Torus => even && (4..=MAX_WIRE_TORUS_SIDE).contains(&size),
        TopologyKind::Ring => even && (4..=MAX_WIRE_RING_SIZE).contains(&size),
    }
}

impl WireScenario {
    /// A range-checked constructor: the same validation [`Self::from_value`]
    /// applies to remote queries, for callers assembling wire scenarios
    /// programmatically (the daemon's `--prewarm` list parser).
    ///
    /// # Errors
    /// [`WireError::SizeOutOfRange`] outside the family's constructible
    /// range, [`WireError::BadField`] for zero `vc` or `m`.
    pub fn checked(
        kind: TopologyKind,
        size: usize,
        discipline: Discipline,
        virtual_channels: usize,
        message_length: usize,
    ) -> Result<Self, WireError> {
        if !size_in_range(kind, size as u64) {
            return Err(WireError::SizeOutOfRange { kind, size: size as u64 });
        }
        if virtual_channels == 0 {
            return Err(WireError::BadField { field: "vc", expected: "a positive integer" });
        }
        if message_length == 0 {
            return Err(WireError::BadField { field: "m", expected: "a positive integer" });
        }
        Ok(Self { kind, size, discipline, virtual_channels, message_length })
    }

    /// Decodes the scenario fields of a query object: `topology` (required),
    /// `size` (defaults to the family's conventional size), `discipline`
    /// (defaults to `enhanced-nbc`), `vc` (defaults to 6) and `m` (defaults
    /// to 32).
    ///
    /// # Errors
    /// Any missing/misshapen field, unknown name, or out-of-range size is a
    /// [`WireError`] — never a panic, whatever the remote caller sent.
    pub fn from_value(value: &Value) -> Result<Self, WireError> {
        let topology = value
            .get("topology")
            .ok_or(WireError::MissingField("topology"))?
            .as_str()
            .ok_or(WireError::BadField { field: "topology", expected: "a string" })?;
        let kind = TopologyKind::parse(topology)
            .ok_or_else(|| WireError::UnknownTopology(topology.to_string()))?;
        let size = match value.get("size") {
            None => kind.default_size() as u64,
            Some(v) => v
                .as_u64()
                .ok_or(WireError::BadField { field: "size", expected: "a non-negative integer" })?,
        };
        if !size_in_range(kind, size) {
            return Err(WireError::SizeOutOfRange { kind, size });
        }
        let discipline = match value.get("discipline") {
            None => Discipline::EnhancedNbc,
            Some(v) => {
                let name = v
                    .as_str()
                    .ok_or(WireError::BadField { field: "discipline", expected: "a string" })?;
                Discipline::parse(name)
                    .ok_or_else(|| WireError::UnknownDiscipline(name.to_string()))?
            }
        };
        let positive = |field: &'static str, default: u64| -> Result<u64, WireError> {
            match value.get(field) {
                None => Ok(default),
                Some(v) => match v.as_u64() {
                    Some(n) if n >= 1 => Ok(n),
                    _ => Err(WireError::BadField { field, expected: "a positive integer" }),
                },
            }
        };
        Ok(Self {
            kind,
            size: size as usize,
            discipline,
            virtual_channels: positive("vc", 6)? as usize,
            message_length: positive("m", 32)? as usize,
        })
    }

    /// The wire spelling of a batch scenario.
    ///
    /// # Errors
    /// [`WireError::Unencodable`] for scenarios outside the wire vocabulary:
    /// non-uniform traffic, or a plugged-in topology whose name is not one
    /// of the four family spellings (`S<n>`, `Q<d>`, `T<k>`, `R<k>`).
    pub fn from_scenario(scenario: &Scenario) -> Result<Self, WireError> {
        if scenario.pattern != star_sim::TrafficPattern::Uniform {
            return Err(WireError::Unencodable(format!(
                "traffic pattern {:?} (the wire serves uniform traffic only)",
                scenario.pattern
            )));
        }
        let label = scenario.network_label();
        let kind = match label.chars().next() {
            Some('S') => TopologyKind::Star,
            Some('Q') => TopologyKind::Hypercube,
            Some('T') => TopologyKind::Torus,
            Some('R') => TopologyKind::Ring,
            _ => return Err(WireError::Unencodable(format!("topology `{label}`"))),
        };
        let size: usize = match label[1..].parse() {
            Ok(n) if kind.label(n) == label => n,
            _ => return Err(WireError::Unencodable(format!("topology `{label}`"))),
        };
        Ok(Self {
            kind,
            size,
            discipline: scenario.discipline,
            virtual_channels: scenario.virtual_channels,
            message_length: scenario.message_length,
        })
    }

    /// The conventional network name (`"S5"`, `"Q7"`, …).
    #[must_use]
    pub fn network_label(&self) -> String {
        self.kind.label(self.size)
    }

    /// Rebuilds the batch scenario, constructing a fresh topology (with a
    /// spectrum of its own, built on first use).
    ///
    /// # Panics
    /// Never for values built by the checked constructors above — the size
    /// was validated against the family's constructible range.
    #[must_use]
    pub fn scenario(&self) -> Scenario {
        self.scenario_on(&Scenario::on(self.kind.topology(self.size)))
    }

    /// Rebuilds the batch scenario as a variant of `base`, a scenario on the
    /// same network — the hook the daemon's configuration cache derives
    /// through, so a thousand queries against `S7` share one neighbour table
    /// and one spectrum build.  Only the topology and spectrum come from
    /// `base`; every other field is this wire scenario's (uniform traffic,
    /// one replicate off seed base 0, as [`Self::scenario`] builds).
    ///
    /// # Panics
    /// Panics if `base` is not on this wire scenario's network (compared by
    /// name).
    #[must_use]
    pub fn scenario_on(&self, base: &Scenario) -> Scenario {
        assert_eq!(
            base.network_label(),
            self.network_label(),
            "base scenario is not on the wire scenario's network"
        );
        base.clone()
            .with_pattern(star_sim::TrafficPattern::Uniform)
            .with_replicates(1)
            .with_seed_base(0)
            .with_discipline(self.discipline)
            .with_virtual_channels(self.virtual_channels)
            .with_message_length(self.message_length)
    }

    /// The configuration identity of this wire scenario: a fingerprint over
    /// exactly the fields that determine a model answer, under a versioned
    /// domain tag.  This is what the daemon's caches key on, spelled with
    /// the same [`RunFingerprint`] hex used in shard partial headers.
    #[must_use]
    pub fn fingerprint(&self) -> RunFingerprint {
        let mut fp = RunFingerprint::new();
        fp.add_str("wire/v1");
        fp.add_str(&self.network_label());
        fp.add_str(self.discipline.name());
        fp.add_u64(self.virtual_channels as u64);
        fp.add_u64(self.message_length as u64);
        fp
    }

    /// The scenario fields as a JSON object fragment, in canonical order —
    /// what the load generator splices into its query lines.
    #[must_use]
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("topology".to_string(), Value::from(self.kind.name())),
            ("size".to_string(), Value::from(self.size)),
            ("discipline".to_string(), Value::from(self.discipline.name())),
            ("vc".to_string(), Value::from(self.virtual_channels)),
            ("m".to_string(), Value::from(self.message_length)),
        ])
    }
}

/// The configuration identity of a batch scenario — shorthand for
/// [`WireScenario::from_scenario`] + [`WireScenario::fingerprint`].
///
/// # Errors
/// As [`WireScenario::from_scenario`].
pub fn scenario_fingerprint(scenario: &Scenario) -> Result<RunFingerprint, WireError> {
    Ok(WireScenario::from_scenario(scenario)?.fingerprint())
}

/// The pinned serving configuration pool: all four families, three
/// disciplines, everything inside the analytical model's validated ranges.
/// Order matters — the `star-load` generator draws earlier entries more
/// often, and the daemon's `--prewarm pool` list solves exactly these
/// configurations before opening its listener.
#[must_use]
pub fn default_config_pool() -> Vec<WireScenario> {
    let wire = |kind, size, discipline| WireScenario {
        kind,
        size,
        discipline,
        virtual_channels: 6,
        message_length: 32,
    };
    vec![
        wire(TopologyKind::Star, 5, Discipline::EnhancedNbc),
        wire(TopologyKind::Star, 6, Discipline::EnhancedNbc),
        wire(TopologyKind::Hypercube, 7, Discipline::EnhancedNbc),
        wire(TopologyKind::Hypercube, 5, Discipline::Nbc),
        wire(TopologyKind::Torus, 8, Discipline::Deterministic),
        wire(TopologyKind::Ring, 8, Discipline::NHop),
    ]
}

/// The model-predicted saturation rate of a scenario, on any topology —
/// the bisection the model-only harness binaries and the serving layer use
/// to pick rate grids that cover the whole latency curve up to the knee.
///
/// # Panics
/// As [`model_saturation_search`].
#[must_use]
pub fn model_saturation_rate(scenario: &Scenario, tolerance: f64) -> f64 {
    model_saturation_search(scenario, tolerance).rate
}

/// [`model_saturation_rate`]'s bisection with its account: the probes it
/// ran, their step evaluations, and how each was decided.
///
/// # Panics
/// Panics if the analytical model does not cover the scenario, or if the
/// scenario's parameters are out of the model's range (the panic message
/// carries the underlying config error, e.g. too few virtual channels for
/// the topology's escape-level minimum).
#[must_use]
pub fn model_saturation_search(scenario: &Scenario, tolerance: f64) -> SaturationSearch {
    let params: star_core::ModelParams = match scenario.model_params(0.0) {
        Ok(Some(params)) => params,
        Err(e) => panic!("invalid model scenario {}: {e}", scenario.label()),
        Ok(None) => {
            panic!("the analytical model does not cover scenario {}", scenario.label())
        }
    };
    star_core::saturation_search(params, scenario.spectrum(), tolerance)
}

/// The saturation-scaled serving rate grid of a scenario: `steps` rates
/// placed between 20% and 85% of the model-predicted saturation rate.  This
/// is the grid `star-load` draws its queries from *and* the grid the
/// daemon's prewarmer solves — the two must agree to the bit for prewarmed
/// entries to answer load-generator traffic verbatim, which is why the
/// formula lives here once.
///
/// # Panics
/// As [`model_saturation_rate`] — callers must validate
/// [`Scenario::model_params`] first when the scenario came from outside.
#[must_use]
pub fn load_rate_grid(scenario: &Scenario, steps: usize) -> Vec<f64> {
    let saturation = model_saturation_rate(scenario, 1e-5);
    let steps = steps.max(1);
    (0..steps)
        .map(|i| {
            let t = i as f64 / steps as f64;
            saturation * (0.20 + 0.65 * t)
        })
        .collect()
}

/// Encodes a model answer as the canonical wire payload:
/// `{"latency":…,"saturated":…,"iterations":…,"converged":…}` with
/// `latency` null beyond saturation or when the fixed point did not
/// converge, and `iterations`/`converged` null for non-model backends.  Field order is
/// fixed and floats use Rust's shortest round-trip formatting, so two
/// estimates are byte-equal here exactly when their headline numbers are
/// bit-equal — the string the daemon's byte-identity contract is stated on.
#[must_use]
pub fn encode_estimate(estimate: &PointEstimate) -> String {
    let latency = estimate.latency().map_or(Value::Null, Value::from);
    let iterations = estimate.iterations().map_or(Value::Null, Value::from);
    let converged = estimate.converged().map_or(Value::Null, Value::from);
    Value::Object(vec![
        ("latency".to_string(), latency),
        ("saturated".to_string(), Value::from(estimate.saturated)),
        ("iterations".to_string(), iterations),
        ("converged".to_string(), converged),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::evaluator::{Evaluator, ModelBackend, ScenarioSpectrum};

    fn decode(json: &str) -> Result<WireScenario, WireError> {
        WireScenario::from_value(&serde_json::from_str(json).unwrap())
    }

    #[test]
    fn decodes_full_and_defaulted_queries() {
        let full =
            decode(r#"{"topology":"star","size":5,"discipline":"enhanced-nbc","vc":6,"m":32}"#)
                .unwrap();
        assert_eq!(full.network_label(), "S5");
        assert_eq!(full.scenario().label(), "S5/enhanced-nbc/V6/M32");
        // omitted knobs take the paper's defaults, size the family's
        let bare = decode(r#"{"topology":"torus"}"#).unwrap();
        assert_eq!(bare.network_label(), "T8");
        assert_eq!(bare.virtual_channels, 6);
        assert_eq!(bare.message_length, 32);
        assert_eq!(bare.discipline, Discipline::EnhancedNbc);
    }

    #[test]
    fn rejects_malformed_queries_without_panicking() {
        assert_eq!(decode(r#"{}"#), Err(WireError::MissingField("topology")));
        assert_eq!(
            decode(r#"{"topology":7}"#),
            Err(WireError::BadField { field: "topology", expected: "a string" })
        );
        assert_eq!(
            decode(r#"{"topology":"mesh"}"#),
            Err(WireError::UnknownTopology("mesh".to_string()))
        );
        assert_eq!(
            decode(r#"{"topology":"star","discipline":"xy"}"#),
            Err(WireError::UnknownDiscipline("xy".to_string()))
        );
        assert_eq!(
            decode(r#"{"topology":"star","size":-3}"#),
            Err(WireError::BadField { field: "size", expected: "a non-negative integer" })
        );
        assert_eq!(
            decode(r#"{"topology":"star","vc":0}"#),
            Err(WireError::BadField { field: "vc", expected: "a positive integer" })
        );
        // constructor panics become protocol errors
        assert_eq!(
            decode(r#"{"topology":"star","size":40}"#),
            Err(WireError::SizeOutOfRange { kind: TopologyKind::Star, size: 40 })
        );
        assert_eq!(
            decode(r#"{"topology":"ring","size":7}"#),
            Err(WireError::SizeOutOfRange { kind: TopologyKind::Ring, size: 7 })
        );
        // tori and rings stop where one census build would stall the daemon
        for (topology, size, kind) in [
            ("ring", 1_000_000_000, TopologyKind::Ring),
            ("ring", 1_026, TopologyKind::Ring),
            ("torus", 66, TopologyKind::Torus),
        ] {
            assert_eq!(
                decode(&format!(r#"{{"topology":"{topology}","size":{size}}}"#)),
                Err(WireError::SizeOutOfRange { kind, size })
            );
        }
        assert_eq!(decode(r#"{"topology":"torus","size":64}"#).map(|w| w.size), Ok(64));
        assert_eq!(decode(r#"{"topology":"ring","size":1024}"#).map(|w| w.size), Ok(1_024));
        // every error renders a human-readable message
        for e in [
            decode(r#"{}"#).unwrap_err(),
            decode(r#"{"topology":"mesh"}"#).unwrap_err(),
            decode(r#"{"topology":"ring","size":7}"#).unwrap_err(),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn round_trips_through_scenarios_and_values() {
        for kind in TopologyKind::ALL {
            let wire = WireScenario {
                kind,
                size: kind.default_size(),
                discipline: Discipline::Nbc,
                virtual_channels: 7,
                message_length: 16,
            };
            assert_eq!(WireScenario::from_scenario(&wire.scenario()), Ok(wire));
            assert_eq!(WireScenario::from_value(&wire.to_value()), Ok(wire));
        }
    }

    #[test]
    fn rejects_unencodable_scenarios() {
        let hot = star_sim::TrafficPattern::HotSpot { node: 0, fraction: 0.2 };
        assert!(matches!(
            WireScenario::from_scenario(&Scenario::star(5).with_pattern(hot)),
            Err(WireError::Unencodable(_))
        ));
        assert!(scenario_fingerprint(&Scenario::star(5)).is_ok());
    }

    #[test]
    fn checked_constructor_applies_the_wire_validation() {
        let ok = WireScenario::checked(TopologyKind::Star, 5, Discipline::Nbc, 6, 32).unwrap();
        assert_eq!(ok.network_label(), "S5");
        assert_eq!(
            WireScenario::checked(TopologyKind::Star, 40, Discipline::Nbc, 6, 32),
            Err(WireError::SizeOutOfRange { kind: TopologyKind::Star, size: 40 })
        );
        assert_eq!(
            WireScenario::checked(TopologyKind::Torus, 66, Discipline::Nbc, 6, 32),
            Err(WireError::SizeOutOfRange { kind: TopologyKind::Torus, size: 66 })
        );
        assert_eq!(
            WireScenario::checked(TopologyKind::Ring, 1_026, Discipline::Nbc, 6, 32),
            Err(WireError::SizeOutOfRange { kind: TopologyKind::Ring, size: 1_026 })
        );
        assert_eq!(
            WireScenario::checked(TopologyKind::Ring, 8, Discipline::NHop, 0, 32),
            Err(WireError::BadField { field: "vc", expected: "a positive integer" })
        );
        assert_eq!(
            WireScenario::checked(TopologyKind::Ring, 8, Discipline::NHop, 6, 0),
            Err(WireError::BadField { field: "m", expected: "a positive integer" })
        );
    }

    #[test]
    fn pool_configs_are_modelled_and_grids_cover_the_curve_below_the_knee() {
        let pool = default_config_pool();
        assert!(pool.len() >= 4, "the pool spans the families");
        for wire in &pool {
            let scenario = wire.scenario();
            assert!(matches!(scenario.model_params(0.001), Ok(Some(_))), "{}", scenario.label());
            let grid = load_rate_grid(&scenario, 5);
            assert_eq!(grid.len(), 5);
            let saturation = model_saturation_rate(&scenario, 1e-5);
            // the search behind the grid accounts for every probe it ran
            let search = model_saturation_search(&scenario, 1e-5);
            assert_eq!(search.rate.to_bits(), saturation.to_bits());
            assert_eq!(search.certified + search.certified_saturated, search.probes);
            assert!(search.iterations >= search.probes && search.fallbacks == 0);
            assert!(grid.windows(2).all(|w| w[0] < w[1]), "grids ascend");
            assert!(grid[0] > 0.0 && grid[4] < saturation, "grid stays below the knee");
            // the grid is a pure function of (scenario, steps): prewarming
            // and load generation land on bit-identical rates
            assert_eq!(grid, load_rate_grid(&scenario, 5));
        }
    }

    #[test]
    fn fingerprint_keys_on_exactly_the_model_relevant_fields() {
        let base = decode(r#"{"topology":"star","size":5}"#).unwrap();
        let same = WireScenario::from_scenario(
            // replication knobs do not move the fingerprint: the model's
            // answer ignores them
            &Scenario::star(5).with_replicates(8).with_seed_base(42),
        )
        .unwrap();
        assert_eq!(base.fingerprint().finish(), same.fingerprint().finish());
        assert_eq!(
            scenario_fingerprint(&Scenario::star(5)).unwrap().to_hex(),
            base.fingerprint().to_hex()
        );
        let mut variants = vec![base.fingerprint().finish()];
        variants.push(decode(r#"{"topology":"star","size":6}"#).unwrap().fingerprint().finish());
        variants
            .push(decode(r#"{"topology":"hypercube","size":5}"#).unwrap().fingerprint().finish());
        variants.push(
            decode(r#"{"topology":"star","size":5,"discipline":"nbc"}"#)
                .unwrap()
                .fingerprint()
                .finish(),
        );
        variants
            .push(decode(r#"{"topology":"star","size":5,"vc":7}"#).unwrap().fingerprint().finish());
        variants
            .push(decode(r#"{"topology":"star","size":5,"m":64}"#).unwrap().fingerprint().finish());
        variants.sort_unstable();
        variants.dedup();
        assert_eq!(variants.len(), 6, "every knob must move the fingerprint");
    }

    #[test]
    fn scenario_on_shares_the_injected_topology_and_checks_it() {
        let wire = decode(r#"{"topology":"torus","size":8,"vc":7}"#).unwrap();
        let base = Scenario::torus(8).with_replicates(3).with_seed_base(9);
        let scenario = wire.scenario_on(&base);
        assert!(Arc::ptr_eq(&base.topology(), &scenario.topology()));
        assert!(Arc::ptr_eq(
            ScenarioSpectrum::build(&base).spectrum(),
            ScenarioSpectrum::build(&scenario).spectrum()
        ));
        // the knobs are the wire scenario's, whatever the base held
        assert_eq!(scenario, wire.scenario());
        let wrong = std::panic::catch_unwind(|| {
            let _ = wire.scenario_on(&Scenario::ring(8));
        });
        assert!(wrong.is_err(), "a mismatched base must be refused");
    }

    #[test]
    fn encoded_estimates_are_canonical_and_byte_stable() {
        let backend = ModelBackend::new();
        let fine = backend.evaluate(&Scenario::star(5).at(0.004));
        let encoded = encode_estimate(&fine);
        assert!(encoded.starts_with("{\"latency\":"));
        assert!(encoded.contains("\"saturated\":false"));
        assert!(encoded.contains("\"iterations\":"));
        assert!(encoded.ends_with(",\"converged\":true}"));
        assert_eq!(encoded, encode_estimate(&backend.evaluate(&Scenario::star(5).at(0.004))));
        // the float in the payload is the exact latency, shortest-form
        let value = serde_json::from_str(&encoded).unwrap();
        assert_eq!(value.get("latency").unwrap().as_f64(), fine.latency());
        // saturated points have a null latency, model points an iteration count
        let sat = backend.evaluate(&Scenario::star(5).at(0.5));
        let encoded = encode_estimate(&sat);
        assert!(encoded.starts_with("{\"latency\":null,\"saturated\":true,"));
        let value = serde_json::from_str(&encoded).unwrap();
        assert!(value.get("latency").unwrap().is_null());
        assert!(value.get("iterations").unwrap().as_u64().is_some());
        // a fixed point that ran out of iterations answers no latency either
        let knee = backend.evaluate(&Scenario::torus(8).at(0.014_881_188_037_297_724));
        let encoded = encode_estimate(&knee);
        assert!(encoded.starts_with("{\"latency\":null,\"saturated\":false,"), "{encoded}");
        assert!(encoded.ends_with(",\"converged\":false}"), "{encoded}");
    }
}
