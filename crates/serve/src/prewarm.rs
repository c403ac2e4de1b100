//! Hot-configuration prewarming: solve the named configurations across the
//! whole load-generator rate grid *before* the listener opens.
//!
//! A freshly started daemon answers its first queries cold; under a known
//! traffic mix (the configurations `star-load` names) that cold ramp is
//! pure waste.  [`prewarm`] resolves each configuration once, solves every
//! rate of [`star_workloads::load_rate_grid`] as one ordered batch on the
//! shared [`star_exec::ExecPool`], and stores the answers — each solved
//! cold on the configuration's prebuilt model through the very
//! [`star_workloads::ModelBackend::estimate_on`] path a live query takes,
//! so prewarmed answers are byte-identical to batch solves.
//!
//! The `--prewarm` flag names configurations in a compact spec parsed by
//! [`parse_prewarm_list`]: the literal `pool` (the
//! [`star_workloads::default_config_pool`] mix `star-load` draws from) or
//! `topology[:size[:discipline[:vc[:m]]]]` items, comma-separated.

use std::collections::HashSet;
use std::io;
use std::sync::Arc;

use star_exec::ExecPool;
use star_workloads::{
    default_config_pool, encode_estimate, load_rate_grid, Discipline, TopologyKind, WireScenario,
};

use crate::cache::ConfigEntry;
use crate::daemon::{solve_cold, ServerState};

/// What [`prewarm`] did, for the daemon's startup report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrewarmReport {
    /// Distinct configurations prewarmed (after fingerprint dedup).
    pub configs: usize,
    /// Answers stored (configurations × grid rates).
    pub solves: usize,
}

/// Parses a `--prewarm` spec: comma-separated items, each the literal
/// `pool` or `topology[:size[:discipline[:vc[:m]]]]` with the wire
/// defaults (the family's conventional size, `enhanced-nbc`, `vc=6`,
/// `m=32`).  Empty items are skipped, so a trailing comma is harmless.
///
/// # Errors
/// A human-readable message for unknown topologies/disciplines, malformed
/// numbers, or knobs outside the wire-validated ranges.
pub fn parse_prewarm_list(spec: &str) -> Result<Vec<WireScenario>, String> {
    let mut out = Vec::new();
    for item in spec.split(',').map(str::trim).filter(|item| !item.is_empty()) {
        if item == "pool" {
            out.extend(default_config_pool());
        } else {
            out.push(parse_item(item)?);
        }
    }
    Ok(out)
}

fn parse_item(item: &str) -> Result<WireScenario, String> {
    let parts: Vec<&str> = item.split(':').collect();
    if parts.len() > 5 {
        return Err(format!("trailing `{}` in prewarm item `{item}`", parts[5]));
    }
    let field = |index: usize| parts.get(index).copied().filter(|part| !part.is_empty());
    let kind = TopologyKind::parse(parts[0])
        .ok_or_else(|| format!("unknown topology `{}` in prewarm item `{item}`", parts[0]))?;
    let number = |name: &str, index: usize, default: usize| -> Result<usize, String> {
        match field(index) {
            None => Ok(default),
            Some(text) => {
                text.parse().map_err(|_| format!("bad {name} `{text}` in prewarm item `{item}`"))
            }
        }
    };
    let size = number("size", 1, kind.default_size())?;
    let discipline = match field(2) {
        None => Discipline::EnhancedNbc,
        Some(name) => Discipline::parse(name)
            .ok_or_else(|| format!("unknown discipline `{name}` in prewarm item `{item}`"))?,
    };
    let vc = number("vc", 3, 6)?;
    let m = number("m", 4, 32)?;
    WireScenario::checked(kind, size, discipline, vc, m).map_err(|e| e.to_string())
}

/// Solves the full rate grid of every named configuration into the solve
/// cache, as one deterministic ordered batch.  Duplicate fingerprints are
/// prewarmed once.
///
/// # Errors
/// [`io::ErrorKind::InvalidInput`] when a configuration's knobs fall
/// outside the analytical model (the same validation a live query gets,
/// surfaced at startup instead of to the first client).
pub fn prewarm(
    state: &ServerState,
    width: usize,
    configs: &[WireScenario],
    rates: usize,
) -> io::Result<PrewarmReport> {
    let mut seen: HashSet<u64> = HashSet::new();
    let mut entries: Vec<Arc<ConfigEntry>> = Vec::new();
    for wire in configs {
        let entry = state.configs.resolve(wire);
        if !seen.insert(entry.fingerprint) {
            continue;
        }
        match entry.scenario.model_params(0.0) {
            Ok(Some(_)) => entries.push(entry),
            Err(e) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("cannot prewarm {}: {e}", entry.scenario.label()),
                ))
            }
            Ok(None) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "cannot prewarm {}: the analytical model does not cover it",
                        entry.scenario.label()
                    ),
                ))
            }
        }
    }
    let jobs: Vec<(Arc<ConfigEntry>, f64)> = entries
        .iter()
        .flat_map(|entry| {
            load_rate_grid(&entry.scenario, rates)
                .into_iter()
                .map(move |rate| (Arc::clone(entry), rate))
        })
        .collect();
    // every prewarm solve is cold — the live query's code path, so the
    // stored bytes equal what a batch solve of the same point encodes
    let estimates = ExecPool::global_ordered(width, &jobs, |_, (entry, rate)| {
        solve_cold(state, &entry.scenario.at(*rate), entry)
    });
    for ((entry, rate), estimate) in jobs.iter().zip(&estimates) {
        state.solves.insert(entry.fingerprint, *rate, encode_estimate(estimate));
    }
    Ok(PrewarmReport { configs: entries.len(), solves: jobs.len() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pool_items_defaults_and_rejects_junk() {
        let list = parse_prewarm_list("pool,").unwrap();
        assert_eq!(list, default_config_pool());
        let one = parse_prewarm_list("star:4:nbc:7:16").unwrap();
        assert_eq!(
            one,
            vec![WireScenario {
                kind: TopologyKind::Star,
                size: 4,
                discipline: Discipline::Nbc,
                virtual_channels: 7,
                message_length: 16,
            }]
        );
        // defaults fill in from the left
        let defaulted = parse_prewarm_list("hypercube").unwrap();
        assert_eq!(defaulted[0].size, TopologyKind::Hypercube.default_size());
        assert_eq!(defaulted[0].discipline, Discipline::EnhancedNbc);
        assert_eq!((defaulted[0].virtual_channels, defaulted[0].message_length), (6, 32));
        assert!(parse_prewarm_list("mesh").is_err());
        assert!(parse_prewarm_list("star:banana").is_err());
        assert!(parse_prewarm_list("star:4:nbc:7:16:extra").is_err());
        assert!(parse_prewarm_list("star:99").is_err(), "wire range validation applies");
    }
}
