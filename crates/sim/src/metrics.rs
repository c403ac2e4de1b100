//! Simulation output: the measured quantities the paper's Section 5 defines,
//! for one run ([`SimReport`]) and across independently seeded replications
//! of the same run ([`ReplicateReport`]).
//!
//! The split of responsibilities with [`crate::sim`]: the driver owns the
//! cycle loop (warm-up, saturation and deadlock detection), this module owns
//! turning accumulated measurements into reports —
//! [`MeasurementAccumulator::into_report`] finalises one run, and
//! [`ReplicateReport::from_runs`] folds R runs into across-replicate means
//! with Student-t 95% confidence intervals.

use serde::{Deserialize, Serialize};
use star_queueing::{ReplicateStats, RunningStats};

use crate::config::SimConfig;

/// Per-stage skip counters: how many *active* cycles found a given pipeline
/// stage with an empty work set (and so skipped it).
///
/// Cycles where *every* stage is empty (a fully idle network) count nothing,
/// so the counters do not depend on how much idle time the driver
/// fast-forwards over.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageSkips {
    /// Active cycles with no source arrival due (`generate_messages` empty).
    pub generation: u64,
    /// Active cycles with every source queue empty (`fill_injection_slots`
    /// empty).
    pub injection: u64,
    /// Active cycles with no unrouted header pending (`route_and_allocate`
    /// empty).
    pub routing: u64,
    /// Active cycles with no owned output VC anywhere (`switch_and_transfer`
    /// empty).
    pub switching: u64,
    /// Active cycles with no staged arrival or credit (`apply_staged` empty).
    pub staged: u64,
}

impl StageSkips {
    /// Total stage skips across all five stages.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.generation + self.injection + self.routing + self.switching + self.staged
    }
}

/// Aggregate counters maintained by the network while it runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetworkCounters {
    /// Messages generated so far.
    pub generated: u64,
    /// Flit transfers on network channels so far.
    pub flit_transfers: u64,
    /// Header allocation attempts that found no free admissible channel.
    pub blocked_header_cycles: u64,
    /// Header allocation attempts in total.
    pub header_allocation_attempts: u64,
    /// Sum of busy-VC counts over sampled physical channels.
    pub busy_vc_sum: u64,
    /// Sum of squared busy-VC counts over sampled physical channels.
    pub busy_vc_sq_sum: u64,
    /// Number of (channel, sample) observations taken.
    pub busy_vc_samples: u64,
    /// Cycle at which the last flit transfer happened (deadlock watchdog).
    pub last_transfer_cycle: u64,
    /// Cycles in which at least one pipeline stage had work.
    pub active_cycles: u64,
    /// Per-stage skip counts over the active cycles.
    pub stage_skips: StageSkips,
}

impl NetworkCounters {
    /// Folds one cycle's stage-activity facts into `active_cycles` and
    /// `stage_skips`.  Each flag says whether the stage had any work when it
    /// started; a cycle with no work anywhere is idle and counts nothing.
    pub fn record_stage_activity(
        &mut self,
        generation: bool,
        injection: bool,
        routing: bool,
        switching: bool,
        staged: bool,
    ) {
        if !(generation || injection || routing || switching || staged) {
            return;
        }
        self.active_cycles += 1;
        self.stage_skips.generation += u64::from(!generation);
        self.stage_skips.injection += u64::from(!injection);
        self.stage_skips.routing += u64::from(!routing);
        self.stage_skips.switching += u64::from(!switching);
        self.stage_skips.staged += u64::from(!staged);
    }
}

/// Result of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Topology name (e.g. `"S5"`).
    pub topology: String,
    /// Routing algorithm name.
    pub routing: String,
    /// Offered traffic rate `λ_g` (messages/node/cycle).
    pub offered_rate: f64,
    /// Message length in flits.
    pub message_length: usize,
    /// Virtual channels per physical channel.
    pub virtual_channels: usize,
    /// Whether the run was declared saturated (queues grew beyond the limit or
    /// the cycle budget was exhausted before enough messages were measured).
    pub saturated: bool,
    /// Whether the deadlock watchdog fired (must never happen for the
    /// deadlock-free algorithms in this workspace).
    pub deadlock_detected: bool,
    /// Cycles simulated.
    pub cycles: u64,
    /// Measured messages delivered.
    pub measured_messages: u64,
    /// Mean message latency (generation → last flit consumed), in cycles.
    pub mean_message_latency: f64,
    /// 95% confidence half-width of the mean message latency.
    pub latency_ci95: f64,
    /// Mean network latency (injection → last flit consumed), in cycles.
    pub mean_network_latency: f64,
    /// Mean time spent waiting in the source queue, in cycles.
    pub mean_source_queueing: f64,
    /// Mean hops taken by measured messages.
    pub mean_hops: f64,
    /// Accepted traffic (measured messages delivered per node per cycle).
    pub accepted_rate: f64,
    /// Mean utilisation of the network channels (flit transfers per channel
    /// per cycle over the whole run).
    pub channel_utilization: f64,
    /// Total flit transfers on network channels over the whole run — the raw
    /// count behind [`Self::channel_utilization`], kept as its own field so
    /// throughput benchmarks can report flits/sec and golden reports can pin
    /// runs flit for flit.
    pub flit_transfers: u64,
    /// Observed average degree of virtual-channel multiplexing
    /// (`Σ v² / Σ v` over sampled busy-VC counts).
    pub observed_multiplexing: f64,
    /// Fraction of header allocation attempts that found every admissible
    /// virtual channel busy.
    pub blocking_probability: f64,
    /// Cycles in which at least one pipeline stage had work.  Fully idle
    /// cycles (which the driver fast-forwards over) are excluded.
    pub active_cycles: u64,
    /// Per-stage skip counts over the active cycles: how often each pipeline
    /// stage started with an empty work set.  `active_cycles − skips[stage]`
    /// is the number of cycles the stage actually ran — the per-stage cost
    /// breakdown the benchmark's traced `star-sim.stage_runs.*` layers
    /// report.
    pub stage_skips: StageSkips,
}

impl SimReport {
    /// A CSV header matching [`Self::to_csv_row`].
    #[must_use]
    pub fn csv_header() -> String {
        "topology,routing,offered_rate,message_length,virtual_channels,saturated,cycles,\
         measured_messages,mean_message_latency,latency_ci95,mean_network_latency,\
         mean_source_queueing,mean_hops,accepted_rate,channel_utilization,\
         observed_multiplexing,blocking_probability"
            .to_string()
    }

    /// The report as one CSV row.
    #[must_use]
    pub fn to_csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.6},{:.4},{:.4},{:.6}",
            self.topology,
            self.routing,
            self.offered_rate,
            self.message_length,
            self.virtual_channels,
            self.saturated,
            self.cycles,
            self.measured_messages,
            self.mean_message_latency,
            self.latency_ci95,
            self.mean_network_latency,
            self.mean_source_queueing,
            self.mean_hops,
            self.accepted_rate,
            self.channel_utilization,
            self.observed_multiplexing,
            self.blocking_probability,
        )
    }
}

/// The identity of the experiment a report describes: what was simulated,
/// independent of how the run went.
#[derive(Debug, Clone)]
pub struct RunIdentity {
    /// Topology name (e.g. `"S5"`).
    pub topology: String,
    /// Routing algorithm name.
    pub routing: String,
    /// Virtual channels per physical channel.
    pub virtual_channels: usize,
    /// Number of nodes.
    pub node_count: usize,
    /// Number of network channels.
    pub channel_count: usize,
}

/// What the simulation driver observed over one run beyond the per-message
/// measurements: termination flags and cycle counts.
#[derive(Debug, Clone, Copy)]
pub struct RunOutcome {
    /// Whether the run was declared saturated.
    pub saturated: bool,
    /// Whether the deadlock watchdog fired.
    pub deadlock_detected: bool,
    /// Total cycles simulated.
    pub cycles: u64,
    /// Cycles inside the measurement window.
    pub measurement_cycles: u64,
    /// Observed average degree of virtual-channel multiplexing.
    pub observed_multiplexing: f64,
}

/// The results of R independently seeded replications of one operating
/// point: the per-replicate reports plus across-replicate means and
/// Student-t 95% confidence intervals of the headline quantities.
///
/// A point is `saturated` as soon as **any** replicate saturates — the
/// conservative rule that keeps the flag deterministic regardless of how the
/// replicates were scheduled — and the statistics then summarise only the
/// replicates that produced a finite measurement (possibly none).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicateReport {
    /// The per-replicate reports, in replicate-index order.
    pub runs: Vec<SimReport>,
    /// Whether any replicate was declared saturated.
    pub saturated: bool,
    /// Whether any replicate tripped the deadlock watchdog.
    pub deadlock_detected: bool,
    /// Across-replicate statistics of the mean message latency.
    pub latency: ReplicateStats,
    /// Across-replicate statistics of the mean network latency.
    pub network_latency: ReplicateStats,
    /// Across-replicate statistics of the accepted traffic rate.
    pub accepted_rate: ReplicateStats,
}

impl ReplicateReport {
    /// Folds per-replicate reports (in replicate-index order) into the
    /// across-replicate summary.  The fold is a pure function of the input
    /// order, so any scheduler that reassembles replicates by index gets
    /// byte-identical output.
    ///
    /// # Panics
    /// Panics when `runs` is empty: a point was evaluated, so at least one
    /// replicate must exist.
    #[must_use]
    pub fn from_runs(runs: Vec<SimReport>) -> Self {
        assert!(!runs.is_empty(), "a replicate report needs at least one run");
        let saturated = runs.iter().any(|r| r.saturated);
        let deadlock_detected = runs.iter().any(|r| r.deadlock_detected);
        // deadlocked runs also only have a truncated measurement window, so
        // their latencies are as unrepresentative as a saturated run's
        let finite = |f: fn(&SimReport) -> f64| -> Vec<f64> {
            runs.iter()
                .filter(|r| !r.saturated && !r.deadlock_detected)
                .map(f)
                .filter(|v| v.is_finite())
                .collect()
        };
        let latency = ReplicateStats::from_samples(&finite(|r| r.mean_message_latency));
        let network_latency = ReplicateStats::from_samples(&finite(|r| r.mean_network_latency));
        let accepted_rate = ReplicateStats::from_samples(&finite(|r| r.accepted_rate));
        Self { runs, saturated, deadlock_detected, latency, network_latency, accepted_rate }
    }

    /// Number of replicates the report aggregates.
    #[must_use]
    pub fn replicates(&self) -> usize {
        self.runs.len()
    }

    /// The first replicate's report (the canonical representative for
    /// quantities that do not vary across replicates, e.g. the topology
    /// name or the offered rate).
    #[must_use]
    pub fn first(&self) -> &SimReport {
        &self.runs[0]
    }

    /// Across-replicate mean message latency (0 when every replicate
    /// saturated; check [`Self::saturated`] first).
    #[must_use]
    pub fn mean_message_latency(&self) -> f64 {
        self.latency.mean
    }
}

/// Accumulates per-message observations during the measurement window.
#[derive(Debug, Clone, Default)]
pub struct MeasurementAccumulator {
    /// Total latency statistics.
    pub total_latency: RunningStats,
    /// Network latency statistics.
    pub network_latency: RunningStats,
    /// Source queueing statistics.
    pub source_queueing: RunningStats,
    /// Hop count statistics.
    pub hops: RunningStats,
}

impl MeasurementAccumulator {
    /// Records a delivered, measured message.
    pub fn record(&mut self, message: &crate::message::Message) {
        if let Some(l) = message.total_latency() {
            self.total_latency.push(l as f64);
        }
        if let Some(l) = message.network_latency() {
            self.network_latency.push(l as f64);
        }
        if let Some(q) = message.source_queueing() {
            self.source_queueing.push(q as f64);
        }
        self.hops.push(message.routing.hops_taken as f64);
    }

    /// Number of messages recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total_latency.count()
    }

    /// Finalises one run: derives the rate/utilisation quantities from the
    /// raw counters and packages everything as a [`SimReport`].  This is the
    /// metrics half of the per-point loop; the cycle-by-cycle half lives in
    /// [`crate::sim::Simulation::run`].
    #[must_use]
    pub fn into_report(
        self,
        identity: &RunIdentity,
        config: &SimConfig,
        counters: &NetworkCounters,
        outcome: RunOutcome,
    ) -> SimReport {
        let blocking_probability = if counters.header_allocation_attempts == 0 {
            0.0
        } else {
            counters.blocked_header_cycles as f64 / counters.header_allocation_attempts as f64
        };
        let channel_utilization = if outcome.cycles == 0 {
            0.0
        } else {
            counters.flit_transfers as f64 / (outcome.cycles as f64 * identity.channel_count as f64)
        };
        let accepted_rate = if outcome.measurement_cycles == 0 {
            0.0
        } else {
            self.count() as f64 / (outcome.measurement_cycles as f64 * identity.node_count as f64)
        };
        SimReport {
            topology: identity.topology.clone(),
            routing: identity.routing.clone(),
            offered_rate: config.traffic_rate,
            message_length: config.message_length,
            virtual_channels: identity.virtual_channels,
            saturated: outcome.saturated,
            deadlock_detected: outcome.deadlock_detected,
            cycles: outcome.cycles,
            measured_messages: self.count(),
            mean_message_latency: self.total_latency.mean(),
            latency_ci95: self.total_latency.confidence_95(),
            mean_network_latency: self.network_latency.mean(),
            mean_source_queueing: self.source_queueing.mean(),
            mean_hops: self.hops.mean(),
            accepted_rate,
            channel_utilization,
            flit_transfers: counters.flit_transfers,
            observed_multiplexing: outcome.observed_multiplexing,
            blocking_probability,
            active_cycles: counters.active_cycles,
            stage_skips: counters.stage_skips,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;

    #[test]
    fn accumulator_records_all_quantities() {
        let mut acc = MeasurementAccumulator::default();
        let mut m = Message::new(0, 0, 3, 16, 100, true);
        m.injected_at = Some(105);
        m.delivered_at = Some(140);
        m.routing.hops_taken = 3;
        acc.record(&m);
        assert_eq!(acc.count(), 1);
        assert_eq!(acc.total_latency.mean(), 40.0);
        assert_eq!(acc.network_latency.mean(), 35.0);
        assert_eq!(acc.source_queueing.mean(), 5.0);
        assert_eq!(acc.hops.mean(), 3.0);
    }

    #[test]
    fn csv_row_has_same_field_count_as_header() {
        let report = SimReport {
            topology: "S5".into(),
            routing: "Enhanced-Nbc".into(),
            offered_rate: 0.004,
            message_length: 32,
            virtual_channels: 6,
            saturated: false,
            deadlock_detected: false,
            cycles: 100_000,
            measured_messages: 20_000,
            mean_message_latency: 75.0,
            latency_ci95: 1.5,
            mean_network_latency: 70.0,
            mean_source_queueing: 5.0,
            mean_hops: 3.7,
            accepted_rate: 0.004,
            channel_utilization: 0.3,
            flit_transfers: 1_000_000,
            observed_multiplexing: 1.8,
            blocking_probability: 0.05,
            active_cycles: 90_000,
            stage_skips: StageSkips::default(),
        };
        let header_fields = SimReport::csv_header().split(',').count();
        let row_fields = report.to_csv_row().split(',').count();
        assert_eq!(header_fields, row_fields);
    }
}
