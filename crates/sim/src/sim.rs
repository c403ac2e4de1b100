//! The simulation driver: warm-up, steady-state measurement, saturation and
//! deadlock detection.
//!
//! The driver steps an [`EventNetwork`] cycle by cycle, except that when the
//! network reports itself idle it jumps straight to the next scheduled
//! arrival instead of stepping empty cycles one at a time.  That changes
//! nothing observable — idle cycles touch no counter the report reads, and
//! they count towards neither `active_cycles` nor any
//! [`StageSkips`](crate::StageSkips) counter — but skips the work.

use std::sync::Arc;

use star_graph::Topology;
use star_routing::RoutingAlgorithm;

use crate::config::SimConfig;
use crate::event::EventNetwork;
use crate::metrics::{MeasurementAccumulator, RunIdentity, RunOutcome, SimReport};
use crate::traffic::TrafficPattern;

/// Number of cycles with in-flight messages but no flit movement after which
/// the deadlock watchdog fires.  The routing algorithms in this workspace are
/// deadlock-free, so this should never trigger; it guards against simulator
/// bugs rather than protocol bugs.
const DEADLOCK_WATCHDOG_CYCLES: u64 = 50_000;

/// A complete simulation experiment.
pub struct Simulation {
    network: EventNetwork,
    config: SimConfig,
    identity: RunIdentity,
}

impl Simulation {
    /// Builds a simulation for a topology, routing algorithm, configuration
    /// and traffic pattern.
    #[must_use]
    pub fn new(
        topology: Arc<dyn Topology>,
        routing: Arc<dyn RoutingAlgorithm>,
        config: SimConfig,
        pattern: TrafficPattern,
    ) -> Self {
        let identity = RunIdentity {
            topology: topology.name(),
            routing: routing.name(),
            virtual_channels: routing.virtual_channels(),
            node_count: topology.node_count(),
            channel_count: topology.channel_count(),
        };
        let network = EventNetwork::new(topology, routing, config.clone(), pattern);
        Self { network, config, identity }
    }

    /// Runs the experiment to completion and returns the report.
    #[must_use]
    pub fn run(mut self) -> SimReport {
        let mut acc = MeasurementAccumulator::default();
        let mut cycle: u64 = 0;
        let mut saturated = false;
        let mut deadlock = false;
        let mut measurement_start_cycle = self.config.warmup_cycles;
        let mut measurement_cycles: u64 = 0;
        // reused every cycle, so a delivery cycle allocates nothing
        let mut delivered = Vec::new();

        while cycle < self.config.max_cycles {
            // Idle fast-forward.  While the network is empty no break
            // condition below can change state — queues are empty, no
            // message is outstanding, the accumulator is frozen — so jumping
            // to the next arrival is exactly equivalent to stepping the
            // intervening cycles.
            if self.network.is_idle() {
                match self.network.next_scheduled_arrival() {
                    // Zero traffic (or a source horizon exhausted): nothing
                    // will ever happen.  The run ends at warmup + 1, the
                    // first cycle past the warm-up.
                    None => {
                        cycle =
                            cycle.max(self.config.warmup_cycles + 1).min(self.config.max_cycles);
                        break;
                    }
                    Some(next) if next >= self.config.max_cycles => {
                        cycle = self.config.max_cycles;
                        break;
                    }
                    Some(next) => cycle = cycle.max(next),
                }
            }
            self.network.step(cycle);
            self.network.drain_delivered(&mut delivered);
            for message in delivered.drain(..) {
                if message.measured {
                    acc.record(&message);
                }
            }
            // saturation: the source queues grow without bound
            if self.network.queue_saturated(self.config.saturation_queue_limit) {
                saturated = true;
                cycle += 1;
                break;
            }
            // deadlock watchdog
            let counters = self.network.counters();
            if self.network.outstanding_messages() > 0
                && counters.generated > 0
                && cycle > counters.last_transfer_cycle + DEADLOCK_WATCHDOG_CYCLES
            {
                deadlock = true;
                cycle += 1;
                break;
            }
            cycle += 1;
            if cycle == self.config.warmup_cycles {
                measurement_start_cycle = cycle;
            }
            if acc.count() >= self.config.measured_messages && self.config.measured_messages > 0 {
                break;
            }
        }
        if cycle > measurement_start_cycle {
            measurement_cycles = cycle - measurement_start_cycle;
        }
        // If we ran out of cycles before collecting the requested number of
        // measured messages the operating point is beyond saturation.
        if !saturated
            && self.config.measured_messages > 0
            && self.config.traffic_rate > 0.0
            && acc.count() < self.config.measured_messages
            && cycle >= self.config.max_cycles
        {
            saturated = true;
        }

        let outcome = RunOutcome {
            saturated,
            deadlock_detected: deadlock,
            cycles: cycle,
            measurement_cycles,
            observed_multiplexing: self.network.observed_multiplexing(),
        };
        acc.into_report(&self.identity, &self.config, self.network.counters(), outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_graph::{Hypercube, StarGraph};
    use star_routing::{DeterministicMinimal, EnhancedNbc, Nbc};

    fn s4_config(rate: f64) -> SimConfig {
        SimConfig::builder()
            .message_length(8)
            .traffic_rate(rate)
            .warmup_cycles(2_000)
            .measured_messages(3_000)
            .max_cycles(400_000)
            .seed(42)
            .build()
    }

    #[test]
    fn low_load_latency_close_to_zero_load_bound() {
        let topology = Arc::new(StarGraph::new(4));
        let routing = Arc::new(EnhancedNbc::for_topology(topology.as_ref(), 5));
        let report =
            Simulation::new(topology.clone(), routing, s4_config(0.002), TrafficPattern::Uniform)
                .run();
        assert!(!report.saturated);
        assert!(!report.deadlock_detected);
        assert!(report.measured_messages >= 3_000);
        let zero_load = 8.0 + topology.mean_distance();
        assert!(report.mean_message_latency >= zero_load - 1.5);
        assert!(
            report.mean_message_latency < zero_load * 2.0,
            "latency {} should stay near the zero-load bound {zero_load} at light load",
            report.mean_message_latency
        );
        assert!((report.mean_hops - topology.mean_distance()).abs() < 0.2);
        // accepted traffic tracks offered traffic below saturation
        assert!((report.accepted_rate - 0.002).abs() / 0.002 < 0.15);
    }

    #[test]
    fn latency_increases_with_load() {
        let topology = Arc::new(StarGraph::new(4));
        let mut last = 0.0;
        for &rate in &[0.002, 0.01, 0.02] {
            let routing = Arc::new(EnhancedNbc::for_topology(topology.as_ref(), 5));
            let report = Simulation::new(
                topology.clone(),
                routing,
                s4_config(rate),
                TrafficPattern::Uniform,
            )
            .run();
            assert!(!report.deadlock_detected);
            if !report.saturated {
                assert!(
                    report.mean_message_latency > last,
                    "latency must grow with load (rate {rate})"
                );
                last = report.mean_message_latency;
            }
        }
        assert!(last > 0.0);
    }

    #[test]
    fn heavy_overload_is_reported_as_saturated() {
        let topology = Arc::new(StarGraph::new(4));
        let routing = Arc::new(EnhancedNbc::for_topology(topology.as_ref(), 5));
        let config = SimConfig::builder()
            .message_length(16)
            .traffic_rate(0.2)
            .warmup_cycles(1_000)
            .measured_messages(50_000)
            .max_cycles(60_000)
            .saturation_queue_limit(100)
            .seed(3)
            .build();
        let report = Simulation::new(topology, routing, config, TrafficPattern::Uniform).run();
        assert!(report.saturated);
        assert!(!report.deadlock_detected);
    }

    #[test]
    fn adaptive_beats_deterministic_at_moderate_load() {
        let topology = Arc::new(StarGraph::new(4));
        let adaptive = Arc::new(EnhancedNbc::for_topology(topology.as_ref(), 6));
        let deterministic = Arc::new(DeterministicMinimal::for_topology(topology.as_ref(), 6));
        let config = SimConfig::builder()
            .message_length(16)
            .traffic_rate(0.035)
            .warmup_cycles(3_000)
            .measured_messages(4_000)
            .max_cycles(500_000)
            .seed(42)
            .build();
        let a =
            Simulation::new(topology.clone(), adaptive, config.clone(), TrafficPattern::Uniform)
                .run();
        let d =
            Simulation::new(topology.clone(), deterministic, config, TrafficPattern::Uniform).run();
        assert!(!a.deadlock_detected && !d.deadlock_detected);
        // the deterministic router either saturates or is slower
        assert!(
            d.saturated || d.mean_message_latency > a.mean_message_latency,
            "adaptive ({}) should beat deterministic ({})",
            a.mean_message_latency,
            d.mean_message_latency
        );
    }

    #[test]
    fn runs_on_the_hypercube_with_nbc() {
        let topology = Arc::new(Hypercube::new(4));
        let routing = Arc::new(Nbc::for_topology(topology.as_ref(), 4));
        let report =
            Simulation::new(topology, routing, s4_config(0.005), TrafficPattern::Uniform).run();
        assert!(!report.saturated);
        assert!(!report.deadlock_detected);
        assert!(report.measured_messages >= 3_000);
        assert!(report.mean_message_latency > 8.0);
    }

    #[test]
    fn zero_traffic_terminates_quickly_and_reports_nothing() {
        let topology = Arc::new(StarGraph::new(4));
        let routing = Arc::new(EnhancedNbc::for_topology(topology.as_ref(), 5));
        let config = SimConfig::builder()
            .traffic_rate(0.0)
            .warmup_cycles(10)
            .measured_messages(10)
            .max_cycles(1_000_000)
            .build();
        let report = Simulation::new(topology, routing, config, TrafficPattern::Uniform).run();
        assert_eq!(report.measured_messages, 0);
        assert!(report.cycles < 1_000);
        assert!(!report.deadlock_detected);
    }

    #[test]
    fn hotspot_traffic_is_slower_than_uniform() {
        let topology = Arc::new(StarGraph::new(4));
        let rate = 0.01;
        let uniform = Simulation::new(
            topology.clone(),
            Arc::new(EnhancedNbc::for_topology(topology.as_ref(), 6)),
            s4_config(rate),
            TrafficPattern::Uniform,
        )
        .run();
        let hotspot = Simulation::new(
            topology.clone(),
            Arc::new(EnhancedNbc::for_topology(topology.as_ref(), 6)),
            s4_config(rate),
            TrafficPattern::HotSpot { node: 0, fraction: 0.4 },
        )
        .run();
        assert!(hotspot.saturated || hotspot.mean_message_latency > uniform.mean_message_latency);
    }
}
