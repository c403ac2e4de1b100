//! Simulation configuration.

use serde::{Deserialize, Serialize};

/// Policy used to pick one admissible free virtual channel when a header has
/// several to choose from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SelectionPolicy {
    /// Prefer fully adaptive (class-a) channels, breaking ties uniformly at
    /// random; fall back to the lowest admissible escape level.  This is the
    /// behaviour assumed by the Enhanced-Nbc description.
    #[default]
    AdaptiveFirst,
    /// Uniformly random among all free admissible candidates.
    Random,
    /// Deterministically the first free candidate in the order returned by
    /// the routing algorithm (useful for debugging).
    FirstFree,
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Message length `M` in flits.
    pub message_length: usize,
    /// Traffic generation rate `λ_g` in messages per node per cycle.
    pub traffic_rate: f64,
    /// Flit buffer depth of every virtual channel.
    pub buffer_depth: usize,
    /// Number of injection slots per node (how many messages of one source
    /// may be in flight concurrently); defaults to the number of virtual
    /// channels when 0.
    pub injection_slots: usize,
    /// Cycles before measurement starts (messages generated earlier are
    /// warm-up messages and are not measured).
    pub warmup_cycles: u64,
    /// Number of measured messages to deliver before stopping.
    pub measured_messages: u64,
    /// Hard cycle limit; reaching it before delivering the measured messages
    /// marks the run as saturated.
    pub max_cycles: u64,
    /// A source queue longer than this marks the run as saturated.
    pub saturation_queue_limit: usize,
    /// RNG seed.
    pub seed: u64,
    /// Virtual-channel selection policy.
    pub selection: SelectionPolicy,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            message_length: 32,
            traffic_rate: 0.001,
            // depth 2 (one incoming + one outgoing slot, as in the paper's
            // channel description) sustains one flit per cycle per channel
            // with single-cycle credit return
            buffer_depth: 2,
            injection_slots: 0,
            warmup_cycles: 10_000,
            measured_messages: 20_000,
            max_cycles: 2_000_000,
            saturation_queue_limit: 500,
            seed: 1,
            selection: SelectionPolicy::AdaptiveFirst,
        }
    }
}

impl SimConfig {
    /// Starts a builder with default values.
    #[must_use]
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder { config: Self::default() }
    }

    /// Validates the configuration, panicking with a descriptive message on
    /// nonsensical values.
    pub fn validate(&self) {
        assert!(self.message_length >= 1, "messages need at least one flit");
        assert!(
            self.traffic_rate >= 0.0 && self.traffic_rate.is_finite(),
            "traffic rate must be finite and non-negative"
        );
        assert!(self.buffer_depth >= 1, "virtual channels need at least one buffer slot");
        assert!(self.max_cycles > self.warmup_cycles, "max_cycles must exceed warmup_cycles");
        assert!(self.saturation_queue_limit >= 1, "saturation queue limit must be positive");
    }
}

/// Builder for [`SimConfig`].
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    config: SimConfig,
}

impl SimConfigBuilder {
    /// Sets the message length in flits.
    #[must_use]
    pub fn message_length(mut self, flits: usize) -> Self {
        self.config.message_length = flits;
        self
    }

    /// Sets the traffic generation rate (messages/node/cycle).
    #[must_use]
    pub fn traffic_rate(mut self, rate: f64) -> Self {
        self.config.traffic_rate = rate;
        self
    }

    /// Sets the per-virtual-channel buffer depth in flits.
    #[must_use]
    pub fn buffer_depth(mut self, depth: usize) -> Self {
        self.config.buffer_depth = depth;
        self
    }

    /// Sets the number of injection slots per node.
    #[must_use]
    pub fn injection_slots(mut self, slots: usize) -> Self {
        self.config.injection_slots = slots;
        self
    }

    /// Sets the warm-up period in cycles.
    #[must_use]
    pub fn warmup_cycles(mut self, cycles: u64) -> Self {
        self.config.warmup_cycles = cycles;
        self
    }

    /// Sets the number of measured messages to deliver before stopping.
    #[must_use]
    pub fn measured_messages(mut self, count: u64) -> Self {
        self.config.measured_messages = count;
        self
    }

    /// Sets the hard cycle limit.
    #[must_use]
    pub fn max_cycles(mut self, cycles: u64) -> Self {
        self.config.max_cycles = cycles;
        self
    }

    /// Sets the source-queue length that declares saturation.
    #[must_use]
    pub fn saturation_queue_limit(mut self, limit: usize) -> Self {
        self.config.saturation_queue_limit = limit;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the virtual-channel selection policy.
    #[must_use]
    pub fn selection(mut self, policy: SelectionPolicy) -> Self {
        self.config.selection = policy;
        self
    }

    /// Finishes the builder.
    ///
    /// # Panics
    /// Panics if the resulting configuration is invalid.
    #[must_use]
    pub fn build(self) -> SimConfig {
        self.config.validate();
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_all_fields() {
        let c = SimConfig::builder()
            .message_length(64)
            .traffic_rate(0.004)
            .buffer_depth(2)
            .injection_slots(3)
            .warmup_cycles(5_000)
            .measured_messages(10_000)
            .max_cycles(1_000_000)
            .saturation_queue_limit(200)
            .seed(99)
            .selection(SelectionPolicy::Random)
            .build();
        assert_eq!(c.message_length, 64);
        assert_eq!(c.traffic_rate, 0.004);
        assert_eq!(c.buffer_depth, 2);
        assert_eq!(c.injection_slots, 3);
        assert_eq!(c.warmup_cycles, 5_000);
        assert_eq!(c.measured_messages, 10_000);
        assert_eq!(c.max_cycles, 1_000_000);
        assert_eq!(c.saturation_queue_limit, 200);
        assert_eq!(c.seed, 99);
        assert_eq!(c.selection, SelectionPolicy::Random);
    }

    #[test]
    fn default_is_valid() {
        SimConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn zero_length_messages_rejected() {
        let _ = SimConfig::builder().message_length(0).build();
    }

    #[test]
    #[should_panic(expected = "must exceed warmup")]
    fn max_cycles_must_exceed_warmup() {
        let _ = SimConfig::builder().warmup_cycles(100).max_cycles(50).build();
    }
}
