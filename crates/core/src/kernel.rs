//! The fixed-point step of [`crate::SpectrumModel`], split into its
//! rate-independent and rate-dependent halves.
//!
//! One application of Eqs. 4-15 walks every destination class, every hop
//! and both source colours, and needs `P(all a busy)^f` at each.  Only the
//! occupancy distribution (Eq. 18) and the channel wait (Eq. 15) depend on
//! the current `S̄` and `λ_c`.  The admissible virtual-channel counts `a`,
//! the adaptivity distributions over `f`, the binomial weights of
//! `P(all a busy)` and the class populations do not, so [`StepKernel::new`]
//! flattens them once per model.  [`StepKernel::network_latency_step`] then
//! fills the rate-dependent tables into a caller-owned [`StepScratch`] and
//! walks the flat arrays without allocating.
//!
//! Every expression and summation order is the one of
//! [`crate::blocking::total_blocking_delay`] over
//! [`crate::occupancy::ChannelOccupancy::prob_all_busy`], so a step is bit
//! for bit the per-hop formula; the tests below hold it to that.

use std::collections::HashMap;
use std::ops::Range;

use star_graph::coloring::Color;
use star_queueing::vc_occupancy_distribution_into;

use crate::blocking::selectable_vcs;
use crate::occupancy::binomial;
use crate::params::ModelParams;
use crate::spectrum::TraversalSpectrum;
use crate::waiting::channel_waiting_time;

/// One destination class, flattened.
#[derive(Debug, Clone)]
struct ClassTerms {
    /// `M + distance`: the class's zero-load latency.
    base: f64,
    /// Destinations in the class.
    count: f64,
    /// The class's hops in [`StepKernel::hops`].
    hops: Range<usize>,
}

/// The rate-independent half of one fixed-point step.
#[derive(Debug, Clone)]
pub(crate) struct StepKernel {
    message_length: usize,
    total_vcs: usize,
    /// `C(v, a) / C(V, a)` at `a·(V + 1) + v`, for `1 ≤ a ≤ v ≤ V`.
    busy_weights: Vec<f64>,
    /// The distinct `(a, f)` pairs whose `P(all a busy)^f` a step reads.
    powers: Vec<(usize, i32)>,
    classes: Vec<ClassTerms>,
    /// Per hop, the terms of the even and of the odd source colour.
    hops: Vec<[Range<usize>; 2]>,
    /// `(index into powers, probability of f)` per adaptivity value.
    terms: Vec<(usize, f64)>,
    destinations: f64,
}

/// The rate-dependent tables one step fills; a solve owns one and reuses
/// it on every iteration.
#[derive(Debug, Clone, Default)]
pub(crate) struct StepScratch {
    /// `P_0 … P_V` (Eq. 18).
    occupancy: Vec<f64>,
    /// `P(all a busy)` for `a = 0..=V`.
    busy: Vec<f64>,
    /// `P(all a busy)^f` per entry of [`StepKernel::powers`].
    powers: Vec<f64>,
}

impl StepKernel {
    /// Flattens the parts of the step that do not depend on the rate.
    pub(crate) fn new(params: &ModelParams, spectrum: &TraversalSpectrum) -> Self {
        let total_vcs = params.virtual_channels;
        let width = total_vcs + 1;
        let mut busy_weights = vec![0.0; width * width];
        for a in 1..=total_vcs {
            let denom = binomial(total_vcs, a);
            for v in a..=total_vcs {
                busy_weights[a * width + v] = binomial(v, a) / denom;
            }
        }

        let split = params.vc_split(spectrum.diameter());
        let adaptive = params.discipline.is_adaptive();
        let mut power_index: HashMap<(usize, usize), usize> = HashMap::new();
        let mut powers = Vec::new();
        let mut hops = Vec::new();
        let mut terms = Vec::new();
        let classes = spectrum
            .classes()
            .iter()
            .map(|class| {
                let profile =
                    if adaptive { &class.adaptive_profile } else { &class.deterministic_profile };
                let first = hops.len();
                for hop in 1..=profile.distance {
                    hops.push([Color::Zero, Color::One].map(|color| {
                        let a = selectable_vcs(split, color, hop, profile.distance);
                        let start = terms.len();
                        for &(f, p) in &profile.hop_adaptivity[hop - 1] {
                            let index = *power_index.entry((a, f)).or_insert_with(|| {
                                powers.push((a, f as i32));
                                powers.len() - 1
                            });
                            terms.push((index, p));
                        }
                        start..terms.len()
                    }));
                }
                ClassTerms {
                    base: params.message_length as f64 + class.distance as f64,
                    count: class.count as f64,
                    hops: first..hops.len(),
                }
            })
            .collect();
        Self {
            message_length: params.message_length,
            total_vcs,
            busy_weights,
            powers,
            classes,
            hops,
            terms,
            destinations: spectrum.destination_count() as f64,
        }
    }

    /// The mean network latency implied by a current estimate `S̄` of it at
    /// channel rate `λ_c`: one application of Eqs. 4-15 over the spectrum's
    /// classes, or infinity when the channel wait (Eq. 15) is unbounded.
    pub(crate) fn network_latency_step(
        &self,
        mean_service: f64,
        channel_rate: f64,
        scratch: &mut StepScratch,
    ) -> f64 {
        let mean_wait = channel_waiting_time(channel_rate, mean_service, self.message_length);
        if !mean_wait.is_finite() {
            return f64::INFINITY;
        }
        let StepScratch { occupancy, busy, powers } = scratch;
        let width = self.total_vcs + 1;
        occupancy.resize(width, 0.0);
        vc_occupancy_distribution_into(channel_rate, mean_service, occupancy);
        // P(all a busy) = Σ_{v=a}^{V} [C(v, a)/C(V, a)]·P_v; no admissible
        // channel at all is trivially blocked
        busy.clear();
        busy.push(1.0);
        for a in 1..=self.total_vcs {
            let weights = &self.busy_weights[a * width..(a + 1) * width];
            let mut p = 0.0;
            for v in a..=self.total_vcs {
                p += weights[v] * occupancy[v];
            }
            busy.push(p.clamp(0.0, 1.0));
        }
        // more admissible channels than exist can never all be busy
        powers.clear();
        powers
            .extend(self.powers.iter().map(|&(a, f)| busy.get(a).copied().unwrap_or(0.0).powi(f)));

        let mut weighted = 0.0;
        for class in &self.classes {
            let blocking: f64 = self.hops[class.hops.clone()]
                .iter()
                .map(|colors| {
                    let mut total = 0.0;
                    for color in colors {
                        let p_hop: f64 =
                            self.terms[color.clone()].iter().map(|&(i, p)| powers[i] * p).sum();
                        total += 0.5 * p_hop;
                    }
                    total.clamp(0.0, 1.0) * mean_wait
                })
                .sum();
            let latency = class.base + blocking;
            weighted += latency * class.count;
        }
        weighted / self.destinations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::total_blocking_delay;
    use crate::occupancy::ChannelOccupancy;
    use crate::params::ModelDiscipline;
    use star_graph::{Ring, Torus};

    const DISCIPLINES: [ModelDiscipline; 4] = [
        ModelDiscipline::EnhancedNbc,
        ModelDiscipline::Nbc,
        ModelDiscipline::NHop,
        ModelDiscipline::Deterministic,
    ];

    /// The step as Eqs. 4-15 state it: `total_blocking_delay` per class,
    /// `prob_all_busy` per hop and colour.
    fn per_hop_step(
        params: &ModelParams,
        spectrum: &TraversalSpectrum,
        mean_service: f64,
        channel_rate: f64,
    ) -> f64 {
        let split = params.vc_split(spectrum.diameter());
        let occupancy = ChannelOccupancy::new(channel_rate, mean_service, params.virtual_channels);
        let mean_wait = channel_waiting_time(channel_rate, mean_service, params.message_length);
        if !mean_wait.is_finite() {
            return f64::INFINITY;
        }
        let mut weighted = 0.0;
        for class in spectrum.classes() {
            let profile = if params.discipline.is_adaptive() {
                &class.adaptive_profile
            } else {
                &class.deterministic_profile
            };
            let blocking = total_blocking_delay(split, &occupancy, profile, mean_wait);
            let latency = params.message_length as f64 + class.distance as f64 + blocking;
            weighted += latency * class.count as f64;
        }
        weighted / spectrum.destination_count() as f64
    }

    #[test]
    fn the_kernel_step_is_the_per_hop_formula_bit_for_bit() {
        // S6 has hops with three or more adaptivity values, where a
        // reordered sum shows
        let spectra = [
            TraversalSpectrum::star(5),
            TraversalSpectrum::star(6),
            TraversalSpectrum::hypercube(7),
            TraversalSpectrum::new(&Torus::new(8)),
            TraversalSpectrum::new(&Ring::new(8)),
        ];
        // one scratch for every kernel: a step must not depend on what an
        // earlier step, of any size, left in it
        let mut scratch = StepScratch::default();
        let mut checked = 0;
        for spectrum in &spectra {
            for discipline in DISCIPLINES {
                let floor = ModelParams::min_virtual_channels(discipline, spectrum.diameter());
                for virtual_channels in [floor, floor + 3] {
                    let params = ModelParams {
                        discipline,
                        virtual_channels,
                        message_length: 32,
                        ..ModelParams::default()
                    };
                    let kernel = StepKernel::new(&params, spectrum);
                    let zero_load = 32.0 + spectrum.mean_distance();
                    // S̄ below M (warm-up), at zero load and well above it;
                    // ρ = λ_c·S̄ from zero load to ρ ≥ 1 on a grid fine
                    // enough that a one-ulp change in a term reaches the sum
                    for mean_service in [20.0, zero_load, 1.4 * zero_load, 4.0 * zero_load] {
                        for rho in (0..=40).map(|i| f64::from(i) / 40.0).chain([0.999, 1.5]) {
                            let channel_rate = rho / mean_service;
                            let want = per_hop_step(&params, spectrum, mean_service, channel_rate);
                            let got = kernel.network_latency_step(
                                mean_service,
                                channel_rate,
                                &mut scratch,
                            );
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "{} {discipline:?} V={virtual_channels} S={mean_service} \
                                 ρ={rho}: {got} vs {want}",
                                spectrum.topology_name()
                            );
                            checked += usize::from(want.is_finite());
                        }
                    }
                }
            }
        }
        assert!(checked > 5 * 4 * 2 * 4 * 40, "most points must be below saturation");
    }

    #[test]
    fn more_selectable_channels_than_exist_never_block() {
        let params = ModelParams::default();
        let mut kernel = StepKernel::new(&params, &TraversalSpectrum::star(5));
        let beyond = params.virtual_channels + 1;
        kernel.powers.push((beyond, 2));
        let mut scratch = StepScratch::default();
        let _ = kernel.network_latency_step(60.0, 0.01, &mut scratch);
        assert_eq!(scratch.powers.last(), Some(&0.0));
        let occupancy = ChannelOccupancy::new(0.01, 60.0, params.virtual_channels);
        assert_eq!(occupancy.prob_all_busy(beyond), 0.0);
    }

    #[test]
    fn a_step_reuses_its_scratch_without_reallocating() {
        let params = ModelParams::default();
        let kernel = StepKernel::new(&params, &TraversalSpectrum::star(5));
        let mut scratch = StepScratch::default();
        let first = kernel.network_latency_step(40.0, 0.005, &mut scratch);
        let buffers = |s: &StepScratch| {
            [&s.occupancy, &s.busy, &s.powers].map(|b| (b.as_ptr(), b.capacity()))
        };
        let before = buffers(&scratch);
        for i in 0..100 {
            let _ = kernel.network_latency_step(40.0 + f64::from(i), 0.005, &mut scratch);
        }
        assert_eq!(buffers(&scratch), before);
        assert_eq!(kernel.network_latency_step(40.0, 0.005, &mut scratch), first);
    }
}
