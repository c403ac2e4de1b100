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
//! A hop's blocking delay depends only on its *kind*: the pair of
//! (admissible channels `a`, adaptivity distribution) of its two source
//! colours.  Most hops repeat a kind — S7 under Enhanced-NBC has 167 hops
//! and 67 kinds, T12 under NHop 294 hops and 49 kinds, and deterministic
//! routing has one kind — so `new` interns the kinds into a table, each
//! hop keeps only its kind's index, and a step prices every kind once
//! before the class walk adds the prices up hop by hop.
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
    /// Per hop, its index in [`Self::kinds`].
    hops: Vec<u32>,
    /// Per distinct hop kind, the terms of the even and of the odd source
    /// colour.
    kinds: Vec<[Range<usize>; 2]>,
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
    /// The blocking delay of one hop per entry of [`StepKernel::kinds`].
    blocking: Vec<f64>,
}

/// A slot of the kind table no kind occupies.
const EMPTY_SLOT: u32 = u32::MAX;

/// Hashes a hop kind — the admissible channels of both source colours and
/// the adaptivity distribution — by its exact bits.
fn kind_hash(vcs: [usize; 2], adaptivity: &[(usize, f64)]) -> u64 {
    const SEED: u64 = 0x9e37_79b9_7f4a_7c15;
    let mix = |h: u64, x: u64| (h.rotate_left(5) ^ x).wrapping_mul(SEED);
    let h = mix(mix(0, vcs[0] as u64), vcs[1] as u64);
    adaptivity.iter().fold(h, |h, &(f, p)| mix(mix(h, f as u64), p.to_bits()))
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
        let hop_count: usize = spectrum.classes().iter().map(|class| class.distance).sum();
        // open addressing over kind indices, at most half full
        let slot_bits = (2 * hop_count).max(2).next_power_of_two().trailing_zeros();
        let mut slots = vec![EMPTY_SLOT; 1 << slot_bits];
        let mut power_index: HashMap<(usize, usize), usize> = HashMap::new();
        let mut powers: Vec<(usize, i32)> = Vec::new();
        let mut kinds: Vec<[Range<usize>; 2]> = Vec::new();
        let mut hops = Vec::with_capacity(hop_count);
        let mut terms: Vec<(usize, f64)> = Vec::new();
        let classes: Vec<ClassTerms> = spectrum
            .classes()
            .iter()
            .map(|class| {
                let profile =
                    if adaptive { &class.adaptive_profile } else { &class.deterministic_profile };
                let first = hops.len();
                for hop in 1..=profile.distance {
                    let vcs = [Color::Zero, Color::One]
                        .map(|color| selectable_vcs(split, color, hop, profile.distance));
                    let adaptivity = &profile.hop_adaptivity[hop - 1];
                    let is_this_kind = |kind: &[Range<usize>; 2]| {
                        kind.iter().zip(vcs).all(|(range, a)| {
                            range.len() == adaptivity.len()
                                && terms[range.clone()].iter().zip(adaptivity).all(
                                    |(&(index, p), &(f, q))| {
                                        powers[index] == (a, f as i32) && p.to_bits() == q.to_bits()
                                    },
                                )
                        })
                    };
                    let mut slot = (kind_hash(vcs, adaptivity) >> (64 - slot_bits)) as usize;
                    while slots[slot] != EMPTY_SLOT && !is_this_kind(&kinds[slots[slot] as usize]) {
                        slot = (slot + 1) & (slots.len() - 1);
                    }
                    if slots[slot] == EMPTY_SLOT {
                        slots[slot] = kinds.len() as u32;
                        kinds.push(vcs.map(|a| {
                            let start = terms.len();
                            for &(f, p) in adaptivity {
                                let index = *power_index.entry((a, f)).or_insert_with(|| {
                                    powers.push((a, f as i32));
                                    powers.len() - 1
                                });
                                terms.push((index, p));
                            }
                            start..terms.len()
                        }));
                    }
                    hops.push(slots[slot]);
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
            kinds,
            terms,
            destinations: spectrum.destination_count() as f64,
        }
    }

    /// The mean network latency implied by a current estimate `S̄` of it at
    /// channel rate `λ_c`: one application of Eqs. 4-15 over the spectrum's
    /// classes, or infinity when the channel wait (Eq. 15) is unbounded.
    #[inline]
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
        let StepScratch { occupancy, busy, powers, blocking } = scratch;
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
        // one hop's blocking delay per kind
        blocking.clear();
        blocking.extend(self.kinds.iter().map(|colors| {
            let mut total = 0.0;
            for color in colors {
                let p_hop: f64 =
                    self.terms[color.clone()].iter().map(|&(i, p)| powers[i] * p).sum();
                total += 0.5 * p_hop;
            }
            total.clamp(0.0, 1.0) * mean_wait
        }));

        let mut weighted = 0.0;
        for class in &self.classes {
            let mut delay = 0.0;
            for &kind in &self.hops[class.hops.clone()] {
                delay += blocking[kind as usize];
            }
            let latency = class.base + delay;
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
        // reordered sum shows; S7 and T12 are the largest spectra the
        // benchmark's design solves, with the most hop kinds
        let spectra = [
            TraversalSpectrum::star(5),
            TraversalSpectrum::star(6),
            TraversalSpectrum::star(7),
            TraversalSpectrum::hypercube(7),
            TraversalSpectrum::new(&Torus::new(8)),
            TraversalSpectrum::new(&Torus::new(12)),
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
        assert!(checked > 7 * 4 * 2 * 4 * 40, "most points must be below saturation");
    }

    /// The first of the ascending `points` at which `f` falls below its
    /// value at the point before (or is NaN).
    fn first_fall(points: &[f64], mut f: impl FnMut(f64) -> f64) -> Option<f64> {
        let mut last = f64::NEG_INFINITY;
        points.iter().copied().find(|&x| {
            let y = f(x);
            let fell = y.is_nan() || y < last;
            last = y;
            fell
        })
    }

    /// The premise of the saturation search's certificate: the step is
    /// non-decreasing in `S̄` from zero load up to the channel pole
    /// `λ_c·S̄ = 1`, and in the channel rate at fixed `S̄`.
    #[test]
    fn the_step_is_non_decreasing_in_latency_and_in_rate() {
        let spectra = [
            TraversalSpectrum::star(5),
            TraversalSpectrum::hypercube(7),
            TraversalSpectrum::new(&Torus::new(8)),
            TraversalSpectrum::new(&Ring::new(8)),
        ];
        let mut scratch = StepScratch::default();
        let mut checked = 0;
        for spectrum in &spectra {
            for discipline in DISCIPLINES {
                let floor = ModelParams::min_virtual_channels(discipline, spectrum.diameter());
                for (virtual_channels, message_length) in
                    [(floor, 8), (floor + 2, 32), (floor + 5, 64)]
                {
                    let params = ModelParams {
                        discipline,
                        virtual_channels,
                        message_length,
                        ..ModelParams::default()
                    };
                    let kernel = StepKernel::new(&params, spectrum);
                    let mut step =
                        |s: f64, rate: f64| kernel.network_latency_step(s, rate, &mut scratch);
                    let zero_load = message_length as f64 + spectrum.mean_distance();
                    let label = || {
                        format!(
                            "{} {discipline:?} V={virtual_channels} M={message_length}",
                            spectrum.topology_name()
                        )
                    };
                    // in S̄ at fixed λ_c, from zero load up to and onto the
                    // pole, finer as it nears
                    for rho in [0.05, 0.3, 0.6, 0.9, 0.99] {
                        let rate = rho / zero_load;
                        let pole = 1.0 / rate;
                        let mut points: Vec<f64> = (0..=200)
                            .map(|i| zero_load + (pole - zero_load) * f64::from(i) / 200.0)
                            .chain([1e-3, 1e-6, 1e-9, 1e-12].map(|gap| pole * (1.0 - gap)))
                            .collect();
                        points.sort_by(f64::total_cmp);
                        let fall = first_fall(&points, |s| step(s, rate));
                        assert_eq!(fall, None, "{} falls in S̄ at λ_c {rate}", label());
                        checked += 1;
                    }
                    // in λ_c at fixed S̄, from zero load to the pole 1/S̄
                    for s in [zero_load, 1.5 * zero_load, 4.0 * zero_load] {
                        let rates: Vec<f64> = (0..=200).map(|i| f64::from(i) / 200.0 / s).collect();
                        let fall = first_fall(&rates, |rate| step(s, rate));
                        assert_eq!(fall, None, "{} falls in λ_c at S̄ {s}", label());
                        checked += 1;
                    }
                }
            }
        }
        assert_eq!(checked, 4 * 4 * 3 * 8);
    }

    /// The premise the saturation search's secant cells add: the step is
    /// convex in `S̄` from zero load up to the channel pole, so a secant
    /// through two of its points lies below it outside them.  Checked as
    /// second differences on a full-range grid and on a fine grid over the
    /// last 2% before the pole, where the step bends hardest; a difference
    /// may fall below zero by the 1e-12 relative the search's lines are
    /// shaded for.
    #[test]
    fn the_step_is_convex_in_latency_up_to_the_pole() {
        let spectra = [
            TraversalSpectrum::star(5),
            TraversalSpectrum::hypercube(7),
            TraversalSpectrum::new(&Torus::new(8)),
            TraversalSpectrum::new(&Ring::new(8)),
        ];
        let mut scratch = StepScratch::default();
        let mut checked = 0;
        for spectrum in &spectra {
            for discipline in DISCIPLINES {
                let floor = ModelParams::min_virtual_channels(discipline, spectrum.diameter());
                for (virtual_channels, message_length) in
                    [(floor, 8), (floor + 2, 32), (floor + 5, 64)]
                {
                    let params = ModelParams {
                        discipline,
                        virtual_channels,
                        message_length,
                        ..ModelParams::default()
                    };
                    let kernel = StepKernel::new(&params, spectrum);
                    let zero_load = message_length as f64 + spectrum.mean_distance();
                    for rho in [0.05, 0.3, 0.6, 0.9, 0.99] {
                        let rate = rho / zero_load;
                        let pole = 1.0 / rate;
                        for (low, high) in
                            [(zero_load, pole), (pole - 0.02 * (pole - zero_load), pole)]
                        {
                            // 200 equal cells, the last point a cell short of the pole
                            let grid: Vec<f64> = (0..200)
                                .map(|i| low + (high - low) * f64::from(i) / 200.0)
                                .map(|s| kernel.network_latency_step(s, rate, &mut scratch))
                                .collect();
                            for (i, w) in grid.windows(3).enumerate() {
                                let second = w[0] - 2.0 * w[1] + w[2];
                                assert!(
                                    second >= -1e-12 * w[2],
                                    "{} {discipline:?} V={virtual_channels} M={message_length}: \
                                     the step bends down by {second} at point {i} of \
                                     [{low}, {high}) at λ_c {rate}",
                                    spectrum.topology_name()
                                );
                            }
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(checked, 4 * 4 * 3 * 5 * 2);
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

    /// Whether two kinds' colour term lists are equal to the bit.
    fn same_kind(kernel: &StepKernel, x: &[Range<usize>; 2], y: &[Range<usize>; 2]) -> bool {
        x.iter().zip(y).all(|(x, y)| {
            let (x, y) = (&kernel.terms[x.clone()], &kernel.terms[y.clone()]);
            x.len() == y.len()
                && x.iter().zip(y).all(|(&(i, p), &(j, q))| i == j && p.to_bits() == q.to_bits())
        })
    }

    #[test]
    fn the_kind_table_holds_each_hop_kind_once() {
        let spectra = [
            TraversalSpectrum::star(5),
            TraversalSpectrum::star(7),
            TraversalSpectrum::hypercube(7),
            TraversalSpectrum::new(&Torus::new(12)),
            TraversalSpectrum::new(&Ring::new(16)),
        ];
        for spectrum in &spectra {
            let hop_count: usize = spectrum.classes().iter().map(|c| c.distance).sum();
            for discipline in DISCIPLINES {
                let floor = ModelParams::min_virtual_channels(discipline, spectrum.diameter());
                for virtual_channels in [floor, floor + 3] {
                    let params =
                        ModelParams { discipline, virtual_channels, ..ModelParams::default() };
                    let kernel = StepKernel::new(&params, spectrum);
                    let label =
                        format!("{} {discipline:?} V={virtual_channels}", spectrum.topology_name());
                    assert_eq!(kernel.hops.len(), hop_count, "{label}");
                    assert!(kernel.hops.iter().all(|&k| (k as usize) < kernel.kinds.len()));
                    for (i, x) in kernel.kinds.iter().enumerate() {
                        for y in &kernel.kinds[..i] {
                            assert!(!same_kind(&kernel, x, y), "{label}: kind {i} is repeated");
                        }
                    }
                    if discipline == ModelDiscipline::Deterministic {
                        assert_eq!(kernel.kinds.len(), 1, "{label}: one kind for every hop");
                    }
                }
            }
        }
        // the interning pays off where the step's cost lies
        let kinds = |spectrum: &TraversalSpectrum, discipline| {
            let virtual_channels =
                ModelParams::min_virtual_channels(discipline, spectrum.diameter());
            let params = ModelParams { discipline, virtual_channels, ..ModelParams::default() };
            let kernel = StepKernel::new(&params, spectrum);
            (kernel.hops.len(), kernel.kinds.len())
        };
        let (hops, distinct) = kinds(&TraversalSpectrum::star(7), ModelDiscipline::EnhancedNbc);
        assert!(2 * distinct < hops, "S7: {distinct} kinds for {hops} hops");
        let (hops, distinct) =
            kinds(&TraversalSpectrum::new(&Torus::new(12)), ModelDiscipline::NHop);
        assert!(4 * distinct < hops, "T12: {distinct} kinds for {hops} hops");
    }

    #[test]
    fn a_step_reuses_its_scratch_without_reallocating() {
        let params = ModelParams::default();
        let kernel = StepKernel::new(&params, &TraversalSpectrum::star(5));
        let mut scratch = StepScratch::default();
        let first = kernel.network_latency_step(40.0, 0.005, &mut scratch);
        assert_eq!(scratch.blocking.len(), kernel.kinds.len());
        let buffers = |s: &StepScratch| {
            [&s.occupancy, &s.busy, &s.powers, &s.blocking].map(|b| (b.as_ptr(), b.capacity()))
        };
        let before = buffers(&scratch);
        for i in 0..100 {
            let _ = kernel.network_latency_step(40.0 + f64::from(i), 0.005, &mut scratch);
        }
        assert_eq!(buffers(&scratch), before);
        assert_eq!(kernel.network_latency_step(40.0, 0.005, &mut scratch), first);
    }
}
