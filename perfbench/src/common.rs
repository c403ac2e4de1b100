//! Shared pieces: seeded draws, order statistics, the metric record, host
//! noise sampling and peak-RSS reads.

use std::fs;
use std::process::{Command, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// SplitMix64: the seed expander every workload derives its inputs from.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One value derived from a seed and an index (independent of draw order).
pub fn derive(seed: u64, index: u64) -> u64 {
    SplitMix::new(seed ^ index.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// Nearest-rank percentile of unsorted samples (`q` in `[0, 1]`).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable check failures (the first few are printed).
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.to_string(), value, unit });
    }

    /// Records one op's check result.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 8 {
                self.problems.push(problem());
            }
        }
    }
}

/// `VmHWM` (peak resident set) of a process, in MiB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host-noise counters: the machine's steal time and the working
/// process's run-queue wait, sampled before and after a measured phase.
#[derive(Debug, Clone, Copy)]
pub struct HostSample {
    at: Instant,
    steal: u64,
    total: u64,
    wait_ns: u64,
}

impl HostSample {
    /// Samples `/proc/stat` and the run-queue wait summed over every
    /// thread of `pid` (`/proc/<pid>/task/*/schedstat`, second field).
    pub fn take(pid: &str) -> Self {
        let (steal, total) = fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|stat| {
                let fields: Vec<u64> = stat
                    .lines()
                    .next()?
                    .split_whitespace()
                    .skip(1)
                    .filter_map(|f| f.parse().ok())
                    .collect();
                Some((fields.get(7).copied().unwrap_or(0), fields.iter().sum()))
            })
            .unwrap_or((0, 0));
        let mut wait_ns = 0;
        if let Ok(tasks) = fs::read_dir(format!("/proc/{pid}/task")) {
            for task in tasks.flatten() {
                let stat = fs::read_to_string(task.path().join("schedstat")).unwrap_or_default();
                wait_ns +=
                    stat.split_whitespace().nth(1).and_then(|w| w.parse::<u64>().ok()).unwrap_or(0);
            }
        }
        Self { at: Instant::now(), steal, total, wait_ns }
    }

    /// `(steal share of all CPU time, run-queue wait per wall second)`
    /// between two samples.
    pub fn shares(&self, later: &Self) -> (f64, f64) {
        let total = later.total.saturating_sub(self.total).max(1) as f64;
        let steal = later.steal.saturating_sub(self.steal) as f64 / total;
        let wall = later.at.duration_since(self.at).as_nanos().max(1) as f64;
        let wait = later.wait_ns.saturating_sub(self.wait_ns) as f64 / wall;
        (steal, wait)
    }
}

/// Pushes the host-noise metrics: steal and run-queue wait, averaged over
/// the measured phases, and the median probe time of the run.
pub fn push_host(outcome: &mut Outcome, phases: &[(HostSample, HostSample)], speed: &HostSpeed) {
    let shares: Vec<(f64, f64)> =
        phases.iter().map(|(before, after)| before.shares(after)).collect();
    let mean = |f: fn(&(f64, f64)) -> f64| shares.iter().map(f).sum::<f64>() / shares.len() as f64;
    outcome.push("host.steal_share", mean(|s| s.0), "share");
    outcome.push("host.runqueue_share", mean(|s| s.1), "share");
    let probe = if speed.probes.is_empty() { probe_ns() } else { median(&speed.probes) };
    outcome.push("host.probe_us", probe / 1e3, "us");
}

/// Holds this process's main thread on one CPU; threads it starts later,
/// and the serve workload's daemons, run there too.  Restores the original
/// affinity on drop.
///
/// On a shared 2-vCPU host, serve runs with client and daemon spread over
/// both vCPUs differed up to 3× in throughput between identical runs,
/// tracking hypervisor steal.  On one CPU the host probe also runs where the
/// measured code runs.
pub struct Pinning {
    pub cpu: usize,
    allowed: String,
}

impl Pinning {
    /// Pins this process's main thread to its last allowed CPU with
    /// `taskset`; `None` (unpinned) when that is not possible.
    pub fn take() -> Option<Self> {
        let status = fs::read_to_string("/proc/self/status").ok()?;
        let allowed = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?.trim();
        let cpu: usize = allowed.rsplit([',', '-']).next()?.parse().ok()?;
        taskset(&cpu.to_string()).then(|| Self { cpu, allowed: allowed.to_string() })
    }
}

impl Drop for Pinning {
    fn drop(&mut self) {
        taskset(&self.allowed);
    }
}

/// Sets this process's main-thread affinity; whether it worked.
fn taskset(cpus: &str) -> bool {
    Command::new("taskset")
        .args(["-pc", cpus, &std::process::id().to_string()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

/// The probe's time on the host the benchmark was tuned on (a 2-vCPU
/// Xeon virtual machine): scaled times are in that host's units.
pub const REFERENCE_PROBE_NS: f64 = 2.5e6;

/// Times a fixed, benchmark-owned kernel (dependent loads over an L2-sized
/// table, integer multiplies, a few float ops): how slow the CPU is right
/// now.  About 2.5 ms.
///
/// On the shared host this was tuned on, whole runs slowed by up to 45%
/// and drifted over minutes with no steal visible.  The kernel slows with
/// them, by about half as much, and it is code no change to the repository
/// touches: a time scaled by the nearby probes keeps the code's cost and
/// drops part of the host's.
pub fn probe_ns() -> f64 {
    static TABLE: OnceLock<Vec<u32>> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut rng = SplitMix::new(0xCA11);
        (0..1u32 << 16).map(|_| rng.next_u64() as u32 & 0xFFFF).collect()
    });
    let started = Instant::now();
    let (mut index, mut acc, mut x) = (0usize, 0u64, 1.0f64);
    for i in 0..400_000u64 {
        index = (table[index] as usize ^ (i as usize & 0xFF)) & 0xFFFF;
        acc = acc.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(index as u64);
        if acc & 7 == 0 {
            x = x * 1.000_000_1 + 1e-9;
        }
    }
    std::hint::black_box((acc, x));
    started.elapsed().as_nanos() as f64
}

/// The host probes of a run, taken between ops.
#[derive(Debug, Default)]
pub struct HostSpeed {
    pub probes: Vec<f64>,
}

impl HostSpeed {
    /// Probes taken on each side of an op to judge the host's speed
    /// around it.
    const REACH: usize = 2;

    /// Probes the host; returns the probe's index.
    pub fn probe(&mut self) -> usize {
        self.probes.push(probe_ns());
        self.probes.len() - 1
    }

    /// `time`, measured right after probe `index`, in units of the
    /// reference host: scaled by the median of the probes within
    /// [`Self::REACH`] of it, which one slow or fast probe does not move.
    pub fn scaled(&self, time: f64, index: usize) -> f64 {
        let near = &self.probes[index.saturating_sub(Self::REACH)..];
        time * REFERENCE_PROBE_NS / median(&near[..near.len().min(2 * Self::REACH + 1)])
    }
}
