//! Pinned reference answers, compiled in from `refs/*.txt` and rewritten
//! by `perfbench --pin` (see README.md, "Re-pinning").

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::OnceLock;

const SIM: &str = include_str!("../refs/sim.txt");
const MODEL: &str = include_str!("../refs/model.txt");

/// The exact counts one sim op is checked on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimRef {
    pub cycles: u64,
    pub active_cycles: u64,
    pub flit_transfers: u64,
    /// Active cycles each stage ran: generation, injection, routing,
    /// switching, staged.
    pub stage_runs: [u64; 5],
    pub latency_bits: u64,
}

impl SimRef {
    pub fn line(&self, workload: &str, index: u64) -> String {
        let mut line = format!(
            "{workload} {index} {} {} {}",
            self.cycles, self.active_cycles, self.flit_transfers
        );
        for runs in self.stage_runs {
            let _ = write!(line, " {runs}");
        }
        let _ = write!(line, " {:016x}", self.latency_bits);
        line
    }
}

fn sim_table() -> &'static HashMap<(String, u64), SimRef> {
    static TABLE: OnceLock<HashMap<(String, u64), SimRef>> = OnceLock::new();
    TABLE.get_or_init(|| {
        SIM.lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .map(|line| {
                let f: Vec<&str> = line.split_whitespace().collect();
                let n = |i: usize| f[i].parse::<u64>().expect("numeric sim reference field");
                let r = SimRef {
                    cycles: n(2),
                    active_cycles: n(3),
                    flit_transfers: n(4),
                    stage_runs: [n(5), n(6), n(7), n(8), n(9)],
                    latency_bits: u64::from_str_radix(f[10], 16).expect("hex latency bits"),
                };
                ((f[0].to_string(), n(1)), r)
            })
            .collect()
    })
}

pub fn sim(workload: &str, index: u64) -> Option<SimRef> {
    sim_table().get(&(workload.to_string(), index)).copied()
}

/// One model curve: its rate grid and latencies (`None` = saturated).
#[derive(Debug, Clone, PartialEq)]
pub struct Curve {
    pub rates: Vec<f64>,
    pub latencies: Vec<Option<f64>>,
}

impl Curve {
    pub fn line(&self, label: &str) -> String {
        let rates: Vec<String> = self.rates.iter().map(f64::to_string).collect();
        let lats: Vec<String> = self
            .latencies
            .iter()
            .map(|l| l.map_or_else(|| "sat".to_string(), |v| v.to_string()))
            .collect();
        format!("{label} {} {}", rates.join(","), lats.join(","))
    }

    /// Whether every rate and latency agrees with `pinned` to `rel`.
    pub fn matches(&self, pinned: &Curve, rel: f64) -> bool {
        let close = |a: f64, b: f64| (a - b).abs() <= rel * a.abs().max(b.abs());
        self.rates.len() == pinned.rates.len()
            && self.latencies.len() == pinned.latencies.len()
            && self.rates.iter().zip(&pinned.rates).all(|(&a, &b)| close(a, b))
            && self.latencies.iter().zip(&pinned.latencies).all(|(a, b)| match (a, b) {
                (Some(a), Some(b)) => close(*a, *b),
                (None, None) => true,
                _ => false,
            })
    }
}

fn model_table() -> &'static HashMap<String, Curve> {
    static TABLE: OnceLock<HashMap<String, Curve>> = OnceLock::new();
    TABLE.get_or_init(|| {
        MODEL
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .map(|line| {
                let f: Vec<&str> = line.split_whitespace().collect();
                let rates = f[1].split(',').map(|r| r.parse().expect("numeric rate")).collect();
                let latencies = f[2]
                    .split(',')
                    .map(|l| (l != "sat").then(|| l.parse().expect("numeric latency")))
                    .collect();
                (f[0].to_string(), Curve { rates, latencies })
            })
            .collect()
    })
}

pub fn model(label: &str) -> Option<&'static Curve> {
    model_table().get(label)
}
