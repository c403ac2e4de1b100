//! In-memory spans around the benchmark's calls into each crate.
//!
//! A span records its name, start, end and the op it belongs to.  Op spans
//! (named `op`) enclose the calls one op makes; every other span is a call
//! into a crate's public API.  Spans stay in memory and are written out as
//! a tab-separated file when the run ends.  An untraced run uses
//! [`Trace::off`], which runs the same closures without recording.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Trace {
    origin: Option<Instant>,
    spans: Vec<Span>,
}

impl Trace {
    pub fn off() -> Self {
        Self { origin: None, spans: Vec::new() }
    }

    pub fn on() -> Self {
        Self { origin: Some(Instant::now()), spans: Vec::with_capacity(1 << 16) }
    }

    /// Runs `f`, recording a span around it when tracing is on.
    #[inline]
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let Some(origin) = self.origin else { return f() };
        let start_ns = origin.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = origin.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, op, start_ns, end_ns });
        out
    }

    /// Records an already-timed interval (used where one call's span is
    /// measured from a stream of reads, as with the serve responses).
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        let Some(origin) = self.origin else { return };
        let at = |t: Instant| t.saturating_duration_since(origin).as_nanos() as u64;
        self.spans.push(Span { name, op, start_ns: at(start), end_ns: at(end) });
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.ns() as f64).collect()
    }

    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Share of op-span time covered by the call spans of the same op.
    pub fn coverage(&self) -> f64 {
        let mut ops: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        for span in &self.spans {
            let entry = ops.entry(span.op).or_default();
            if span.name == "op" {
                entry.0 += span.ns();
            } else {
                entry.1 += span.ns();
            }
        }
        let (op_ns, covered) = ops
            .values()
            .filter(|(op_ns, _)| *op_ns > 0)
            .fold((0u64, 0u64), |acc, &(o, c)| (acc.0 + o, acc.1 + c.min(o)));
        covered as f64 / op_ns.max(1) as f64
    }

    /// Per-name self time: a span's duration minus the part its op's call
    /// spans cover (only op spans have children here).
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut children: BTreeMap<u64, u64> = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.name != "op") {
            *children.entry(span.op).or_default() += span.ns();
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for span in &self.spans {
            let own = if span.name == "op" {
                span.ns().saturating_sub(children.get(&span.op).copied().unwrap_or(0))
            } else {
                span.ns()
            };
            *out.entry(span.name).or_default() += own as f64;
        }
        out
    }

    /// Writes every span, then the per-name self times, as TSV.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::from("name\top\tstart_ns\tend_ns\n");
        for s in &self.spans {
            let _ = writeln!(text, "{}\t{}\t{}\t{}", s.name, s.op, s.start_ns, s.end_ns);
        }
        text.push_str("\n# self time per name (ns)\n");
        for (name, ns) in self.self_times() {
            let _ = writeln!(text, "# {name}\t{ns}");
        }
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        fs::write(path, text)
    }
}
