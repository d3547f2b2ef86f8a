//! In-memory span recorder for the traced run.
//!
//! A span wraps one call into a layer's public function: name, start,
//! end, parent span and request id. Spans live in memory until the run
//! ends; [`Tracer::table`] reduces them to per-name self time (duration
//! minus the part covered by child spans) and [`Tracer::write`] dumps
//! the raw records.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::stats::Samples;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    req: u64,
}

/// A single-threaded span log: the traced run drives every layer from
/// one thread, one request at a time.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// One row of the self-time table.
#[derive(Debug)]
pub struct Row {
    pub name: &'static str,
    pub count: usize,
    pub total_ms: f64,
    pub self_ms: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Self { epoch, enabled: true, spans: Vec::new(), open: Vec::new() }
    }

    /// A tracer that records nothing: the same code path untraced.
    pub fn off() -> Self {
        Self { enabled: false, ..Self::new(Instant::now()) }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        req: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, req });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Durations of every span named `name`.
    pub fn durations(&self, name: &str) -> Samples {
        let mut out = Samples::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            out.push(std::time::Duration::from_nanos(s.end_ns - s.start_ns));
        }
        out
    }

    /// Median duration of the spans named `name`, in microseconds.
    pub fn p50_us(&self, name: &str) -> f64 {
        self.durations(name).quantile_us(0.5)
    }

    /// Median duration of the spans named `name`, in milliseconds.
    pub fn p50_ms(&self, name: &str) -> f64 {
        self.durations(name).quantile_ms(0.5)
    }

    /// Per-name count, total and self time, sorted by name.
    pub fn table(&self) -> Vec<Row> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        names
            .into_iter()
            .map(|name| {
                let (mut total, mut own, mut count) = (0u64, 0u64, 0usize);
                for (i, s) in self.spans.iter().enumerate().filter(|(_, s)| s.name == name) {
                    let d = s.end_ns - s.start_ns;
                    total += d;
                    own += d.saturating_sub(child_ns[i]);
                    count += 1;
                }
                let durations = self.durations(name);
                Row {
                    name,
                    count,
                    total_ms: total as f64 / 1e6,
                    self_ms: own as f64 / 1e6,
                    p50_us: durations.quantile_us(0.5),
                    p99_us: durations.quantile_us(0.99),
                }
            })
            .collect()
    }

    /// Writes every span as a tab-separated record:
    /// `index name start_ns end_ns parent req`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("index\tname\tstart_ns\tend_ns\tparent\treq\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.req
            );
        }
        std::fs::write(path, out)
    }
}

/// Renders the self-time table of one workload group.
pub fn render(title: &str, rows: &[Row]) -> String {
    let mut out = format!("== per-layer self time: {title}\n");
    let _ = writeln!(
        out,
        "{:<40} {:>8} {:>11} {:>11} {:>10} {:>10}",
        "span", "count", "total_ms", "self_ms", "p50_us", "p99_us"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<40} {:>8} {:>11.3} {:>11.3} {:>10.2} {:>10.2}",
            r.name, r.count, r.total_ms, r.self_ms, r.p50_us, r.p99_us
        );
    }
    out
}
