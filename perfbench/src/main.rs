//! The repository benchmark: end-to-end metrics per workload, or the
//! per-layer traced run.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_campaign|proxy_reads> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end metrics of the chosen workload; with
//! `--trace 1` the run is the traced run instead, and the metrics are the
//! per-layer metrics of three workload groups: the two workloads and the
//! service write path, `session_lifecycle` (see `README.md`).
//! Human-readable detail goes to standard error.

mod campaign;
mod fleet;
mod layers;
mod lifecycle;
mod reads;
mod reference;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// Outcome accounting and metrics of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    /// Counts one attempted operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(why());
            }
        }
    }

    /// Counts `n` operations of which those in `errors` failed.
    pub fn tally(&mut self, n: u64, errors: Vec<String>) {
        self.attempted += n - errors.len() as u64;
        for e in errors {
            self.check(false, || e);
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn to_json(&self) -> String {
        let finite = self.metrics.iter().all(|(_, v, _)| v.is_finite());
        let correct = self.failed == 0 && self.errors.is_empty() && finite;
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { -1.0 };
            let _ =
                write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

/// Derives an independent 64-bit seed from a benchmark seed and a tag.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Scratch space inside the checkout (archives, span dumps), removed
/// when the run ends.
pub fn work_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("work-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("benchmark work directory is creatable");
    dir
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["paper_campaign", "proxy_reads"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    if args.trace {
        layers::run(args.seed, args.seconds, &mut report);
    } else {
        match args.workload.as_str() {
            "paper_campaign" => campaign::run(args.seed, args.seconds, &mut report),
            _ => reads::run(args.seed, args.seconds, &mut report),
        }
    }
    for line in &report.notes {
        eprintln!("{line}");
    }
    for (name, value, unit) in &report.metrics {
        eprintln!("{name:<44} {value:>14.6} {unit}");
    }
    eprintln!(
        "failed_share = {} / {} = {}",
        report.failed,
        report.attempted,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    eprintln!("503 sheds seen: {}; retries: 0 (the benchmark never retries)", fleet::sheds());
    for e in &report.errors {
        eprintln!("check failed: {e}");
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
