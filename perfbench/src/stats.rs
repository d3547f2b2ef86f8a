//! Order statistics over latency samples, and timed set-ups.

use std::time::{Duration, Instant};

/// Latency samples in nanoseconds, reduced on demand.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    pub fn extend(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    /// Sum of the samples in seconds.
    pub fn sum_s(&self) -> f64 {
        self.0.iter().map(|&ns| ns as f64 / 1e9).sum()
    }

    /// The latest sample in milliseconds; `NaN` when empty.
    pub fn last_ms(&self) -> f64 {
        self.0.last().map_or(f64::NAN, |&ns| ns as f64 / 1e6)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Mean in milliseconds; `NaN` when empty.
    pub fn mean_ms(&self) -> f64 {
        self.0.iter().map(|&ns| ns as f64 / 1e6).sum::<f64>() / self.0.len() as f64
    }

    /// The `q`-quantile (nearest rank) in milliseconds; `NaN` when empty.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        quantile(&self.0, q).map_or(f64::NAN, |ns| ns as f64 / 1e6)
    }

    /// The `q`-quantile (nearest rank) in microseconds; `NaN` when empty.
    pub fn quantile_us(&self, q: f64) -> f64 {
        quantile(&self.0, q).map_or(f64::NAN, |ns| ns as f64 / 1e3)
    }
}

fn quantile(values: &[u64], q: f64) -> Option<u64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Set-ups per run: `setup_s` is the median of this many.
pub const SETUPS: usize = 5;

/// Runs `prepare` [`SETUPS`] times, handing all but the last result to
/// `discard`. Returns the last result and the median set-up time.
pub fn timed_setups<P>(
    mut prepare: impl FnMut(usize) -> P,
    mut discard: impl FnMut(P),
) -> (P, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for rep in 0..SETUPS {
        if let Some(old) = kept.take() {
            discard(old);
        }
        let t = Instant::now();
        kept = Some(prepare(rep));
        times.push(t.elapsed().as_secs_f64());
    }
    (kept.expect("at least one set-up ran"), median(&times))
}

/// Median of a small set of float measurements (set-up repeats).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}
