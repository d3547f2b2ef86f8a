//! `paper_campaign`: the researcher's use — paper figure points through
//! `run_point` and one online point through `run_online_point`.
//!
//! A cycle runs a calm point (paper MTBF, 10 years), a storm point
//! (2 years) and an online point. Cycles walk a small ring of
//! seed-derived point seeds, so every point is repeated with identical
//! work; each repeat must reproduce the first one bit for bit. After
//! every cycle the reference kernel runs on as many threads as
//! `run_point`'s pool, and the cycle's timings are divided by it.

use std::time::{Duration, Instant};

use redistrib_core::Heuristic;
use redistrib_experiments::online::campaign_strategies;
use redistrib_experiments::runner::{run_point, PointConfig, Variant, VariantStats};
use redistrib_experiments::workload::WorkloadParams;
use redistrib_experiments::{run_online_point, OnlinePointConfig, OnlineVariantStats};
use redistrib_model::PaperModel;
use redistrib_online::JobSizeModel;

use crate::reference;
use crate::stats::{median, timed_setups, Samples};
use crate::Report;

/// Tasks per figure point.
pub const N: usize = 100;
/// Processors per figure point.
pub const P: u32 = 500;
/// Paper MTBF (years).
pub const CALM_MTBF: f64 = 10.0;
/// Fault-storm MTBF (years).
pub const STORM_MTBF: f64 = 2.0;
/// Runs per figure point (the paper's x = 50).
pub const RUNS: usize = 50;
/// Distinct point seeds per run; cycles repeat them in turn.
const RING: usize = 8;

/// The baseline and the variants of every figure point.
pub const BASELINE: Variant = Variant::FaultNoRc;
pub const VARIANTS: [Variant; 3] = [
    Variant::FaultNoRc,
    Variant::Fault(Heuristic::IteratedGreedyEndLocal),
    Variant::Fault(Heuristic::ShortestTasksFirstEndLocal),
];

pub fn point(base_seed: u64, mtbf_years: f64, runs: usize) -> PointConfig {
    PointConfig {
        workload: WorkloadParams::paper_default(N),
        p: P,
        mtbf_years,
        downtime: 60.0,
        runs,
        base_seed,
    }
}

pub fn online_point(base_seed: u64, runs: usize) -> OnlinePointConfig {
    OnlinePointConfig {
        jobs: 40,
        mean_interarrival: 2_000.0,
        sizes: JobSizeModel::paper_default(),
        seq_fraction: PaperModel::DEFAULT_SEQ_FRACTION,
        p: 64,
        mtbf_years: 40.0,
        runs,
        base_seed,
    }
}

/// Point seeds of one benchmark seed.
pub fn ring(seed: u64) -> Vec<u64> {
    (0..RING as u64).map(|k| crate::mix(seed, 0xCA4B_0000 + k)).collect()
}

/// Bit pattern of everything a figure point reports.
fn point_bits(stats: &[VariantStats]) -> Vec<u64> {
    stats
        .iter()
        .flat_map(|s| {
            [s.mean_ratio, s.ci95, s.mean_makespan, s.mean_faults, s.mean_redistributions]
                .map(f64::to_bits)
        })
        .collect()
}

fn online_bits(stats: &[OnlineVariantStats]) -> Vec<u64> {
    stats
        .iter()
        .flat_map(|s| {
            [
                s.stretch_ratio,
                s.ci95,
                s.mean_stretch,
                s.makespan_ratio,
                s.mean_utilization,
                s.mean_redistributions,
            ]
            .map(f64::to_bits)
        })
        .collect()
}

/// A point result must be finite and normalise its baseline to 1.
fn point_sane(stats: &[VariantStats]) -> bool {
    stats.len() == VARIANTS.len()
        && stats[0].mean_ratio == 1.0
        && point_bits(stats).iter().all(|&b| f64::from_bits(b).is_finite())
}

pub fn run(seed: u64, seconds: f64, report: &mut Report) {
    let seeds = ring(seed);
    let strategies = campaign_strategies();

    // Set-up: an untimed warm-up of every point kind, repeated so the
    // reported set-up time is a median.
    let (_, setup_s) = timed_setups(
        |rep| {
            let warm = crate::mix(seed, 0x5E70 + rep as u64);
            let ok = run_point(&point(warm, CALM_MTBF, RUNS), BASELINE, &VARIANTS)
                .is_ok_and(|s| point_sane(&s))
                && run_point(&point(warm, STORM_MTBF, RUNS), BASELINE, &VARIANTS)
                    .is_ok_and(|s| point_sane(&s))
                && run_online_point(&online_point(warm, 8), &strategies).is_ok();
            report.check(ok, || "warm-up point failed".into());
        },
        drop,
    );

    let (mut calm, mut storm) = (Samples::default(), Samples::default());
    let mut first_calm: Vec<Option<Vec<u64>>> = vec![None; RING];
    let mut first_storm: Vec<Option<Vec<u64>>> = vec![None; RING];
    let mut first_online: Vec<Option<Vec<u64>>> = vec![None; RING];
    let mut engine_runs = 0u64;
    let mut cycle_rates = Vec::new();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (mut references, mut calm_rel, mut storm_rel, mut rate_rel) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut k = 0usize;
    while k < RING || Instant::now() < deadline {
        let slot = k % RING;
        let cycle = Instant::now();
        let runs_before = engine_runs;
        for (mtbf, samples, first) in [
            (CALM_MTBF, &mut calm, &mut first_calm),
            (STORM_MTBF, &mut storm, &mut first_storm),
        ] {
            let t = Instant::now();
            let out = run_point(&point(seeds[slot], mtbf, RUNS), BASELINE, &VARIANTS);
            samples.push(t.elapsed());
            let ok = match out {
                Ok(stats) if point_sane(&stats) => {
                    let bits = point_bits(&stats);
                    first[slot].get_or_insert_with(|| bits.clone()) == &bits
                }
                _ => false,
            };
            report.check(ok, || format!("figure point (MTBF {mtbf} y, slot {slot}) diverged"));
            engine_runs += (RUNS * VARIANTS.len()) as u64;
        }
        let out = run_online_point(&online_point(seeds[slot], 8), &strategies);
        let ok = match out {
            Ok(stats) => {
                let bits = online_bits(&stats);
                bits.iter().all(|&b| f64::from_bits(b).is_finite())
                    && first_online[slot].get_or_insert_with(|| bits.clone()) == &bits
            }
            Err(_) => false,
        };
        report.check(ok, || format!("online point (slot {slot}) diverged"));
        engine_runs += (8 * strategies.len()) as u64;
        let rate = (engine_runs - runs_before) as f64 / cycle.elapsed().as_secs_f64();
        cycle_rates.push(rate);
        let reference = reference::compute(workers).as_secs_f64() * 1e3;
        references.push(reference);
        calm_rel.push(calm.last_ms() / reference);
        storm_rel.push(storm.last_ms() / reference);
        rate_rel.push(rate * reference / 1e3);
        k += 1;
    }
    let wall = start.elapsed().as_secs_f64();

    report.metric("setup_s", setup_s, "s");
    report.metric("op_p50_rel", median(&calm_rel), "ratio");
    report.metric("stress_p50_rel", median(&storm_rel), "ratio");
    report.metric("ops_per_ref", median(&rate_rel), "1/ref");
    report.note(format!(
        "paper_campaign: {k} cycles, {} calm + {} storm points, {engine_runs} engine runs in {wall:.2} s",
        calm.len(),
        storm.len()
    ));
    report.note(format!(
        "raw, ungated: ops_per_s {:.1} 1/s, op_p50_ms {:.3} ms, stress_p50_ms {:.3} ms; \
         reference kernel p50 {:.4} ms",
        median(&cycle_rates),
        calm.quantile_ms(0.5),
        storm.quantile_ms(0.5),
        median(&references)
    ));
}
