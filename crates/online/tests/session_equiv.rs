//! Equivalence suite for the PR 4 Session API.
//!
//! * a single-pack `Session` driven by hand for a few `step()`s and then
//!   drained must replay the one-shot `Scheduler::run` decision sequence
//!   byte for byte (event logs, makespan bits) — the detprobe grid relies
//!   on it;
//! * multi-pack staging must *conserve jobs*: every arrival completes
//!   exactly once, packs never overlap, and drained-pack reports cover
//!   exactly the staged jobs;
//! * the offline `PackSession` stepped pack by pack must report exactly
//!   what `run_to_completion()` returns, run after run.

use std::sync::Arc;

use proptest::prelude::*;

use redistrib_core::Heuristic;
use redistrib_model::{JobSpec, PaperModel, Platform, TaskSpec, Workload};
use redistrib_online::{
    generate_jobs, BurstyArrivals, JobSizeModel, JobState, OnlineConfig, OnlineStrategy,
    PackPartitioner, PackStaging, PoissonArrivals, Scheduler, SessionEvent,
};
use redistrib_sim::trace::TraceEvent;
use redistrib_sim::units;

fn speedup() -> Arc<PaperModel> {
    Arc::new(PaperModel::default())
}

fn job_stream(seed: u64, n: usize, mean_gap: f64) -> Vec<JobSpec> {
    let mut arrivals = PoissonArrivals::new(seed, mean_gap);
    generate_jobs(&mut arrivals, n, &JobSizeModel::paper_default(), seed)
}

/// A session stepped by hand for a few events and then drained replays
/// the one-shot `Scheduler::run` byte for byte, across the same strategy ×
/// seed grid detprobe pins — mixing the two driving styles must not
/// change anything.
#[test]
fn stepped_then_drained_session_matches_one_shot_run() {
    for seed in [1u64, 7, 42, 99] {
        for strategy in [
            OnlineStrategy::no_resize(),
            OnlineStrategy::resizing(Heuristic::IteratedGreedyEndLocal),
            OnlineStrategy::resizing(Heuristic::ShortestTasksFirstEndGreedy),
        ] {
            let jobs = job_stream(seed, 12, 6_000.0);
            let platform = Platform::with_mtbf(24, units::years(5.0));
            let cfg = OnlineConfig::with_faults(seed ^ 0xBEEF, platform.proc_mtbf).recording();
            let scheduler =
                Scheduler::on(platform).speedup(speedup()).strategy(strategy).config(cfg);
            let one_shot = scheduler.run(&jobs).unwrap();

            let mut session = scheduler.session(&jobs).unwrap();
            for _ in 0..5 {
                if session.step().unwrap().is_none() {
                    break;
                }
            }
            let stepped = session.run_to_completion().unwrap();

            assert_eq!(
                one_shot.trace.to_csv(),
                stepped.trace.to_csv(),
                "event logs diverge (seed {seed}, {})",
                strategy.name()
            );
            assert_eq!(one_shot.makespan.to_bits(), stepped.makespan.to_bits());
            assert_eq!(one_shot.handled_faults, stepped.handled_faults);
            assert_eq!(one_shot.discarded_faults, stepped.discarded_faults);
            assert_eq!(one_shot.redistributions, stepped.redistributions);
            assert_eq!(one_shot.queue_series, stepped.queue_series);
            assert!(stepped.packs.is_empty(), "flat-FIFO sessions never stage");
        }
    }
}

/// `SessionEvent`s narrate the run faithfully: one event per step, times
/// non-decreasing, arrivals/completions matching the outcome.
#[test]
fn step_events_narrate_the_run() {
    let jobs = job_stream(3, 10, 4_000.0);
    let platform = Platform::with_mtbf(16, units::years(4.0));
    let mut session = Scheduler::on(platform)
        .speedup(speedup())
        .strategy(OnlineStrategy::resizing(Heuristic::IteratedGreedyEndLocal))
        .faults(11, platform.proc_mtbf)
        .session(&jobs)
        .unwrap();
    let mut arrivals = 0;
    let mut completions = 0;
    let mut faults = 0;
    let mut last_t = 0.0;
    while let Some(event) = session.step().unwrap() {
        assert!(event.time() >= last_t, "events went back in time");
        last_t = event.time();
        match event {
            SessionEvent::Arrival { job, .. } => {
                arrivals += 1;
                assert!(job < jobs.len());
            }
            SessionEvent::Completion { job, .. } => {
                completions += 1;
                assert!(matches!(session.job_state(job), JobState::Completed { .. }));
            }
            SessionEvent::Fault { handled, job, .. } => {
                faults += 1;
                assert!(!handled || job.is_some(), "handled faults strike a job");
            }
        }
    }
    assert!(session.is_done());
    assert_eq!(arrivals, jobs.len());
    assert_eq!(completions, jobs.len());
    assert!(faults > 0, "a 4-year MTBF platform must fault");
    assert_eq!(session.queue_depth(), 0);
    assert_eq!(session.running_jobs().len(), 0);
}

/// Oversubscribed staging end to end: packs open in order, and the
/// equivalent flat-FIFO run completes the same job set.
#[test]
fn multipack_staging_drains_consecutive_packs() {
    // 20 simultaneous jobs on p = 8: 2·20 > 8 triggers staging.
    let burst: Vec<JobSpec> =
        (0..20).map(|k| JobSpec::new(TaskSpec::new(1.5e6 + 5e4 * f64::from(k)), 0.0)).collect();
    let platform = Platform::new(8);
    let out = Scheduler::on(platform)
        .speedup(speedup())
        .staging(PackStaging::oversubscribed())
        .recording()
        .session(&burst)
        .unwrap()
        .run_to_completion()
        .unwrap();
    // Early jobs start before the backlog builds; the rest is staged.
    // Capacity chunking on p = 8 caps packs at 4 jobs.
    assert!(out.packs.len() >= 2, "expected staged packs, got {}", out.packs.len());
    for (k, report) in out.packs.iter().enumerate() {
        assert_eq!(report.pack, k, "packs close in opening order");
        assert!(report.closed >= report.opened);
        assert!(!report.jobs.is_empty() && report.jobs.len() <= 4);
    }
    // Pack windows are consecutive: pack k+1 opens when pack k closes.
    for w in out.packs.windows(2) {
        assert!(w[1].opened >= w[0].closed - 1e-9, "packs overlapped in time");
    }
    let pack_starts =
        out.trace.events().iter().filter(|e| matches!(e, TraceEvent::PackStart { .. })).count();
    assert_eq!(pack_starts, out.packs.len());
    assert!(out.jobs.iter().all(|j| j.completion > 0.0), "every job completes");
}

/// Pack handles expose live multi-pack state between steps.
#[test]
fn pack_handles_track_progress() {
    let burst: Vec<JobSpec> =
        (0..12).map(|k| JobSpec::new(TaskSpec::new(2.0e6 + 1e5 * f64::from(k)), 0.0)).collect();
    let platform = Platform::new(6);
    let mut session = Scheduler::on(platform)
        .speedup(speedup())
        .staging(PackStaging::oversubscribed())
        .session(&burst)
        .unwrap();
    // After the first arrival burst has been processed, packs are staged.
    let mut saw_active = false;
    while let Some(_event) = session.step().unwrap() {
        if let Some(active) = session.active_pack() {
            saw_active = true;
            let handle = session.pack(active).expect("active pack has a handle");
            assert!(handle.remaining > 0, "active pack with nothing left should rotate");
            // Members are either waiting in this pack, running, or done.
            for &j in &handle.jobs {
                match session.job_state(j) {
                    JobState::Waiting { pack } => assert_eq!(pack, Some(active)),
                    JobState::Running { alloc } => assert!(alloc >= 2),
                    JobState::Completed { .. } | JobState::NotReleased => {}
                }
            }
        }
    }
    assert!(saw_active, "staging never engaged");
    let handles = session.packs();
    assert!(handles.iter().all(|h| h.remaining == 0), "all packs drained at the end");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Multi-pack staging conserves jobs: every arrival completes exactly
    /// once, no job sits in two packs, and drained-pack membership covers
    /// exactly the staged jobs — over random bursts, platforms,
    /// partitioners and strategies.
    #[test]
    fn multipack_staging_conserves_jobs(
        seed in any::<u64>(),
        n_jobs in 6..24usize,
        extra_pairs in 0..6u32,
        burst in 4..12usize,
        partitioner_idx in 0..2usize,
        strategy_idx in 0..3usize,
    ) {
        let p = 4 + 2 * extra_pairs;
        let partitioner = [PackPartitioner::CapacityChunks, PackPartitioner::LptBalanced]
            [partitioner_idx];
        let strategy = [
            OnlineStrategy::no_resize(),
            OnlineStrategy::resizing(Heuristic::IteratedGreedyEndLocal),
            OnlineStrategy::resizing(Heuristic::ShortestTasksFirstEndGreedy),
        ][strategy_idx];
        let mut arrivals = BurstyArrivals::new(seed, burst, 30_000.0);
        let jobs = generate_jobs(&mut arrivals, n_jobs, &JobSizeModel::paper_default(), seed);
        let platform = Platform::with_mtbf(p, units::years(6.0));
        let out = Scheduler::on(platform)
            .speedup(speedup())
            .strategy(strategy)
            .config(OnlineConfig::with_faults(seed ^ 0xFA17, platform.proc_mtbf).recording())
            .staging(PackStaging::Oversubscribed { partitioner })
            .run(&jobs)
            .unwrap();

        // Every arrival completes exactly once.
        let mut ends = vec![0usize; n_jobs];
        let mut arr = vec![0usize; n_jobs];
        for e in out.trace.events() {
            match *e {
                TraceEvent::TaskEnd { task, .. } => ends[task] += 1,
                TraceEvent::JobArrival { job, .. } => arr[job] += 1,
                _ => {}
            }
        }
        prop_assert!(arr.iter().all(|&c| c == 1), "arrival counts {arr:?}");
        prop_assert!(ends.iter().all(|&c| c == 1), "completion counts {ends:?}");
        prop_assert!(out.jobs.iter().all(|j| j.completion > j.start));

        // No pack overlap; pack membership is a subset of the job set.
        let mut member_of = vec![None::<usize>; n_jobs];
        for report in &out.packs {
            for &j in &report.jobs {
                prop_assert!(j < n_jobs);
                prop_assert_eq!(member_of[j], None, "job {} in two packs", j);
                member_of[j] = Some(report.pack);
            }
        }
        // A staged job completes inside its pack's window.
        for report in &out.packs {
            for &j in &report.jobs {
                prop_assert!(out.jobs[j].completion <= report.closed + 1e-9);
            }
        }
    }

    /// Multi-pack staging is deterministic: same stream, same seed, same
    /// partitioner ⇒ byte-identical logs and pack reports.
    #[test]
    fn multipack_staging_is_deterministic(seed in any::<u64>(), partitioner_idx in 0..2usize) {
        let partitioner = [PackPartitioner::CapacityChunks, PackPartitioner::LptBalanced]
            [partitioner_idx];
        let mut a1 = BurstyArrivals::new(seed, 10, 40_000.0);
        let jobs = generate_jobs(&mut a1, 18, &JobSizeModel::paper_default(), seed);
        let platform = Platform::with_mtbf(10, units::years(5.0));
        let build = || {
            Scheduler::on(platform)
                .speedup(speedup())
                .strategy(OnlineStrategy::resizing(Heuristic::IteratedGreedyEndLocal))
                .config(
                    OnlineConfig::with_faults(seed ^ 0xFA17, platform.proc_mtbf).recording(),
                )
                .staging(PackStaging::Oversubscribed { partitioner })
                .run(&jobs)
                .unwrap()
        };
        let a = build();
        let b = build();
        prop_assert_eq!(a.trace.to_csv(), b.trace.to_csv());
        prop_assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
        prop_assert_eq!(a.packs, b.packs);
    }
}

/// The offline `PackSession` stepped pack by pack reports exactly what
/// `run_to_completion()` returns (same derived seeds, same engine runs),
/// and two drains of the same runner agree bit for bit.
#[test]
fn pack_session_steps_match_run_to_completion() {
    let workload = Workload::new(
        vec![
            TaskSpec::new(2.4e5),
            TaskSpec::new(2.1e5),
            TaskSpec::new(1.9e5),
            TaskSpec::new(1.6e5),
            TaskSpec::new(1.4e5),
            TaskSpec::new(1.2e5),
        ],
        speedup(),
    );
    let platform = Platform::with_mtbf(6, units::years(5.0));
    let partition = redistrib_packs::chunk_by_capacity(&workload, 6);
    for (h, seed) in [
        (Heuristic::NoRedistribution, None),
        (Heuristic::IteratedGreedyEndLocal, Some(9)),
        (Heuristic::ShortestTasksFirstEndLocal, Some(21)),
    ] {
        let mut runner = redistrib_packs::PackRunner::new(workload.clone(), platform)
            .partition(partition.clone())
            .heuristic(h);
        if let Some(s) = seed {
            runner = runner.faults(s);
        }
        let drained = runner.clone().session().run_to_completion().unwrap();
        let again = runner.clone().session().run_to_completion().unwrap();
        assert_eq!(drained.makespan.to_bits(), again.makespan.to_bits());
        assert_eq!(drained.pack_outcomes.len(), again.pack_outcomes.len());
        for (a, b) in drained.pack_outcomes.iter().zip(&again.pack_outcomes) {
            assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
            assert_eq!(a.handled_faults, b.handled_faults);
            assert_eq!(a.redistributions, b.redistributions);
        }

        let mut session = runner.session();
        let mut stepped = Vec::new();
        while let Some(event) = session.step().unwrap() {
            stepped.push(event);
        }
        assert_eq!(session.makespan_so_far().to_bits(), drained.makespan.to_bits());
        assert_eq!(stepped.len(), drained.pack_outcomes.len());
        for (k, (event, out)) in stepped.iter().zip(&drained.pack_outcomes).enumerate() {
            assert_eq!(event.pack, k);
            assert_eq!(event.makespan.to_bits(), out.makespan.to_bits());
            assert_eq!(event.handled_faults, out.handled_faults);
            assert_eq!(event.redistributions, out.redistributions);
        }
    }
}
