//! Regression tests of the flat-FIFO online engine — admission,
//! queueing, fault handling, determinism — driven through the
//! `Scheduler` builder and its stepped `Session`.

mod tests {
    use std::sync::Arc;

    use redistrib_core::{Heuristic, ScheduleError};
    use redistrib_model::{JobSpec, PaperModel, Platform};
    use redistrib_sim::trace::TraceEvent;
    use redistrib_sim::units;

    use crate::arrival::{generate_jobs, JobSizeModel, PoissonArrivals};
    use crate::builder::{OnlineConfig, OnlineStrategy, Scheduler};
    use crate::session::OnlineOutcome;

    fn jobs(n: usize, mean_gap: f64, seed: u64) -> Vec<JobSpec> {
        let mut arrivals = PoissonArrivals::new(seed, mean_gap);
        generate_jobs(&mut arrivals, n, &JobSizeModel::paper_default(), seed)
    }

    fn speedup() -> Arc<PaperModel> {
        Arc::new(PaperModel::default())
    }

    /// Every behavior test below runs through the builder.
    fn run(
        jobs: &[JobSpec],
        platform: Platform,
        strategy: OnlineStrategy,
        cfg: OnlineConfig,
    ) -> Result<OnlineOutcome, ScheduleError> {
        Scheduler::on(platform).speedup(speedup()).strategy(strategy).config(cfg).run(jobs)
    }

    #[test]
    fn fault_free_run_completes_all_jobs() {
        let jobs = jobs(12, 20_000.0, 1);
        let out = run(
            &jobs,
            Platform::new(32),
            OnlineStrategy::resizing(Heuristic::IteratedGreedyEndLocal),
            OnlineConfig::fault_free(),
        )
        .unwrap();
        assert_eq!(out.jobs.len(), 12);
        for j in &out.jobs {
            assert!(j.start >= j.release, "job {} started before release", j.job);
            assert!(j.completion > j.start, "job {} has no runtime", j.job);
            assert!(j.stretch().is_finite() && j.stretch() > 0.0);
        }
        assert!(out.metrics.utilization > 0.0 && out.metrics.utilization <= 1.0 + 1e-9);
        assert_eq!(out.handled_faults, 0);
        assert!(out.packs.is_empty(), "flat-FIFO runs never stage packs");
    }

    #[test]
    fn faulty_run_completes_and_counts() {
        let jobs = jobs(8, 50_000.0, 2);
        let platform = Platform::with_mtbf(24, units::years(3.0));
        let out = run(
            &jobs,
            platform,
            OnlineStrategy::resizing(Heuristic::ShortestTasksFirstEndLocal),
            OnlineConfig::with_faults(11, platform.proc_mtbf),
        )
        .unwrap();
        assert!(out.handled_faults > 0, "3-year MTBF must produce faults");
        assert!(out.makespan > 0.0);
        assert_eq!(out.jobs.len(), 8);
    }

    #[test]
    fn deterministic_replay_is_byte_identical() {
        let jobs = jobs(10, 30_000.0, 3);
        let platform = Platform::with_mtbf(16, units::years(4.0));
        let cfg = OnlineConfig::with_faults(5, platform.proc_mtbf).recording();
        let strategy = OnlineStrategy::resizing(Heuristic::IteratedGreedyEndGreedy);
        let a = run(&jobs, platform, strategy, cfg).unwrap();
        let b = run(&jobs, platform, strategy, cfg).unwrap();
        assert_eq!(a.trace.to_csv(), b.trace.to_csv());
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.redistributions, b.redistributions);
    }

    #[test]
    fn saturated_platform_queues_jobs() {
        // 4 processors, simultaneous burst of 6 jobs: at most 2 run at once.
        let burst: Vec<JobSpec> = (0..6)
            .map(|k| {
                JobSpec::new(redistrib_model::TaskSpec::new(1.5e6 + 1e5 * f64::from(k)), 0.0)
            })
            .collect();
        let out = run(
            &burst,
            Platform::new(4),
            OnlineStrategy::no_resize(),
            OnlineConfig::fault_free().recording(),
        )
        .unwrap();
        assert!(out.metrics.max_queue_len >= 4, "queue: {}", out.metrics.max_queue_len);
        let queued = out
            .trace
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::JobQueued { .. }))
            .count();
        assert!(queued >= 4, "expected queued events, got {queued}");
        // All jobs still complete, in bounded makespan.
        assert!(out.jobs.iter().all(|j| j.completion > 0.0));
        // Later jobs waited.
        assert!(out.metrics.mean_wait > 0.0);
    }

    #[test]
    fn resizing_improves_stretch_over_no_resize() {
        // Sparse arrivals on a big machine: resizing lets early jobs widen
        // and newcomers claim fair shares, so the mean stretch improves.
        let jobs = jobs(10, 10_000.0, 7);
        let platform = Platform::with_mtbf(64, units::years(10.0));
        let cfg = OnlineConfig::with_faults(13, platform.proc_mtbf);
        let base = run(&jobs, platform, OnlineStrategy::no_resize(), cfg).unwrap();
        let resized = run(
            &jobs,
            platform,
            OnlineStrategy::resizing(Heuristic::IteratedGreedyEndLocal),
            cfg,
        )
        .unwrap();
        assert!(
            resized.metrics.mean_stretch <= base.metrics.mean_stretch * 1.05,
            "resizing {} vs baseline {}",
            resized.metrics.mean_stretch,
            base.metrics.mean_stretch
        );
        assert!(resized.redistributions > 0);
    }

    #[test]
    fn tiny_platform_is_rejected() {
        let jobs = jobs(2, 1000.0, 1);
        let err = run(
            &jobs,
            Platform::new(1),
            OnlineStrategy::no_resize(),
            OnlineConfig::fault_free(),
        )
        .unwrap_err();
        assert_eq!(err, ScheduleError::InsufficientProcessors { needed: 2, available: 1 });
    }

    #[test]
    fn event_limit_guard() {
        let jobs = jobs(4, 10_000.0, 1);
        let cfg = OnlineConfig { max_events: 2, ..OnlineConfig::fault_free() };
        let err = run(&jobs, Platform::new(16), OnlineStrategy::no_resize(), cfg).unwrap_err();
        assert_eq!(err, ScheduleError::EventLimitExceeded { limit: 2 });
    }

    #[test]
    fn strategy_names() {
        assert_eq!(OnlineStrategy::no_resize().name(), "NoRedistribution");
        assert_eq!(
            OnlineStrategy::resizing(Heuristic::IteratedGreedyEndLocal).name(),
            "IteratedGreedy-EndLocal+arrival"
        );
    }
}
