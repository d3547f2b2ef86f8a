//! Algorithm 2: the event-driven co-scheduling engine.
//!
//! Simulates the execution of one pack on a failure-prone platform:
//!
//! 1. the initial allocation comes from Algorithm 1
//!    ([`crate::optimal::optimal_schedule`]);
//! 2. events are task *ends* (at the current expected finish times `t^U_i`)
//!    and processor *faults* (from policy-independent per-processor
//!    streams);
//! 3. at a task end, the end policy may redistribute the released
//!    processors; at a fault, the struck task rolls back to its last
//!    checkpoint, pays downtime + recovery, and — if it became the longest
//!    task — the fault policy may redistribute processors toward it.
//!
//! Where the pseudocode is ambiguous, an end fires at the task's current
//! expected finish time `t^U` and wins a tie with a fault; a fault on an
//! idle processor or inside a downtime/recovery/redistribution window is
//! discarded (§6.1); and tasks finishing inside the struck task's recovery
//! window complete before the fault policy runs. Each is flagged below.

use redistrib_model::{ExecutionMode, TaskId, TimeCalc};
use redistrib_sim::dist::FaultLaw;
use redistrib_sim::faults::FaultSource;
use redistrib_sim::trace::{TraceEvent, TraceLog};

use crate::ctx::{EligibleSet, HeuristicCtx, PolicyScratch};
use crate::error::ScheduleError;
use crate::optimal::optimal_schedule;
use crate::policies::{EndPolicy, FaultPolicy};
use crate::state::PackState;

/// Fault-injection configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed of the per-processor fault streams (same seed ⇒ same trace,
    /// whatever the policy).
    pub seed: u64,
    /// Inter-arrival law (the paper: exponential with the platform MTBF).
    pub law: FaultLaw,
}

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Fault injection; `None` runs without failures (required when the
    /// calculator is in fault-free mode).
    pub faults: Option<FaultConfig>,
    /// Record a full event trace (Fig. 9 series). Off for large sweeps.
    pub record_trace: bool,
    /// Ablation: reproduce the literal pseudocode of Algorithms 4–5, which
    /// omits downtime + recovery from the faulty task's candidate finish
    /// times (biasing toward redistribution). Default `false` (§3.3.2 text).
    pub pseudocode_fault_bias: bool,
    /// Run the policies through the from-scratch reference path (an
    /// eligible list materialized per event) instead of the incremental
    /// live view. Slower; kept for equivalence testing — outcomes are
    /// byte-identical by construction.
    pub reference_policies: bool,
    /// Safety cap on processed events.
    pub max_events: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            faults: None,
            record_trace: false,
            pseudocode_fault_bias: false,
            reference_policies: false,
            max_events: 100_000_000,
        }
    }
}

impl EngineConfig {
    /// Fault-free configuration (no failures injected).
    #[must_use]
    pub fn fault_free() -> Self {
        Self::default()
    }

    /// Configuration with exponential faults of the given per-processor
    /// MTBF (seconds), seeded for replay.
    #[must_use]
    pub fn with_faults(seed: u64, proc_mtbf: f64) -> Self {
        Self {
            faults: Some(FaultConfig { seed, law: FaultLaw::Exponential { mtbf: proc_mtbf } }),
            ..Self::default()
        }
    }

    /// Enables trace recording.
    #[must_use]
    pub fn recording(mut self) -> Self {
        self.record_trace = true;
        self
    }
}

/// Result of one simulated execution.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Completion time of the last task (the pack's makespan).
    pub makespan: f64,
    /// Faults that struck a running task and were handled.
    pub handled_faults: u64,
    /// Faults discarded (idle processor, or protected
    /// downtime/recovery/redistribution window).
    pub discarded_faults: u64,
    /// Discarded faults that would have struck a task inside its post-fault
    /// recovery window — the double-checkpointing "fatal risk" events
    /// (§2.2; the paper's simulations ignore fatality, so do we, but we
    /// count the exposure).
    pub fatal_risk_events: u64,
    /// Committed reallocations (one per task whose σ changed).
    pub redistributions: u64,
    /// The Algorithm 1 allocation the run started from.
    pub initial_allocation: Vec<u32>,
    /// Event trace (empty unless `record_trace`).
    pub trace: TraceLog,
}

/// Runs one pack to completion under the given policies.
///
/// # Errors
/// [`ScheduleError::InsufficientProcessors`] if the platform cannot host the
/// pack; [`ScheduleError::EventLimitExceeded`] if the safety cap is hit.
///
/// # Panics
/// Panics if faults are configured while the calculator is in fault-free
/// mode (inconsistent setup).
pub fn run(
    calc: &TimeCalc,
    end_policy: &dyn EndPolicy,
    fault_policy: &dyn FaultPolicy,
    cfg: &EngineConfig,
) -> Result<RunOutcome, ScheduleError> {
    assert!(
        !(matches!(calc.mode(), ExecutionMode::FaultFree) && cfg.faults.is_some()),
        "fault injection requires a fault-aware calculator"
    );
    let p = calc.platform().num_procs;
    let n = calc.num_tasks();

    let sigma = optimal_schedule(calc, p)?;
    let mut state = PackState::new(p, &sigma);
    for (i, &s) in sigma.iter().enumerate() {
        state.set_t_u(i, calc.remaining(i, s, 1.0));
    }

    let mut faults: Option<FaultSource> =
        cfg.faults.map(|fc| FaultSource::new(fc.seed, p, fc.law));
    let mut trace = if cfg.record_trace { TraceLog::enabled() } else { TraceLog::disabled() };
    let mut redistributions = 0u64;
    let mut handled_faults = 0u64;
    let mut discarded_faults = 0u64;
    let mut fatal_risk_events = 0u64;
    // Per-task end of the post-fault recovery window, for fatal-risk
    // accounting.
    let mut recovery_until = vec![0.0f64; n];
    // Reusable event-loop buffers: steady-state events allocate nothing.
    let mut eligible: Vec<TaskId> = Vec::new();
    let mut finishing: Vec<TaskId> = Vec::new();
    let mut scratch = PolicyScratch::default();

    let mut events = 0u64;
    while state.active_count() > 0 {
        events += 1;
        if events > cfg.max_events {
            return Err(ScheduleError::EventLimitExceeded { limit: cfg.max_events });
        }

        let (end_task, t_end) = state.earliest_active().expect("active tasks remain");
        let t_fault = faults.as_ref().and_then(FaultSource::peek_time);

        if t_fault.is_none_or(|tf| t_end <= tf) {
            // ---- Task end event -------------------------------------------------
            state.complete(end_task, t_end);
            trace.push(TraceEvent::TaskEnd { time: t_end, task: end_task });
            if state.active_count() > 0 && state.free_count() >= 2 && !end_policy.is_noop() {
                // Participants exclude tasks still inside a previous
                // redistribution window (Algorithm 2 line 15) — derived
                // lazily by the incremental policies, or materialized here
                // for the reference path.
                let eligible_set = if cfg.reference_policies {
                    eligible.clear();
                    eligible.extend(
                        state.active_tasks().filter(|&i| state.runtime(i).t_last_r <= t_end),
                    );
                    EligibleSet::Listed(&eligible)
                } else {
                    EligibleSet::live()
                };
                let mut ctx = HeuristicCtx {
                    calc,
                    state: &mut state,
                    trace: &mut trace,
                    now: t_end,
                    eligible: eligible_set,
                    scratch: &mut scratch,
                    pseudocode_fault_bias: cfg.pseudocode_fault_bias,
                    redistributions: &mut redistributions,
                };
                end_policy.on_task_end(&mut ctx);
            }
        } else {
            // ---- Fault event ----------------------------------------------------
            let fault = faults
                .as_mut()
                .expect("t_fault was Some")
                .next_fault()
                .expect("stream is infinite");
            let t = fault.time;
            let struck = state.owner(fault.proc);
            let Some(f) = struck else {
                // Idle processor: nothing to lose.
                discarded_faults += 1;
                trace.push(TraceEvent::FaultDiscarded { time: t, proc: fault.proc });
                continue;
            };
            if t < state.runtime(f).t_last_r {
                // Protected window: downtime/recovery/redistribution in
                // progress (§6.1: failures cannot strike there).
                discarded_faults += 1;
                if t < recovery_until[f] {
                    fatal_risk_events += 1;
                }
                trace.push(TraceEvent::FaultDiscarded { time: t, proc: fault.proc });
                continue;
            }

            handled_faults += 1;
            // Roll the faulty task back to its last checkpoint (Algorithm 2
            // lines 23–26).
            let j = state.sigma(f);
            let elapsed = t - state.runtime(f).t_last_r;
            let retained = calc.progress_faulty(f, j, elapsed);
            let d = calc.downtime();
            let r = calc.recovery_time(f, j);
            let anchor = t + d + r;
            {
                let rt = state.runtime_mut(f);
                rt.alpha = (rt.alpha - retained).max(0.0);
                rt.t_last_r = anchor;
            }
            let remaining = calc.remaining(f, j, state.runtime(f).alpha);
            state.set_t_u(f, anchor + remaining);
            recovery_until[f] = anchor;
            trace.push(TraceEvent::Fault { time: t, proc: fault.proc, task: f });

            // Tasks that finish during the recovery window complete now and
            // release their processors (Algorithm 2 line 28). The faulty
            // task's own finish time is ≥ `anchor` by construction, so the
            // queue drain never returns it.
            state.drain_ending_before(anchor, &mut finishing);
            for &i in &finishing {
                let tu = state.runtime(i).t_u;
                state.complete(i, tu);
                trace.push(TraceEvent::TaskEnd { time: tu, task: i });
            }

            // Invoke the fault policy only if the faulty task is now the
            // longest (Algorithm 2 line 30) — an O(1) amortized
            // latest-queue peek instead of a linear scan.
            let tu_f = state.runtime(f).t_u;
            let is_longest = state.none_later_than(tu_f);
            if is_longest && !fault_policy.is_noop() {
                let eligible_set = if cfg.reference_policies {
                    eligible.clear();
                    eligible.extend(
                        state
                            .active_tasks()
                            .filter(|&i| i != f && state.runtime(i).t_last_r <= t),
                    );
                    EligibleSet::Listed(&eligible)
                } else {
                    EligibleSet::live_fault(f, f64::NEG_INFINITY)
                };
                let mut ctx = HeuristicCtx {
                    calc,
                    state: &mut state,
                    trace: &mut trace,
                    now: t,
                    eligible: eligible_set,
                    scratch: &mut scratch,
                    pseudocode_fault_bias: cfg.pseudocode_fault_bias,
                    redistributions: &mut redistributions,
                };
                fault_policy.on_fault(&mut ctx, f);
            }
            if trace.is_enabled() {
                // The Fig. 9 per-fault snapshot costs O(n) + a stddev pass:
                // only compute it when a trace is actually recorded.
                let makespan = state.makespan_estimate();
                let stddev = state.alloc_stddev();
                trace.push(TraceEvent::MakespanEstimate {
                    time: t,
                    makespan,
                    alloc_stddev: stddev,
                });
            }
        }
    }

    let makespan = state.makespan_estimate();
    Ok(RunOutcome {
        makespan,
        handled_faults,
        discarded_faults,
        fatal_risk_events,
        redistributions,
        initial_allocation: sigma,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::{
        EndGreedy, EndLocal, Heuristic, IteratedGreedy, NoEndRedistribution,
        NoFaultRedistribution, ShortestTasksFirst,
    };
    use redistrib_model::{PaperModel, Platform, TaskSpec, TimeCalc, Workload};
    use redistrib_sim::units;
    use std::sync::Arc;

    fn workload(n: usize, seed: u64) -> Workload {
        // Small deterministic spread of sizes.
        let tasks = (0..n)
            .map(|i| {
                let x = ((i as u64).wrapping_mul(2654435761).wrapping_add(seed) % 1000) as f64;
                TaskSpec::new(1.5e6 + 1000.0 * x)
            })
            .collect();
        Workload::new(tasks, Arc::new(PaperModel::default()))
    }

    fn fault_calc(n: usize, p: u32, mtbf_years: f64) -> TimeCalc {
        TimeCalc::new(workload(n, 7), Platform::with_mtbf(p, units::years(mtbf_years)))
    }

    #[test]
    fn fault_free_run_completes() {
        let calc = TimeCalc::fault_free(workload(5, 1), Platform::new(20));
        let out = run(
            &calc,
            &NoEndRedistribution,
            &NoFaultRedistribution,
            &EngineConfig::fault_free(),
        )
        .unwrap();
        assert!(out.makespan > 0.0);
        assert_eq!(out.handled_faults, 0);
        assert_eq!(out.redistributions, 0);
    }

    #[test]
    fn fault_free_makespan_equals_alg1_prediction() {
        // Without redistribution and without faults, the makespan is the
        // longest initial expected time.
        let calc = TimeCalc::fault_free(workload(4, 2), Platform::new(16));
        let sigma = optimal_schedule(&calc, 16).unwrap();
        let predicted = sigma
            .iter()
            .enumerate()
            .map(|(i, &s)| calc.remaining(i, s, 1.0))
            .fold(0.0, f64::max);
        let out = run(
            &calc,
            &NoEndRedistribution,
            &NoFaultRedistribution,
            &EngineConfig::fault_free(),
        )
        .unwrap();
        assert!((out.makespan - predicted).abs() / predicted < 1e-12);
    }

    #[test]
    fn fault_free_redistribution_never_hurts() {
        for n in [3usize, 6, 10] {
            let base = TimeCalc::fault_free(workload(n, 3), Platform::new(40));
            let without = run(
                &base,
                &NoEndRedistribution,
                &NoFaultRedistribution,
                &EngineConfig::fault_free(),
            )
            .unwrap();
            let with = TimeCalc::fault_free(workload(n, 3), Platform::new(40));
            let with_rc =
                run(&with, &EndLocal, &NoFaultRedistribution, &EngineConfig::fault_free())
                    .unwrap();
            assert!(
                with_rc.makespan <= without.makespan * (1.0 + 1e-9),
                "n={n}: RC {} vs no-RC {}",
                with_rc.makespan,
                without.makespan
            );
        }
    }

    #[test]
    fn faulty_run_completes_and_counts_faults() {
        let calc = fault_calc(5, 20, 3.0);
        let out = run(
            &calc,
            &NoEndRedistribution,
            &NoFaultRedistribution,
            &EngineConfig::with_faults(11, units::years(3.0)),
        )
        .unwrap();
        assert!(out.makespan > 0.0);
        assert!(out.handled_faults > 0, "a 3-year MTBF must produce faults");
    }

    #[test]
    fn faults_inflate_makespan() {
        let ff = fault_calc(5, 20, 100.0);
        let no_faults =
            run(&ff, &NoEndRedistribution, &NoFaultRedistribution, &EngineConfig::fault_free())
                .unwrap();
        let fa = fault_calc(5, 20, 100.0);
        let with_faults = run(
            &fa,
            &NoEndRedistribution,
            &NoFaultRedistribution,
            &EngineConfig::with_faults(13, units::years(2.0)),
        )
        .unwrap();
        assert!(with_faults.makespan >= no_faults.makespan);
    }

    #[test]
    fn deterministic_replay() {
        for heuristic in
            [Heuristic::IteratedGreedyEndLocal, Heuristic::ShortestTasksFirstEndLocal]
        {
            let cfg = EngineConfig::with_faults(42, units::years(5.0));
            let c1 = fault_calc(6, 24, 5.0);
            let o1 =
                run(&c1, &*heuristic.end_policy(), &*heuristic.fault_policy(), &cfg).unwrap();
            let c2 = fault_calc(6, 24, 5.0);
            let o2 =
                run(&c2, &*heuristic.end_policy(), &*heuristic.fault_policy(), &cfg).unwrap();
            assert_eq!(o1.makespan, o2.makespan);
            assert_eq!(o1.handled_faults, o2.handled_faults);
            assert_eq!(o1.redistributions, o2.redistributions);
        }
    }

    #[test]
    fn policies_redistribute_under_faults() {
        let cfg = EngineConfig::with_faults(7, units::years(4.0));
        let calc = fault_calc(6, 24, 4.0);
        let out = run(&calc, &EndLocal, &IteratedGreedy, &cfg).unwrap();
        assert!(
            out.redistributions > 0,
            "IG should redistribute on some of the {} faults",
            out.handled_faults
        );
    }

    #[test]
    fn stf_runs_under_faults() {
        let cfg = EngineConfig::with_faults(19, units::years(4.0));
        let calc = fault_calc(6, 24, 4.0);
        let out = run(&calc, &EndGreedy, &ShortestTasksFirst, &cfg).unwrap();
        assert!(out.makespan.is_finite());
    }

    #[test]
    fn approx_warm_greedy_runs_and_replays() {
        // The opt-in approximate WarmGreedy combination (resume-from-
        // committed, grow-only) must complete under fault pressure,
        // redistribute at task ends (free pairs flow to the longest
        // planned finish times) and replay deterministically — there is no
        // reference equivalence to assert, that is the point of the
        // variant.
        let h = Heuristic::WarmGreedy;
        let cfg = EngineConfig::with_faults(23, units::years(4.0)).recording();
        let c1 = fault_calc(6, 28, 4.0);
        let o1 = run(&c1, &*h.end_policy(), &*h.fault_policy(), &cfg).unwrap();
        let c2 = fault_calc(6, 28, 4.0);
        let o2 = run(&c2, &*h.end_policy(), &*h.fault_policy(), &cfg).unwrap();
        assert!(o1.makespan.is_finite() && o1.makespan > 0.0);
        assert!(o1.redistributions > 0, "task ends must trigger warm grants");
        assert_eq!(o1.makespan.to_bits(), o2.makespan.to_bits());
        assert_eq!(o1.redistributions, o2.redistributions);
        assert_eq!(o1.trace.to_csv(), o2.trace.to_csv());
    }

    #[test]
    fn trace_recording() {
        let cfg = EngineConfig::with_faults(3, units::years(4.0)).recording();
        let calc = fault_calc(4, 16, 4.0);
        let out = run(&calc, &EndLocal, &IteratedGreedy, &cfg).unwrap();
        assert_eq!(out.trace.fault_count() as u64, out.handled_faults);
        assert_eq!(out.trace.redistribution_count() as u64, out.redistributions);
        // One makespan snapshot per handled fault.
        assert_eq!(out.trace.makespan_series().count() as u64, out.handled_faults);
        // Task ends are recorded for every task.
        let ends = out
            .trace
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::TaskEnd { .. }))
            .count();
        assert_eq!(ends, 4);
    }

    #[test]
    fn insufficient_processors_error() {
        let calc = fault_calc(5, 8, 100.0);
        let err = run(
            &calc,
            &NoEndRedistribution,
            &NoFaultRedistribution,
            &EngineConfig::fault_free(),
        )
        .unwrap_err();
        assert_eq!(err, ScheduleError::InsufficientProcessors { needed: 10, available: 8 });
    }

    #[test]
    #[should_panic(expected = "fault injection requires a fault-aware calculator")]
    fn fault_free_calc_with_faults_panics() {
        let calc = TimeCalc::fault_free(workload(2, 1), Platform::new(8));
        let _ = run(
            &calc,
            &NoEndRedistribution,
            &NoFaultRedistribution,
            &EngineConfig::with_faults(1, units::years(1.0)),
        );
    }

    #[test]
    fn same_seed_same_fault_exposure_across_policies() {
        // The fault *trace* is policy-independent; the number of handled
        // faults may differ (different allocations), but the engine must
        // consume the identical stream. We check replay instead: two
        // different policies, same seed, still deterministic per policy.
        let cfg = EngineConfig::with_faults(77, units::years(5.0));
        let a1 = fault_calc(5, 20, 5.0);
        let a2 = fault_calc(5, 20, 5.0);
        let r1 = run(&a1, &EndLocal, &ShortestTasksFirst, &cfg).unwrap();
        let r2 = run(&a2, &EndLocal, &ShortestTasksFirst, &cfg).unwrap();
        assert_eq!(r1.makespan, r2.makespan);
    }

    #[test]
    fn event_limit_guard() {
        let calc = fault_calc(3, 12, 100.0);
        let cfg = EngineConfig { max_events: 2, ..EngineConfig::fault_free() };
        let err = run(&calc, &NoEndRedistribution, &NoFaultRedistribution, &cfg).unwrap_err();
        assert_eq!(err, ScheduleError::EventLimitExceeded { limit: 2 });
    }
}
