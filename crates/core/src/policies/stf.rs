//! Algorithm 4: `ShortestTasksFirst` — local fault-time redistribution.
//!
//! Two phases. First, the free processors (if any) are granted to the faulty
//! task as long as they strictly improve its finish time. Second, pairs are
//! *stolen* from the shortest running tasks: a transfer happens only if both
//! the faulty task's new finish time and the donor's new finish time stay
//! strictly below the faulty task's current finish time; stealing stops as
//! soon as a donor would become the new longest task.
//!
//! Pseudocode deviations, each needed for the §3.3.2 behavior: phase 1
//! needs a no-improvement break; phase 2 must run even when no processors
//! are free (otherwise STF could never steal, which is its entire purpose);
//! phase-1 scans extend the faulty task's *current* planned allocation.
//!
//! Two implementations share the semantics:
//!
//! * [`reference_stf`] — the from-scratch path: one donor entry (and one
//!   `α^t` evaluation) per eligible task, `O(n)` per handled fault;
//! * the *incremental* path — donor queries go straight to the pack
//!   state's persistent end-event queue ("the shortest running task" is its
//!   min), and a donor only enters the session overlay (paying its `α^t`)
//!   when the steal loop actually reaches it. A fault costs
//!   `O((stolen + skipped) · log n)`, the affected set, not the pack.
//!
//! The engine selects the incremental path by passing a live eligible view;
//! explicit lists take the reference path. In debug builds every
//! incremental decision is replayed from scratch on a cloned state and the
//! outcomes are compared bit-for-bit.

use redistrib_model::TaskId;

use crate::ctx::{EligibleSet, HeuristicCtx, PlanEntry};
use crate::incremental::{pick_session_entry, IncrementalState, RC_FLOOR_SAFETY};

use super::FaultPolicy;

/// `ShortestTasksFirst` fault policy (Algorithm 4).
#[derive(Debug, Clone, Copy, Default)]
pub struct ShortestTasksFirst;

impl FaultPolicy for ShortestTasksFirst {
    fn on_fault(&self, ctx: &mut HeuristicCtx<'_>, faulty: TaskId) {
        match ctx.eligible {
            EligibleSet::Listed(_) => reference_stf(ctx, faulty),
            EligibleSet::Live { .. } => {
                #[cfg(debug_assertions)]
                let check = crate::incremental::CrossCheck::begin(ctx);
                incremental_stf(ctx, faulty);
                #[cfg(debug_assertions)]
                check.verify(ctx, |ref_ctx| reference_stf(ref_ctx, faulty));
            }
        }
    }
}

/// Phase 1, shared by both paths: hand free processors to the faulty task
/// while the first strictly-improving extension exists. Returns the faulty
/// task's planned `(σ_f, t^U_f)`.
fn grant_free_processors(
    ctx: &mut HeuristicCtx<'_>,
    faulty: TaskId,
    sigma_init_f: u32,
    alpha_f: f64,
) -> (u32, f64) {
    let mut sigma_f = sigma_init_f;
    let mut tu_f = ctx.state.runtime(faulty).t_u;
    let mut k = ctx.state.free_count();
    while k >= 2 {
        // The successful scan evaluation is exactly the granted finish
        // time (σ_f + q), so it is computed once.
        let mut granted = None;
        let mut q = 2;
        while q <= k {
            let te = ctx.candidate_finish(faulty, sigma_init_f, sigma_f + q, alpha_f, true);
            if te < tu_f {
                granted = Some((q, te));
                break;
            }
            q += 2;
        }
        match granted {
            Some((q, te)) => {
                sigma_f += q;
                k -= q;
                tu_f = te;
            }
            None => break,
        }
    }
    (sigma_f, tu_f)
}

/// One phase-2 round against the current shortest donor, shared by both
/// paths: scans transfer sizes q for one keeping both the faulty task's
/// and the donor's new finish times strictly below `t^U_f`; on success
/// transfers one pair (Algorithm 4 line 36), updating the donor's plan and
/// the faulty task's planned `(σ_f, t^U_f)`. Returns whether the steal
/// loop continues — `false` when no transfer improves or the donor became
/// the bottleneck (line 39). The q = 2 evaluations double as the
/// post-transfer finish times (the transfer is always one pair).
fn try_steal_pair(
    ctx: &mut HeuristicCtx<'_>,
    faulty: TaskId,
    sigma_init_f: u32,
    alpha_f: f64,
    sigma_f: &mut u32,
    tu_f: &mut f64,
    donor: &mut PlanEntry,
) -> bool {
    let mut improvable = false;
    let mut q = 2;
    let mut te2 = (f64::INFINITY, f64::INFINITY);
    while q + 2 <= donor.sigma {
        let te_f = ctx.candidate_finish(faulty, sigma_init_f, *sigma_f + q, alpha_f, true);
        let te_s = ctx.candidate_finish(
            donor.task,
            donor.sigma_init,
            donor.sigma - q,
            donor.alpha_t,
            false,
        );
        if q == 2 {
            te2 = (te_f, te_s);
        }
        if te_f < *tu_f && te_s < *tu_f {
            improvable = true;
            break;
        }
        q += 2;
    }
    if !improvable {
        return false;
    }
    *sigma_f += 2;
    *tu_f = te2.0;
    donor.sigma -= 2;
    donor.t_u = te2.1;
    donor.t_u <= *tu_f
}

/// From-scratch `ShortestTasksFirst` (the reference semantics).
pub fn reference_stf(ctx: &mut HeuristicCtx<'_>, faulty: TaskId) {
    let sigma_init_f = ctx.state.sigma(faulty);
    let alpha_f = ctx.state.runtime(faulty).alpha;

    // Donor planning state, in reused scratch storage.
    let mut donors = std::mem::take(&mut ctx.scratch.entries);
    donors.clear();
    ctx.for_each_eligible(|i| {
        if i != faulty {
            donors.push(PlanEntry {
                task: i,
                sigma_init: ctx.state.sigma(i),
                sigma: ctx.state.sigma(i),
                alpha_t: 0.0,
                t_u: ctx.state.runtime(i).t_u,
                faulty: false,
            });
        }
    });
    for d in &mut donors {
        d.alpha_t = ctx.alpha_current(d.task);
    }

    // Phase 1: free processors toward the faulty task.
    let (mut sigma_f, mut tu_f) = grant_free_processors(ctx, faulty, sigma_init_f, alpha_f);

    // Phase 2: steal pairs from the shortest tasks.
    // The shortest donor still holding at least 4 processors.
    let shortest_donor = |donors: &[PlanEntry]| {
        donors
            .iter()
            .enumerate()
            .filter(|(_, d)| d.sigma >= 4)
            .min_by(|(_, a), (_, b)| a.t_u.partial_cmp(&b.t_u).expect("finite"))
            .map(|(x, _)| x)
    };
    while let Some(s) = shortest_donor(&donors) {
        let mut donor = donors[s];
        let go = try_steal_pair(
            ctx,
            faulty,
            sigma_init_f,
            alpha_f,
            &mut sigma_f,
            &mut tu_f,
            &mut donor,
        );
        donors[s] = donor;
        if !go {
            break;
        }
    }

    // Commit: donors first, then the faulty task's own move.
    donors.push(PlanEntry {
        task: faulty,
        sigma_init: sigma_init_f,
        sigma: sigma_f,
        alpha_t: alpha_f,
        t_u: tu_f,
        faulty: true,
    });
    ctx.scratch.entries = donors;
    ctx.commit_entries();
}

/// Incremental `ShortestTasksFirst`: identical decisions, with donors
/// discovered lazily through the persistent end-event queue.
fn incremental_stf(ctx: &mut HeuristicCtx<'_>, faulty: TaskId) {
    let sigma_init_f = ctx.state.sigma(faulty);
    let alpha_f = ctx.state.runtime(faulty).alpha;
    let now = ctx.now;
    let EligibleSet::Live { skip, min_t_u } = ctx.eligible else {
        unreachable!("incremental path requires a live eligible view")
    };
    debug_assert_eq!(skip, Some(faulty), "fault decisions must skip the faulty task");

    // Phase 1: free processors toward the faulty task (no donors needed).
    let (mut sigma_f, mut tu_f) = grant_free_processors(ctx, faulty, sigma_init_f, alpha_f);

    // Redistribution-cost floor for donors (see `RC_FLOOR_SAFETY`): a
    // steal needs the donor's shrunk finish time `now + RC + … ≥ now +
    // m_s/σ_s` to stay *strictly below* `t^U_f`, so when `t^U_f − now`
    // is at or below the workload-wide floor `m_min/σ_hi` no donor can
    // ever qualify — skip the donor session outright (the common case
    // once the pack is past its redistribution-pays-off phase).
    let m_min = ctx.calc.min_task_size();
    let sigma_hi = f64::from(ctx.state.sigma_high_water());
    let donors_hopeless = |tu_f: f64| tu_f - ctx.now <= RC_FLOOR_SAFETY * m_min / sigma_hi;
    if donors_hopeless(tu_f) {
        let mut entries = std::mem::take(&mut ctx.scratch.entries);
        entries.clear();
        entries.push(PlanEntry {
            task: faulty,
            sigma_init: sigma_init_f,
            sigma: sigma_f,
            alpha_t: alpha_f,
            t_u: tu_f,
            faulty: true,
        });
        ctx.scratch.entries = entries;
        ctx.commit_entries();
        return;
    }

    // Phase 2: steal pairs from the shortest tasks, pulling donors off the
    // persistent end-event queue ("shortest running" = queue minimum) and
    // adopting them into the session overlay only when the steal loop
    // reaches them.
    let mut overlay = std::mem::take(&mut ctx.scratch.overlay);
    overlay.begin_session(ctx.state.num_tasks());
    let mut stash = std::mem::take(&mut overlay.stash);
    let mut ends = ctx.state.take_end_queue();

    loop {
        let heap_donor = {
            let state = &*ctx.state;
            ends.peek_where(&mut stash, |i| {
                let rt = state.runtime(i);
                i != faulty
                    && !overlay.is_touched(i)
                    && rt.t_last_r <= now
                    && rt.t_u >= min_t_u
                    && state.sigma(i) >= 4
            })
        };
        let over_best = overlay.best_min_donor();
        let picked = pick_session_entry(
            heap_donor,
            over_best,
            |a, b| a < b,
            |i, v| {
                ends.take_top(&mut stash);
                let sigma_init = ctx.state.sigma(i);
                let alpha_t = ctx.alpha_current(i);
                overlay.adopt(PlanEntry {
                    task: i,
                    sigma_init,
                    sigma: sigma_init,
                    alpha_t,
                    t_u: v,
                    faulty: false,
                })
            },
        );
        let Some(slot) = picked else {
            break;
        };

        let (donor_task, donor_init) = {
            let d = &overlay.entry(slot).plan;
            (d.task, d.sigma_init)
        };

        // Donor floor: its shrunk finish time is ≥ now + m_s/σ_init, so if
        // that already reaches t^U_f the scan below cannot succeed.
        if tu_f - now
            <= RC_FLOOR_SAFETY * ctx.calc.task_size(donor_task) / f64::from(donor_init)
        {
            break;
        }

        let mut donor = overlay.entry(slot).plan;
        let go = try_steal_pair(
            ctx,
            faulty,
            sigma_init_f,
            alpha_f,
            &mut sigma_f,
            &mut tu_f,
            &mut donor,
        );
        overlay.entry_mut(slot).plan = donor;
        if !go {
            break;
        }
    }

    // Session end: restore the queue, then commit donors (ascending id)
    // followed by the faulty task's own move — the reference commit order.
    ends.restore(&mut stash);
    ctx.state.put_end_queue(ends);
    overlay.stash = stash;
    let mut entries = std::mem::take(&mut ctx.scratch.entries);
    overlay.drain_plans_sorted(&mut entries);
    entries.push(PlanEntry {
        task: faulty,
        sigma_init: sigma_init_f,
        sigma: sigma_f,
        alpha_t: alpha_f,
        t_u: tu_f,
        faulty: true,
    });
    ctx.scratch.entries = entries;
    ctx.scratch.overlay = overlay;
    ctx.commit_entries();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::PolicyScratch;
    use crate::state::PackState;
    use redistrib_model::{PaperModel, Platform, TaskSpec, TimeCalc, Workload};
    use redistrib_sim::trace::TraceLog;
    use redistrib_sim::units;
    use std::sync::Arc;

    /// Builds a pack where task 0 just failed (rolled back to α = 1) and is
    /// the longest task.
    fn fixture(sigmas: &[u32], p: u32) -> (TimeCalc, PackState, f64) {
        // Distinct sizes: exact finish-time ties between donors would be
        // broken differently by `min_by` scans of different list layouts.
        let sizes: Vec<f64> = (0..sigmas.len()).map(|i| 2.0e6 + 1.0e4 * i as f64).collect();
        let workload = Workload::new(
            sizes.iter().map(|&m| TaskSpec::new(m)).collect(),
            Arc::new(PaperModel::default()),
        );
        let calc = TimeCalc::new(workload, Platform::with_mtbf(p, units::years(100.0)));
        let mut state = PackState::new(p, sigmas);
        let t = 5000.0;
        for (i, &s) in sigmas.iter().enumerate() {
            let tu = calc.remaining(i, s, 1.0);
            state.set_t_u(i, tu);
        }
        // Fault bookkeeping for task 0 (as the engine would do).
        let j = sigmas[0];
        let d = calc.platform().downtime;
        let r = calc.recovery_time(0, j);
        let anchor = t + d + r;
        let rem = calc.remaining(0, j, 1.0);
        {
            let rt = state.runtime_mut(0);
            rt.alpha = 1.0;
            rt.t_last_r = anchor;
        }
        state.set_t_u(0, anchor + rem);
        (calc, state, t)
    }

    fn run_stf(calc: &TimeCalc, state: &mut PackState, now: f64) -> u64 {
        let mut trace = TraceLog::disabled();
        let mut count = 0;
        let eligible: Vec<usize> = state.active_tasks().filter(|&i| i != 0).collect();
        let mut scratch = PolicyScratch::default();
        let mut ctx = HeuristicCtx {
            calc,
            state,
            trace: &mut trace,
            now,
            eligible: EligibleSet::Listed(&eligible),
            scratch: &mut scratch,
            pseudocode_fault_bias: false,
            redistributions: &mut count,
        };
        ShortestTasksFirst.on_fault(&mut ctx, 0);
        count
    }

    /// Runs the incremental (live-view) path, with its built-in debug
    /// cross-check against the reference active.
    fn run_stf_live(calc: &TimeCalc, state: &mut PackState, now: f64) -> u64 {
        let mut trace = TraceLog::disabled();
        let mut count = 0;
        let mut scratch = PolicyScratch::default();
        let mut ctx = HeuristicCtx {
            calc,
            state,
            trace: &mut trace,
            now,
            eligible: EligibleSet::live_fault(0, f64::NEG_INFINITY),
            scratch: &mut scratch,
            pseudocode_fault_bias: false,
            redistributions: &mut count,
        };
        ShortestTasksFirst.on_fault(&mut ctx, 0);
        count
    }

    #[test]
    fn grants_free_processors_first() {
        // 4 free processors; faulty task should absorb them.
        let (calc, mut state, t) = fixture(&[4, 4], 12);
        let tu_before = state.runtime(0).t_u;
        run_stf(&calc, &mut state, t);
        assert!(state.sigma(0) > 4, "faulty task should gain");
        assert!(state.runtime(0).t_u < tu_before);
        assert!(state.check_invariants());
    }

    #[test]
    fn steals_from_shortest_when_pool_empty() {
        // No free processors: 4 + 8 on 12. The faulty task (longest, it
        // just lost all its work) steals from the other.
        let (calc, mut state, t) = fixture(&[4, 8], 12);
        let count = run_stf(&calc, &mut state, t);
        assert!(count >= 2, "a steal moves two tasks");
        assert!(state.sigma(0) > 4);
        assert!(state.sigma(1) < 8);
        assert!(state.check_invariants());
    }

    #[test]
    fn never_starves_donor_below_two() {
        let (calc, mut state, t) = fixture(&[4, 4], 8);
        run_stf(&calc, &mut state, t);
        assert!(state.sigma(1) >= 2, "donors keep at least one buddy pair");
    }

    #[test]
    fn donor_with_only_two_procs_is_untouchable() {
        let (calc, mut state, t) = fixture(&[6, 2], 8);
        let count = run_stf(&calc, &mut state, t);
        assert_eq!(count, 0, "no donor with σ ≥ 4 exists and no procs free");
        assert_eq!(state.sigma(1), 2);
    }

    #[test]
    fn donor_finish_time_stays_below_faulty() {
        let (calc, mut state, t) = fixture(&[4, 10, 10], 24);
        run_stf(&calc, &mut state, t);
        let tu_f = state.runtime(0).t_u;
        // Donors were only tapped while their new finish stayed below the
        // faulty task's *pre-transfer* finish; allow the final post-commit
        // ordering to show donors at most marginally above.
        for i in [1usize, 2] {
            assert!(
                state.runtime(i).t_u <= tu_f * 1.05,
                "donor {i} left far above the faulty task"
            );
        }
        assert!(state.check_invariants());
    }

    #[test]
    fn ineligible_tasks_are_not_donors() {
        let (calc, mut state, t) = fixture(&[4, 8], 12);
        let mut trace = TraceLog::disabled();
        let mut count = 0;
        let eligible: Vec<usize> = vec![]; // task 1 mid-redistribution
        let mut scratch = PolicyScratch::default();
        let mut ctx = HeuristicCtx {
            calc: &calc,
            state: &mut state,
            trace: &mut trace,
            now: t,
            eligible: EligibleSet::Listed(&eligible),
            scratch: &mut scratch,
            pseudocode_fault_bias: false,
            redistributions: &mut count,
        };
        ShortestTasksFirst.on_fault(&mut ctx, 0);
        assert_eq!(state.sigma(1), 8, "ineligible task must keep its procs");
        assert_eq!(count, 0);
    }

    #[test]
    fn deterministic() {
        let (c1, mut s1, t) = fixture(&[4, 8, 6], 20);
        let (c2, mut s2, _) = fixture(&[4, 8, 6], 20);
        run_stf(&c1, &mut s1, t);
        run_stf(&c2, &mut s2, t);
        for i in 0..3 {
            assert_eq!(s1.sigma(i), s2.sigma(i));
            assert_eq!(s1.runtime(i).t_u, s2.runtime(i).t_u);
        }
    }

    #[test]
    fn incremental_matches_reference() {
        for sigmas in [&[4u32, 8][..], &[4, 8, 6], &[4, 10, 10], &[6, 2]] {
            let p: u32 = sigmas.iter().sum::<u32>() + 4;
            let (calc, mut a, t) = fixture(sigmas, p);
            let (_, mut b, _) = fixture(sigmas, p);
            let ca = run_stf(&calc, &mut a, t);
            let cb = run_stf_live(&calc, &mut b, t);
            assert_eq!(ca, cb, "sigmas={sigmas:?}");
            assert!(a.assignment_eq(&b), "sigmas={sigmas:?}");
        }
    }
}
