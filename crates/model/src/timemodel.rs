//! Unified time calculator used by the scheduling engine and heuristics.
//!
//! [`TimeCalc`] evaluates every time-related quantity of the model for a
//! given workload and platform, in one of two execution modes:
//!
//! * **fault-aware** (the paper's main setting): remaining times are the
//!   expected times `t^R_{i,j}(α)` of Eq. 4, checkpoints and recoveries have
//!   their §3.1 costs;
//! * **fault-free** (§3.3.1, used for Figs. 5–6 and the best-case reference
//!   curve): no failures, no checkpoints; remaining time is `α·t_{i,j}`.
//!
//! Per-(task, allocation) parameters live in a dense [`TimeTable`] covering
//! every `j ∈ 1..=p` (odd and even alike), filled through interior
//! mutability: all queries take `&self`, so one calculator can be shared
//! across threads behind an `Arc` and across the variants of a campaign
//! run. Repeated evaluations cost one `exp` each.

use crate::checkpoint::PeriodRule;
use crate::expected::AllocParams;
use crate::platform::Platform;
use crate::table::TimeTable;
use crate::task::{TaskId, Workload};

/// Execution mode of the calculator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// Failures, checkpoints, downtime, recovery (the paper's main model).
    #[default]
    FaultAware,
    /// No failures and no checkpoints (§3.3.1).
    FaultFree,
}

/// How the engine converts a task's remaining fraction into the time of its
/// *end event*. Algorithm 2 leaves it open; the default reads it as the
/// expected finish time, with expected fault delays already priced in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EndSemantics {
    /// End events fire at the current expected finish time
    /// `t^U = tlastR + t^R(α)` — the literal Algorithm 2 (default).
    #[default]
    Expected,
    /// Ablation: end events fire after the fault-free time plus checkpoint
    /// overhead `α·t + N^ff(α)·C`; faults are then the only delay source.
    FaultFreeProjection,
}

/// Calculator for all model quantities of one `(workload, platform)` pair.
#[derive(Debug, Clone)]
pub struct TimeCalc {
    workload: Workload,
    platform: Platform,
    rule: PeriodRule,
    mode: ExecutionMode,
    end_semantics: EndSemantics,
    table: TimeTable,
    /// Cached `min_i m_i` (the workload is immutable once wrapped).
    min_size: f64,
}

impl TimeCalc {
    /// Creates a fault-aware calculator (Young periods, `Expected` end
    /// semantics).
    #[must_use]
    pub fn new(workload: Workload, platform: Platform) -> Self {
        let n = workload.len();
        let p = platform.num_procs;
        let min_size = workload.tasks.iter().map(|t| t.size).fold(f64::INFINITY, f64::min);
        Self {
            workload,
            platform,
            rule: PeriodRule::Young,
            mode: ExecutionMode::FaultAware,
            end_semantics: EndSemantics::Expected,
            table: TimeTable::new(n, p),
            min_size,
        }
    }

    /// Creates a fault-free calculator (§3.3.1: no failures, no
    /// checkpoints).
    #[must_use]
    pub fn fault_free(workload: Workload, platform: Platform) -> Self {
        let mut calc = Self::new(workload, platform);
        calc.mode = ExecutionMode::FaultFree;
        calc
    }

    /// Selects the checkpoint-period rule (default Young, Eq. 1).
    #[must_use]
    pub fn with_period_rule(mut self, rule: PeriodRule) -> Self {
        self.rule = rule;
        self.table = TimeTable::new(self.workload.len(), self.platform.num_procs);
        self
    }

    /// Selects the end-event semantics (default `Expected`).
    #[must_use]
    pub fn with_end_semantics(mut self, semantics: EndSemantics) -> Self {
        self.end_semantics = semantics;
        self
    }

    /// The workload.
    #[must_use]
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The platform.
    #[must_use]
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The execution mode.
    #[must_use]
    pub fn mode(&self) -> ExecutionMode {
        self.mode
    }

    /// The end-event semantics.
    #[must_use]
    pub fn end_semantics(&self) -> EndSemantics {
        self.end_semantics
    }

    /// Number of tasks `n`.
    #[must_use]
    pub fn num_tasks(&self) -> usize {
        self.workload.len()
    }

    /// Eagerly fills the parameter table for every task up to `max_j`
    /// (clamped to `p`), e.g. before sharing the calculator across threads.
    pub fn prefill(&self, max_j: u32) {
        if matches!(self.mode, ExecutionMode::FaultFree) {
            return;
        }
        for i in 0..self.workload.len() {
            self.table.prefill(i, max_j, |j| self.compute_params(i, j));
        }
    }

    /// Whether the parameters of `(i, j)` are already materialized
    /// (observability/tests).
    #[must_use]
    pub fn is_cached(&self, i: TaskId, j: u32) -> bool {
        self.table.is_cached(i, j)
    }

    /// Per-(task, allocation) parameters, cached densely for every `j`.
    fn params(&self, i: TaskId, j: u32) -> AllocParams {
        debug_assert!(matches!(self.mode, ExecutionMode::FaultAware));
        self.table.get(i, j, |jj| self.compute_params(i, jj))
    }

    fn compute_params(&self, i: TaskId, j: u32) -> AllocParams {
        let t_ff = self.workload.fault_free_time(i, j);
        AllocParams::compute(&self.workload.tasks[i], &self.platform, t_ff, j, self.rule)
    }

    /// Fault-free execution time `t_{i,j}`.
    #[must_use]
    pub fn fault_free_time(&self, i: TaskId, j: u32) -> f64 {
        self.workload.fault_free_time(i, j)
    }

    /// Remaining time to complete a fraction `alpha` of task `i` on `j`
    /// processors, as seen by both the engine (end events) and the
    /// heuristics (candidate comparisons):
    ///
    /// * fault-aware, `Expected` semantics (the paper): `t^R_{i,j}(α)` of
    ///   Eq. 4;
    /// * fault-aware, `FaultFreeProjection` ablation: `α·t + N^ff(α)·C`;
    /// * fault-free mode (§3.3.1): `α·t_{i,j}`.
    #[must_use]
    pub fn remaining(&self, i: TaskId, j: u32, alpha: f64) -> f64 {
        match (self.mode, self.end_semantics) {
            (ExecutionMode::FaultFree, _) => alpha * self.fault_free_time(i, j),
            (ExecutionMode::FaultAware, EndSemantics::Expected) => {
                self.params(i, j).expected_time(alpha)
            }
            (ExecutionMode::FaultAware, EndSemantics::FaultFreeProjection) => {
                self.params(i, j).fault_free_projection(alpha)
            }
        }
    }

    /// The pure Eq. 4 expected time `t^R_{i,j}(α)`, regardless of end
    /// semantics (analysis/testing accessor).
    ///
    /// # Panics
    /// Panics in fault-free mode.
    #[must_use]
    pub fn expected_time_eq4(&self, i: TaskId, j: u32, alpha: f64) -> f64 {
        assert!(
            matches!(self.mode, ExecutionMode::FaultAware),
            "Eq. 4 applies to the fault-aware mode"
        );
        self.params(i, j).expected_time(alpha)
    }

    /// Checkpoint cost `C_{i,j}` (0 in fault-free mode).
    #[must_use]
    pub fn checkpoint_cost(&self, i: TaskId, j: u32) -> f64 {
        match self.mode {
            ExecutionMode::FaultAware => self.params(i, j).c,
            ExecutionMode::FaultFree => 0.0,
        }
    }

    /// `(C_{i,j}, remaining(i, j, α))` from a *single* parameter fetch —
    /// bit-identical to calling [`TimeCalc::checkpoint_cost`] and
    /// [`TimeCalc::remaining`] separately, at half the table traffic. This
    /// is the heuristics' candidate-evaluation hot path.
    #[must_use]
    pub fn ckpt_and_remaining(&self, i: TaskId, j: u32, alpha: f64) -> (f64, f64) {
        match (self.mode, self.end_semantics) {
            (ExecutionMode::FaultFree, _) => (0.0, alpha * self.fault_free_time(i, j)),
            (ExecutionMode::FaultAware, EndSemantics::Expected) => {
                let p = self.params(i, j);
                (p.c, p.expected_time(alpha))
            }
            (ExecutionMode::FaultAware, EndSemantics::FaultFreeProjection) => {
                let p = self.params(i, j);
                (p.c, p.fault_free_projection(alpha))
            }
        }
    }

    /// Recovery time `R_{i,j}` (0 in fault-free mode).
    #[must_use]
    pub fn recovery_time(&self, i: TaskId, j: u32) -> f64 {
        match self.mode {
            ExecutionMode::FaultAware => self.params(i, j).c,
            ExecutionMode::FaultFree => 0.0,
        }
    }

    /// Downtime `D` (0 in fault-free mode).
    #[must_use]
    pub fn downtime(&self) -> f64 {
        match self.mode {
            ExecutionMode::FaultAware => self.platform.downtime,
            ExecutionMode::FaultFree => 0.0,
        }
    }

    /// Checkpointing period `τ_{i,j}`.
    ///
    /// # Panics
    /// Panics in fault-free mode (no checkpoints exist).
    #[must_use]
    pub fn period(&self, i: TaskId, j: u32) -> f64 {
        assert!(
            matches!(self.mode, ExecutionMode::FaultAware),
            "no checkpoint period in fault-free mode"
        );
        self.params(i, j).tau
    }

    /// Fraction of work completed by a *non-faulty* task after `elapsed`
    /// time since its last anchor (§3.3.2; checkpoint time deducted in
    /// fault-aware mode).
    #[must_use]
    pub fn progress_nonfaulty(&self, i: TaskId, j: u32, elapsed: f64) -> f64 {
        debug_assert!(elapsed >= 0.0);
        match self.mode {
            ExecutionMode::FaultAware => self.params(i, j).progress_nonfaulty(elapsed),
            ExecutionMode::FaultFree => elapsed / self.fault_free_time(i, j),
        }
    }

    /// Fraction of work *retained* by the faulty task: completed
    /// checkpointed periods only (§3.3.2).
    ///
    /// # Panics
    /// Panics in fault-free mode (no faults exist).
    #[must_use]
    pub fn progress_faulty(&self, i: TaskId, j: u32, elapsed: f64) -> f64 {
        assert!(matches!(self.mode, ExecutionMode::FaultAware), "no faults in fault-free mode");
        self.params(i, j).progress_faulty(elapsed)
    }

    /// Redistribution cost `RC^{j→k}_i` (Eqs. 7/9).
    #[must_use]
    pub fn rc_cost(&self, i: TaskId, j: u32, k: u32) -> f64 {
        redistrib_graph::redistribution_cost(j, k, self.workload.tasks[i].size)
    }

    /// Task `i`'s data volume `m_i` (the `m` of Eqs. 7/9).
    #[must_use]
    pub fn task_size(&self, i: TaskId) -> f64 {
        self.workload.tasks[i].size
    }

    /// The smallest task data volume of the workload (`+∞` when empty) —
    /// the incremental policies' global redistribution-cost floor.
    #[must_use]
    pub fn min_task_size(&self) -> f64 {
        self.min_size
    }

    /// Whether task `i`, currently worth `current_val` on `cur_j`
    /// processors, could strictly improve with some even allocation in
    /// `(cur_j, max_j]` — the Eq. 6 "effective time" test used by
    /// Algorithm 1 line 9. Early-exits on the first improvement.
    #[must_use]
    pub fn improvable_up_to(
        &self,
        i: TaskId,
        cur_j: u32,
        current_val: f64,
        max_j: u32,
        alpha: f64,
    ) -> bool {
        let mut j = cur_j + 2;
        while j <= max_j {
            if self.remaining(i, j, alpha) < current_val {
                return true;
            }
            j += 2;
        }
        false
    }

    /// Eq. 6 *effective* expected time: prefix minimum of `t^R` over even
    /// allocations `2, 4, …, j`. `O(j)`; intended for tests and analysis —
    /// the heuristics use incremental scans instead.
    ///
    /// # Panics
    /// Panics on odd or zero `j`.
    #[must_use]
    pub fn effective_remaining(&self, i: TaskId, j: u32, alpha: f64) -> f64 {
        assert!(j >= 2 && j.is_multiple_of(2), "effective time defined for even j ≥ 2");
        let mut best = f64::INFINITY;
        let mut jj = 2;
        while jj <= j {
            best = best.min(self.remaining(i, jj, alpha));
            jj += 2;
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::speedup::PaperModel;
    use crate::task::TaskSpec;
    use redistrib_sim::units;
    use std::sync::Arc;

    fn workload(n: usize) -> Workload {
        let tasks = (0..n).map(|i| TaskSpec::new(1_500_000.0 + 250_000.0 * i as f64)).collect();
        Workload::new(tasks, Arc::new(PaperModel::default()))
    }

    fn calc() -> TimeCalc {
        TimeCalc::new(workload(3), Platform::with_mtbf(1000, units::years(100.0)))
    }

    #[test]
    fn cached_and_uncached_agree() {
        let c = calc();
        let first = c.remaining(0, 10, 1.0);
        let second = c.remaining(0, 10, 1.0);
        assert_eq!(first, second);
        let odd = c.remaining(0, 9, 1.0);
        assert!(odd > 0.0);
    }

    #[test]
    fn odd_and_even_allocations_both_hit_the_cache() {
        // Regression for the old even-only cache: odd allocations used to
        // be recomputed on every query. The dense table must cache both
        // parities.
        let c = calc();
        assert!(!c.is_cached(0, 9) && !c.is_cached(0, 10));
        let _ = c.remaining(0, 9, 1.0);
        assert!(c.is_cached(0, 9), "odd allocation must be cached");
        let _ = c.remaining(0, 10, 1.0);
        assert!(c.is_cached(0, 10), "even allocation must be cached");
        assert_eq!(c.remaining(0, 9, 1.0), c.remaining(0, 9, 1.0));
    }

    #[test]
    fn shared_across_threads_is_consistent() {
        // `&self` lookups make the calculator Sync: concurrent queries from
        // several threads agree with a sequentially-filled twin.
        let shared = Arc::new(calc());
        let sequential = calc();
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let c = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let mut acc = 0.0;
                    for j in 1 + t..=64u32 {
                        acc += c.remaining(0, j, 1.0);
                    }
                    acc
                })
            })
            .collect();
        for h in handles {
            let _ = h.join().unwrap();
        }
        for j in 1..=64u32 {
            assert_eq!(shared.remaining(0, j, 1.0), sequential.remaining(0, j, 1.0));
        }
    }

    #[test]
    fn prefill_materializes_table() {
        let c = calc();
        c.prefill(32);
        for i in 0..3 {
            assert!(c.is_cached(i, 1) && c.is_cached(i, 32));
        }
    }

    #[test]
    fn fault_free_mode_is_linear_work() {
        let c = TimeCalc::fault_free(workload(2), Platform::new(100));
        let t = c.fault_free_time(0, 4);
        assert_eq!(c.remaining(0, 4, 1.0), t);
        assert_eq!(c.remaining(0, 4, 0.25), 0.25 * t);
        assert_eq!(c.checkpoint_cost(0, 4), 0.0);
        assert_eq!(c.recovery_time(0, 4), 0.0);
        assert_eq!(c.downtime(), 0.0);
        assert!((c.progress_nonfaulty(0, 4, t / 2.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no faults in fault-free mode")]
    fn fault_free_rejects_faulty_progress() {
        let c = TimeCalc::fault_free(workload(1), Platform::new(100));
        let _ = c.progress_faulty(0, 2, 1.0);
    }

    #[test]
    #[should_panic(expected = "no checkpoint period")]
    fn fault_free_rejects_period() {
        let c = TimeCalc::fault_free(workload(1), Platform::new(100));
        let _ = c.period(0, 2);
    }

    #[test]
    fn expected_exceeds_fault_free() {
        let c = calc();
        for j in [2u32, 8, 64] {
            assert!(c.remaining(0, j, 1.0) > c.fault_free_time(0, j));
        }
    }

    #[test]
    fn end_semantics_projection_smaller_than_expected() {
        let exp = calc();
        let ffp = calc().with_end_semantics(EndSemantics::FaultFreeProjection);
        let a = exp.remaining(0, 8, 1.0);
        let b = ffp.remaining(0, 8, 1.0);
        assert!(b < a, "projection {b} should be below expected {a}");
        // The pure Eq. 4 value is semantics-independent.
        assert_eq!(exp.expected_time_eq4(0, 8, 1.0), ffp.expected_time_eq4(0, 8, 1.0));
    }

    #[test]
    fn improvable_up_to_detects_threshold() {
        let c = calc();
        let cur = c.remaining(0, 2, 1.0);
        // Plenty of headroom at 2 procs.
        assert!(c.improvable_up_to(0, 2, cur, 100, 1.0));
        // No allocation beats itself.
        assert!(!c.improvable_up_to(0, 2, cur, 2, 1.0));
    }

    #[test]
    fn effective_remaining_is_monotone_non_increasing() {
        let c = calc();
        let mut last = f64::INFINITY;
        for j in (2..=200).step_by(2) {
            let eff = c.effective_remaining(0, j, 1.0);
            assert!(eff <= last + 1e-9, "effective time increased at j={j}");
            last = eff;
        }
    }

    #[test]
    fn effective_matches_raw_below_threshold() {
        let c = calc();
        // For small j (well below threshold) raw t^R is still decreasing, so
        // the prefix-min equals the raw value.
        for j in [2u32, 4, 8, 16] {
            let raw = c.remaining(0, j, 1.0);
            let eff = c.effective_remaining(0, j, 1.0);
            assert!((raw - eff).abs() < 1e-9, "j={j}: raw={raw} eff={eff}");
        }
    }

    #[test]
    fn rc_cost_matches_closed_form() {
        let c = calc();
        let m = c.workload().tasks[1].size;
        let expected = 4.0 * m / (6.0 * 4.0);
        assert!((c.rc_cost(1, 4, 6) - expected).abs() < 1e-9);
        assert_eq!(c.rc_cost(1, 4, 4), 0.0);
    }

    #[test]
    fn period_rule_switch_invalidates_cache() {
        let c = calc();
        let young = c.remaining(0, 10, 1.0);
        let c = calc().with_period_rule(PeriodRule::Daly);
        let daly = c.remaining(0, 10, 1.0);
        // Different periods give (slightly) different expected times.
        assert_ne!(young, daly);
        let rel = (young - daly).abs() / young;
        assert!(rel < 0.05, "rules should agree closely here: {rel}");
    }
}
