//! Redistribution policies (§5 of the paper).
//!
//! Two decision points exist: when a task *ends* (its processors become
//! available) and when a *failure* makes the struck task the longest one.
//! The paper evaluates two policies for each point:
//!
//! | decision point | local | global |
//! |----------------|-------|--------|
//! | task end       | [`EndLocal`] (Algorithm 3) | [`EndGreedy`] |
//! | failure        | [`ShortestTasksFirst`] (Algorithm 4) | [`IteratedGreedy`] (Algorithm 5) |
//!
//! plus the no-redistribution baselines. [`Heuristic`] enumerates the
//! combinations used in the evaluation (§6).

mod end_local;
mod greedy;
mod stf;

pub use end_local::EndLocal;
pub use greedy::{
    greedy_rebuild, greedy_rebuild_warm, EndGreedy, EndGreedyWarm, IteratedGreedy,
    IteratedGreedyWarm,
};
pub use stf::ShortestTasksFirst;

use redistrib_model::TaskId;

use crate::ctx::HeuristicCtx;

/// Policy applied when a task ends and releases processors.
///
/// `Send + Sync` are supertraits so boxed policies (and the sessions that
/// own them) can migrate across threads — the service layer pins sessions
/// to worker shards and a `Box<dyn EndPolicy>` must travel with them.
pub trait EndPolicy: std::fmt::Debug + Send + Sync {
    /// Redistributes the free processors (the ended task's processors are
    /// already back in the pool when this is called).
    fn on_task_end(&self, ctx: &mut HeuristicCtx<'_>);

    /// Whether this policy never acts — lets the engine skip building the
    /// eligible set entirely (the no-redistribution baselines).
    fn is_noop(&self) -> bool {
        false
    }
}

/// Policy applied when a failure strikes and the faulty task has become the
/// longest of the pack.
///
/// `Send + Sync` are supertraits for the same reason as [`EndPolicy`]:
/// sessions owning boxed policies must be movable across threads.
pub trait FaultPolicy: std::fmt::Debug + Send + Sync {
    /// Rebalances processors toward the faulty task `faulty`.
    ///
    /// On entry the engine has already rolled the faulty task back to its
    /// last checkpoint (`α_f` updated) and charged downtime + recovery
    /// (`tlastR_f = t + D + R`, `t^U_f = tlastR_f + remaining`).
    fn on_fault(&self, ctx: &mut HeuristicCtx<'_>, faulty: TaskId);

    /// Whether this policy never acts — lets the engine skip building the
    /// eligible set entirely (the no-redistribution baselines).
    fn is_noop(&self) -> bool {
        false
    }
}

/// End policy that never redistributes (the paper's baseline).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoEndRedistribution;

impl EndPolicy for NoEndRedistribution {
    fn on_task_end(&self, _ctx: &mut HeuristicCtx<'_>) {}

    fn is_noop(&self) -> bool {
        true
    }
}

/// Fault policy that never redistributes: the faulty task recovers in place
/// (the paper's baseline).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaultRedistribution;

impl FaultPolicy for NoFaultRedistribution {
    fn on_fault(&self, _ctx: &mut HeuristicCtx<'_>, _faulty: TaskId) {}

    fn is_noop(&self) -> bool {
        true
    }
}

/// The heuristic combinations evaluated in §6 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Heuristic {
    /// No redistribution at all (normalization baseline).
    NoRedistribution,
    /// `IteratedGreedy-EndGreedy`: global rebuild at both decision points.
    IteratedGreedyEndGreedy,
    /// `IteratedGreedy-EndLocal`: global rebuild on faults, local
    /// allocation at task ends.
    IteratedGreedyEndLocal,
    /// `ShortestTasksFirst-EndGreedy`.
    ShortestTasksFirstEndGreedy,
    /// `ShortestTasksFirst-EndLocal`: local decisions only.
    ShortestTasksFirstEndLocal,
    /// Redistribute at task ends only, with local decisions (the fault-free
    /// reference configuration, "With RC (local decisions)").
    EndLocalOnly,
    /// Redistribute at task ends only, rebuilding greedily ("With RC
    /// (greedy)").
    EndGreedyOnly,
    /// Opt-in *approximate* warm combination (not a paper heuristic):
    /// [`greedy_rebuild_warm`] at both decision points — the rebuild
    /// resumes from the committed allocation instead of resetting every
    /// participant, `O(touched · log n)` per event with no fallback. The
    /// grow-only approximation of `IteratedGreedy-EndGreedy`; see
    /// `experiments warm` for the measured quality gap.
    WarmGreedy,
}

impl Heuristic {
    /// The four fault-context combinations of the paper's figures, in their
    /// legend order.
    pub const FAULT_COMBINATIONS: [Heuristic; 4] = [
        Heuristic::IteratedGreedyEndGreedy,
        Heuristic::IteratedGreedyEndLocal,
        Heuristic::ShortestTasksFirstEndGreedy,
        Heuristic::ShortestTasksFirstEndLocal,
    ];

    /// Display name matching the paper's legends.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Heuristic::NoRedistribution => "NoRedistribution",
            Heuristic::IteratedGreedyEndGreedy => "IteratedGreedy-EndGreedy",
            Heuristic::IteratedGreedyEndLocal => "IteratedGreedy-EndLocal",
            Heuristic::ShortestTasksFirstEndGreedy => "ShortestTasksFirst-EndGreedy",
            Heuristic::ShortestTasksFirstEndLocal => "ShortestTasksFirst-EndLocal",
            Heuristic::EndLocalOnly => "EndLocal",
            Heuristic::EndGreedyOnly => "EndGreedy",
            Heuristic::WarmGreedy => "WarmGreedy",
        }
    }

    /// Instantiates the end policy of this combination.
    #[must_use]
    pub fn end_policy(self) -> Box<dyn EndPolicy> {
        match self {
            Heuristic::NoRedistribution => Box::new(NoEndRedistribution),
            Heuristic::IteratedGreedyEndGreedy
            | Heuristic::ShortestTasksFirstEndGreedy
            | Heuristic::EndGreedyOnly => Box::new(EndGreedy),
            Heuristic::IteratedGreedyEndLocal
            | Heuristic::ShortestTasksFirstEndLocal
            | Heuristic::EndLocalOnly => Box::new(EndLocal),
            Heuristic::WarmGreedy => Box::new(EndGreedyWarm),
        }
    }

    /// Instantiates the fault policy of this combination.
    #[must_use]
    pub fn fault_policy(self) -> Box<dyn FaultPolicy> {
        match self {
            Heuristic::NoRedistribution
            | Heuristic::EndLocalOnly
            | Heuristic::EndGreedyOnly => Box::new(NoFaultRedistribution),
            Heuristic::IteratedGreedyEndGreedy | Heuristic::IteratedGreedyEndLocal => {
                Box::new(IteratedGreedy)
            }
            Heuristic::ShortestTasksFirstEndGreedy | Heuristic::ShortestTasksFirstEndLocal => {
                Box::new(ShortestTasksFirst)
            }
            Heuristic::WarmGreedy => Box::new(IteratedGreedyWarm),
        }
    }

    /// The greedy-rebuild entry point this combination uses for *arrival*
    /// rebalances (the online engine's third decision point) — the
    /// rebuild-flavor counterpart of [`Heuristic::end_policy`] /
    /// [`Heuristic::fault_policy`], so warm-family combinations cannot
    /// silently run the exact rebuild on one decision point only.
    #[must_use]
    pub fn arrival_rebuild(self) -> fn(&mut HeuristicCtx<'_>, Option<TaskId>) {
        match self {
            Heuristic::WarmGreedy => greedy_rebuild_warm,
            _ => greedy_rebuild,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper_legends() {
        assert_eq!(Heuristic::IteratedGreedyEndGreedy.name(), "IteratedGreedy-EndGreedy");
        assert_eq!(Heuristic::ShortestTasksFirstEndLocal.name(), "ShortestTasksFirst-EndLocal");
    }

    #[test]
    fn combinations_build_policies() {
        for h in Heuristic::FAULT_COMBINATIONS {
            let _ = h.end_policy();
            let _ = h.fault_policy();
        }
        let _ = Heuristic::NoRedistribution.end_policy();
        let _ = Heuristic::EndLocalOnly.fault_policy();
    }
}
