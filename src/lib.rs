//! # redistrib
//!
//! A faithful, self-contained reproduction of **“Resilient application
//! co-scheduling with processor redistribution”** (Anne Benoit, Loïc
//! Pottier, Yves Robert — Inria RR-8795 / ICPP 2016).
//!
//! A *pack* of malleable tasks shares `p` processors on a failure-prone
//! platform. Tasks checkpoint periodically (double/buddy protocol, even
//! allocations); when a task ends or a failure strikes, processors can be
//! *redistributed* between tasks at a data-movement cost. This crate
//! bundles:
//!
//! * the model (speedup profiles, checkpointing, expected execution times,
//!   redistribution costs) — [`model`];
//! * the deterministic fault simulator substrate — [`sim`];
//! * the transfer-graph edge coloring behind the redistribution cost
//!   formula — [`graph`];
//! * the scheduling algorithms (Algorithm 1, the event-driven engine,
//!   the EndLocal/EndGreedy/ShortestTasksFirst/IteratedGreedy heuristics,
//!   exact solvers, the NP-completeness gadget) — [`core`];
//! * multi-pack partitioning and stepped pack execution
//!   (`PackRunner`/`PackSession`, the paper's future-work direction) —
//!   [`packs`];
//! * online co-scheduling through the `Scheduler` builder and stepped
//!   `Session`: dynamic job arrivals (incl. SWF trace replay), admission
//!   queueing, multi-pack staging of oversubscribed backlogs, malleable
//!   resizing on arrival/completion/fault events — [`online`];
//! * the experiment harnesses regenerating every figure of the paper —
//!   [`experiments`];
//! * scheduler-as-a-service: a std-only HTTP host for many concurrent
//!   sessions with a registry, batched stepping and snapshot/restore —
//!   [`service`].
//!
//! ## Quickstart
//!
//! ```
//! use redistrib::prelude::*;
//! use std::sync::Arc;
//!
//! // A pack of four tasks with paper-style sizes, on 32 processors with a
//! // 10-year per-processor MTBF.
//! let workload = Workload::new(
//!     vec![
//!         TaskSpec::new(2.0e6),
//!         TaskSpec::new(1.6e6),
//!         TaskSpec::new(2.4e6),
//!         TaskSpec::new(1.8e6),
//!     ],
//!     Arc::new(PaperModel::default()),
//! );
//! let platform = Platform::with_mtbf(32, redistrib::sim::units::years(10.0));
//!
//! // Baseline: no redistribution.
//! let calc = TimeCalc::new(workload.clone(), platform);
//! let cfg = EngineConfig::with_faults(42, platform.proc_mtbf);
//! let baseline = run(&calc, &NoEndRedistribution, &NoFaultRedistribution, &cfg).unwrap();
//!
//! // IteratedGreedy-EndLocal, same workload, same fault trace.
//! let calc = TimeCalc::new(workload, platform);
//! let redistributed = run(&calc, &EndLocal, &IteratedGreedy, &cfg).unwrap();
//!
//! assert!(redistributed.makespan <= baseline.makespan);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub use redistrib_core as core;
pub use redistrib_experiments as experiments;
pub use redistrib_graph as graph;
pub use redistrib_model as model;
pub use redistrib_online as online;
pub use redistrib_packs as packs;
pub use redistrib_service as service;
pub use redistrib_sim as sim;

/// The most common imports, re-exported flat.
pub mod prelude {
    pub use redistrib_core::{
        optimal_schedule, run, EndGreedy, EndLocal, EndPolicy, EngineConfig, FaultPolicy,
        Heuristic, IteratedGreedy, NoEndRedistribution, NoFaultRedistribution, RunOutcome,
        ScheduleError, ShortestTasksFirst,
    };
    pub use redistrib_model::{
        EndSemantics, ExecutionMode, JobSpec, PaperModel, PeriodRule, Platform, SpeedupModel,
        TaskSpec, TimeCalc, Workload,
    };
    pub use redistrib_online::{
        OnlineConfig, OnlineOutcome, OnlineStrategy, PackStaging, Scheduler, Session,
        SessionEvent,
    };
    pub use redistrib_packs::{PackRunner, PackSession};
    pub use redistrib_sim::{FaultLaw, FaultSource, TraceLog, Xoshiro256};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::Arc;

    #[test]
    fn facade_reexports_work_together() {
        let workload = Workload::new(
            vec![TaskSpec::new(2.0e6), TaskSpec::new(1.5e6)],
            Arc::new(PaperModel::default()),
        );
        let platform = Platform::new(8);
        let calc = TimeCalc::fault_free(workload, platform);
        let out = run(
            &calc,
            &NoEndRedistribution,
            &NoFaultRedistribution,
            &EngineConfig::fault_free(),
        )
        .unwrap();
        assert!(out.makespan > 0.0);
    }
}
