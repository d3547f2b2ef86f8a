//! # redistrib-online
//!
//! Online co-scheduling of malleable jobs — the dynamic-workload extension
//! of *Resilient application co-scheduling with processor redistribution*
//! (Benoit, Pottier, Robert; ICPP 2016).
//!
//! The paper schedules one *static* pack whose task set is fully known at
//! `t = 0`. This crate relaxes that assumption, in the spirit of ReSHAPE
//! (Sudarsan & Ribbens) and of Aupy et al.'s high-throughput co-scheduling
//! model: jobs are *released over simulated time*, queue for admission, and
//! the processor assignment is re-formed dynamically while faults keep
//! striking.
//!
//! * [`builder`] — the [`Scheduler`] builder: platform, speedup,
//!   redistribution strategy, fault injector, recording flags, pack
//!   staging;
//! * [`session`] — the stepped [`Session`]: `step()` one event at a time
//!   with live inspection (queue depth, active packs, per-job state), or
//!   `run_to_completion()` for the one-shot outcome;
//! * [`packset`] — multi-pack staging of an oversubscribed backlog
//!   (`2·waiting > p`) into consecutive packs via the `redistrib-packs`
//!   partitioners, drained pack-by-pack behind [`PackHandle`]s;
//! * [`arrival`] — pluggable arrival processes (Poisson, bursty,
//!   trace-driven, merged) and seeded job-stream generation;
//! * [`swf`] — a minimal Standard Workload Format (Parallel Workloads
//!   Archive) parser mapping real trace logs onto [`TraceArrivals`] job
//!   streams;
//! * [`metrics`] — online-specific metrics the static engine cannot
//!   express: per-job stretch and flow time, queue length over time,
//!   processor utilization, throughput.
//!
//! Determinism carries over from the static engine: same job stream, same
//! fault seed, same strategy ⇒ byte-identical event logs.
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use redistrib_core::Heuristic;
//! use redistrib_model::{PaperModel, Platform};
//! use redistrib_online::{
//!     generate_jobs, JobSizeModel, OnlineConfig, OnlineStrategy, PoissonArrivals,
//!     Scheduler,
//! };
//!
//! let mut arrivals = PoissonArrivals::new(42, 20_000.0);
//! let jobs = generate_jobs(&mut arrivals, 10, &JobSizeModel::paper_default(), 42);
//! let platform = Platform::new(32);
//! let cfg = OnlineConfig::with_faults(7, platform.proc_mtbf);
//!
//! let baseline = Scheduler::on(platform)
//!     .speedup(Arc::new(PaperModel::default()))
//!     .config(cfg)
//!     .run(&jobs)
//!     .unwrap();
//! let resized = Scheduler::on(platform)
//!     .speedup(Arc::new(PaperModel::default()))
//!     .strategy(OnlineStrategy::resizing(Heuristic::IteratedGreedyEndLocal))
//!     .config(cfg)
//!     .run(&jobs)
//!     .unwrap();
//! assert!(resized.metrics.mean_stretch <= baseline.metrics.mean_stretch * 1.05);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod arrival;
pub mod builder;
#[cfg(test)]
mod engine;
pub mod metrics;
pub mod packset;
pub mod session;
pub mod snapshot;
pub mod swf;

pub use arrival::{
    generate_jobs, ArrivalProcess, BurstyArrivals, JobSizeModel, MergedArrivals,
    PoissonArrivals, TraceArrivals,
};
pub use builder::{OnlineConfig, OnlineStrategy, Scheduler};
pub use metrics::{JobStats, OnlineMetrics};
pub use packset::{
    PackHandle, PackId, PackPartitioner, PackPhase, PackReport, PackSetSnapshot, PackSnapshot,
    PackStaging,
};
pub use session::{JobState, OnlineOutcome, Session, SessionEvent};
pub use snapshot::SessionSnapshot;
pub use swf::{parse_swf, swf_arrivals, swf_jobs, SwfError, SwfJob, SwfMapping};
