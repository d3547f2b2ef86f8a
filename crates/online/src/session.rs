//! The stepped execution session behind the online scheduler.
//!
//! A [`Session`] is the first-class handle on one online run: built by a
//! [`Scheduler`](crate::Scheduler), it exposes the event loop one event at
//! a time ([`Session::step`]), live inspection between events (queue depth,
//! active packs, per-job state), and a one-shot drain
//! ([`Session::run_to_completion`]) that returns the familiar
//! [`OnlineOutcome`].
//!
//! The event-processing code is the PR 3 engine verbatim — arrival
//! admission with fair-share grants, completion redistribution, fault
//! rollback — so a flat-FIFO session replays the exact decision sequence of
//! the PR 3 one-shot engine: same job stream, same fault seed,
//! same strategy ⇒ byte-identical event logs. Multi-pack staging
//! ([`PackStaging::Oversubscribed`](crate::PackStaging)) layers the
//! `redistrib-packs` partitioning on top of the admission queue without
//! touching the flat path.

use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

use redistrib_core::{
    EligibleSet, EndPolicy, FaultPolicy, HeuristicCtx, PackState, PolicyScratch, ScheduleError,
};
use redistrib_model::{JobSpec, Platform, SpeedupModel, TaskId, TimeCalc, Workload};
use redistrib_sim::faults::FaultSource;
use redistrib_sim::trace::{TraceEvent, TraceLog};

use crate::builder::{OnlineConfig, OnlineStrategy};
use crate::metrics::{JobStats, OnlineMetrics};
use crate::packset::{PackHandle, PackId, PackReport, PackSetState, StagedPack};
use crate::snapshot::SessionSnapshot;

/// Result of one online run (returned by [`Session::run_to_completion`] and
/// [`Scheduler::run`](crate::Scheduler::run)).
#[derive(Debug, Clone)]
pub struct OnlineOutcome {
    /// Completion time of the last job.
    pub makespan: f64,
    /// Per-job completion records, in submission order.
    pub jobs: Vec<JobStats>,
    /// Aggregate online metrics.
    pub metrics: OnlineMetrics,
    /// Faults that struck a running job and were handled.
    pub handled_faults: u64,
    /// Faults discarded (idle processor or protected window).
    pub discarded_faults: u64,
    /// Discarded faults inside a post-fault recovery window (§2.2 fatal
    /// risk exposure).
    pub fatal_risk_events: u64,
    /// Committed reallocations.
    pub redistributions: u64,
    /// Admission-queue length after every queue change, `(time, length)`.
    /// Under multi-pack staging the length counts *all* waiting jobs
    /// (admission queue + backlog + pending packs).
    pub queue_series: Vec<(f64, usize)>,
    /// Drained packs in closing order (empty on a flat-FIFO run that never
    /// staged).
    pub packs: Vec<PackReport>,
    /// Event trace (empty unless recording; includes the online
    /// `job_arrival` / `job_start` / `job_queued` / `pack_start` kinds).
    pub trace: TraceLog,
}

/// One processed event, as reported by [`Session::step`].
#[derive(Debug, Clone, PartialEq)]
pub enum SessionEvent {
    /// A job was released. `started` tells whether the admission layer
    /// started it within this same event.
    Arrival {
        /// Release time.
        time: f64,
        /// The released job.
        job: usize,
        /// Whether the job is running when the event returns.
        started: bool,
    },
    /// A job completed.
    Completion {
        /// Completion time.
        time: f64,
        /// The completed job.
        job: usize,
    },
    /// A processor fault fired. `job` is the struck running job, `None`
    /// when the fault hit an idle processor; `handled` is false for
    /// discarded faults (idle processor or protected window).
    Fault {
        /// Fault time.
        time: f64,
        /// Failed processor.
        proc: u32,
        /// Running job on the failed processor, if any.
        job: Option<usize>,
        /// Whether the fault caused a rollback (vs. being discarded).
        handled: bool,
    },
}

impl SessionEvent {
    /// Simulation time of the event.
    #[must_use]
    pub fn time(&self) -> f64 {
        match *self {
            Self::Arrival { time, .. }
            | Self::Completion { time, .. }
            | Self::Fault { time, .. } => time,
        }
    }
}

/// Live state of one job, as reported by [`Session::job_state`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JobState {
    /// Not yet released into the system.
    NotReleased,
    /// Released and waiting for admission; `pack` names the staged pack it
    /// belongs to, if the backlog has been partitioned.
    Waiting {
        /// Staged pack the job is assigned to, if any.
        pack: Option<PackId>,
    },
    /// Running on `alloc` processors.
    Running {
        /// Current allocation size.
        alloc: u32,
    },
    /// Completed at the given time.
    Completed {
        /// Completion time.
        at: f64,
    },
}

/// The static-engine policy entry point to invoke.
enum PolicyCall {
    /// The strategy-selected greedy rebuild over the eligible set
    /// (arrival rebalance; see `Heuristic::arrival_rebuild`).
    Rebuild,
    /// The strategy's end policy (completion).
    End,
    /// The strategy's fault policy toward the given faulty job.
    Fault(TaskId),
}

/// A stepped online run: event loop, inspection and outcome assembly.
///
/// Create one through [`Scheduler::session`](crate::Scheduler::session);
/// drive it with [`step`](Self::step) or drain it with
/// [`run_to_completion`](Self::run_to_completion).
pub struct Session {
    // Immutable run inputs.
    jobs: Vec<JobSpec>,
    speedup: Arc<dyn SpeedupModel>,
    platform: Platform,
    p: u32,
    strategy: OnlineStrategy,
    config: OnlineConfig,
    // Simulation state (the PR 3 `OnlineSim`, field for field).
    calc: TimeCalc,
    state: PackState,
    trace: TraceLog,
    running: BTreeSet<TaskId>,
    queue: VecDeque<TaskId>,
    released: Vec<bool>,
    start: Vec<f64>,
    completion: Vec<f64>,
    recovery_until: Vec<f64>,
    queue_series: Vec<(f64, usize)>,
    redistributions: u64,
    handled_faults: u64,
    discarded_faults: u64,
    fatal_risk_events: u64,
    busy_proc_seconds: f64,
    last_t: f64,
    end_policy: Box<dyn EndPolicy>,
    fault_policy: Box<dyn FaultPolicy>,
    /// Reusable event-loop buffers: steady-state events allocate nothing.
    eligible_buf: Vec<TaskId>,
    scratch: PolicyScratch,
    // Event-loop cursor state.
    faults: Option<FaultSource>,
    /// Faults drawn from the source so far (handled + discarded) — the
    /// replay cursor a snapshot needs to fast-forward a fresh source.
    faults_drawn: u64,
    order: Vec<usize>,
    next_arrival: usize,
    events: u64,
    // Multi-pack staging (None = legacy flat FIFO).
    staging: Option<PackSetState>,
    pack_of: Vec<Option<PackId>>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("jobs", &self.jobs.len())
            .field("p", &self.p)
            .field("now", &self.last_t)
            .field("running", &self.running.len())
            .field("waiting", &self.waiting_count())
            .field("events", &self.events)
            .field("done", &self.is_done())
            .finish_non_exhaustive()
    }
}

#[allow(clippy::too_many_arguments)]
impl Session {
    pub(crate) fn new(
        jobs: Vec<JobSpec>,
        speedup: Arc<dyn SpeedupModel>,
        platform: Platform,
        strategy: OnlineStrategy,
        calc: TimeCalc,
        faults: Option<FaultSource>,
        config: OnlineConfig,
        staging: Option<PackSetState>,
    ) -> Self {
        let n = jobs.len();
        let p = platform.num_procs;
        // Release order, ties broken by submission index (stable sort).
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            jobs[a].release.partial_cmp(&jobs[b].release).expect("release times are finite")
        });
        Self {
            speedup,
            platform,
            p,
            strategy,
            calc,
            state: PackState::unallocated(p, n),
            trace: if config.record_trace { TraceLog::enabled() } else { TraceLog::disabled() },
            config,
            running: BTreeSet::new(),
            queue: VecDeque::new(),
            released: vec![false; n],
            start: vec![0.0; n],
            completion: vec![0.0; n],
            recovery_until: vec![0.0; n],
            queue_series: Vec::new(),
            redistributions: 0,
            handled_faults: 0,
            discarded_faults: 0,
            fatal_risk_events: 0,
            busy_proc_seconds: 0.0,
            last_t: 0.0,
            end_policy: strategy.heuristic.end_policy(),
            fault_policy: strategy.heuristic.fault_policy(),
            eligible_buf: Vec::new(),
            scratch: PolicyScratch::default(),
            faults,
            faults_drawn: 0,
            order,
            next_arrival: 0,
            events: 0,
            staging,
            pack_of: vec![None; n],
            jobs,
        }
    }

    // ------------------------------------------------------------------
    // Live inspection.
    // ------------------------------------------------------------------

    /// Whether every released job has completed and no arrivals remain.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.next_arrival >= self.jobs.len() && self.running.is_empty()
    }

    /// Simulation time of the last processed event.
    #[must_use]
    pub fn now(&self) -> f64 {
        self.last_t
    }

    /// Events processed so far.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Jobs waiting for admission anywhere: the admission queue plus, under
    /// staging, the backlog and every pending pack.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.waiting_count()
    }

    /// Currently running jobs with their allocation sizes, ascending id.
    #[must_use]
    pub fn running_jobs(&self) -> Vec<(TaskId, u32)> {
        self.running.iter().map(|&i| (i, self.state.sigma(i))).collect()
    }

    /// Free processors.
    #[must_use]
    pub fn free_procs(&self) -> u32 {
        self.state.free_count()
    }

    /// Live state of job `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn job_state(&self, i: TaskId) -> JobState {
        assert!(i < self.jobs.len(), "job {i} out of range");
        if self.running.contains(&i) {
            return JobState::Running { alloc: self.state.sigma(i) };
        }
        if self.completion[i] > 0.0 {
            return JobState::Completed { at: self.completion[i] };
        }
        if self.released[i] {
            JobState::Waiting { pack: self.pack_of[i] }
        } else {
            JobState::NotReleased
        }
    }

    /// The event trace recorded so far (empty unless recording) — live
    /// access between steps, e.g. for paging events out of a service.
    #[must_use]
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Total jobs known to the session (initial stream plus submissions).
    #[must_use]
    pub fn num_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// The platform the session runs on.
    #[must_use]
    pub fn platform(&self) -> Platform {
        self.platform
    }

    /// Handles over every pack staged so far (drained, active, pending).
    /// Empty on a flat-FIFO session or before the first staging trigger.
    #[must_use]
    pub fn packs(&self) -> Vec<PackHandle> {
        self.staging.as_ref().map(PackSetState::handles).unwrap_or_default()
    }

    /// Handle of one staged pack (direct lookup, no full-set clone).
    #[must_use]
    pub fn pack(&self, id: PackId) -> Option<PackHandle> {
        self.staging.as_ref().and_then(|st| st.handle(id))
    }

    /// Id of the pack currently open for admission, if any.
    #[must_use]
    pub fn active_pack(&self) -> Option<PackId> {
        self.staging.as_ref().and_then(|st| st.active.as_ref().map(|a| a.id))
    }

    // ------------------------------------------------------------------
    // Stepping.
    // ------------------------------------------------------------------

    /// Processes the next event (completion, arrival or fault — earliest
    /// first; ties resolve completion → arrival → fault exactly like the
    /// legacy engine) and reports it. Returns `Ok(None)` once the run is
    /// complete.
    ///
    /// # Errors
    /// [`ScheduleError::EventLimitExceeded`] when the configured safety cap
    /// is hit.
    pub fn step(&mut self) -> Result<Option<SessionEvent>, ScheduleError> {
        if self.is_done() {
            debug_assert!(
                self.queue.is_empty()
                    && self.staging.as_ref().is_none_or(|st| st.staged_waiting() == 0),
                "jobs left queued after termination"
            );
            return Ok(None);
        }
        self.events += 1;
        if self.events > self.config.max_events {
            return Err(ScheduleError::EventLimitExceeded { limit: self.config.max_events });
        }

        let n = self.jobs.len();
        let end = self.earliest_end();
        let arr =
            (self.next_arrival < n).then(|| self.jobs[self.order[self.next_arrival]].release);
        let fault_t = self.faults.as_ref().and_then(FaultSource::peek_time);

        // Priority at equal times: completion, then arrival, then fault —
        // completions free processors for arrivals, and the static engine
        // already orders ends before faults.
        let end_wins = end.is_some_and(|(_, te)| {
            arr.is_none_or(|ta| te <= ta) && fault_t.is_none_or(|tf| te <= tf)
        });
        let event = if end_wins {
            let (i, te) = end.expect("end_wins implies an end event");
            self.handle_end(i, te);
            SessionEvent::Completion { time: te, job: i }
        } else if arr.is_some_and(|ta| fault_t.is_none_or(|tf| ta <= tf)) {
            let i = self.order[self.next_arrival];
            self.next_arrival += 1;
            let t = self.jobs[i].release;
            self.handle_arrival(i, t);
            SessionEvent::Arrival { time: t, job: i, started: self.running.contains(&i) }
        } else {
            let fault = self
                .faults
                .as_mut()
                .expect("a fault event was selected")
                .next_fault()
                .expect("fault streams are infinite");
            self.faults_drawn += 1;
            let handled_before = self.handled_faults;
            let job = self.state.owner(fault.proc);
            self.handle_fault(fault.proc, fault.time);
            SessionEvent::Fault {
                time: fault.time,
                proc: fault.proc,
                job,
                handled: self.handled_faults > handled_before,
            }
        };
        Ok(Some(event))
    }

    /// Time of the next pending event (completion, arrival or fault),
    /// without processing it. `None` once the run is complete — the
    /// unbounded fault stream does not keep a finished session alive.
    #[must_use]
    pub fn next_event_time(&mut self) -> Option<f64> {
        if self.is_done() {
            return None;
        }
        let mut next = f64::INFINITY;
        if let Some((_, te)) = self.earliest_end() {
            next = next.min(te);
        }
        if self.next_arrival < self.jobs.len() {
            next = next.min(self.jobs[self.order[self.next_arrival]].release);
        }
        if let Some(tf) = self.faults.as_ref().and_then(FaultSource::peek_time) {
            next = next.min(tf);
        }
        Some(next)
    }

    /// Processes every event with time `≤ t` (virtual time, not wall
    /// clock) and returns how many were handled. The session clock
    /// afterwards sits at the last processed event; a later
    /// [`submit`](Self::submit) or `run_to` continues seamlessly.
    ///
    /// # Errors
    /// Propagates [`Session::step`] errors.
    pub fn run_to(&mut self, t: f64) -> Result<u64, ScheduleError> {
        let mut processed = 0;
        while self.next_event_time().is_some_and(|te| te <= t) {
            self.step()?;
            processed += 1;
        }
        Ok(processed)
    }

    /// Submits additional jobs into a running (or even finished) session:
    /// they join the arrival stream with ids continuing from the current
    /// job count and are released at their `release` times.
    ///
    /// Submission keeps the replay guarantee: a session that received jobs
    /// incrementally is indistinguishable from one built with the full job
    /// list up front, because releases may not predate the current clock
    /// and arrival order ties break by job id.
    ///
    /// # Errors
    /// [`ScheduleError::ReleaseInPast`] if any release time is `NaN` or
    /// precedes [`now`](Self::now) — admitting it would rewrite already
    /// committed history. No job is added on error.
    pub fn submit(&mut self, new_jobs: &[JobSpec]) -> Result<(), ScheduleError> {
        for job in new_jobs {
            // `NaN` releases must fail too, not just early ones.
            if job.release < self.last_t || job.release.is_nan() {
                return Err(ScheduleError::ReleaseInPast {
                    release: job.release,
                    now: self.last_t,
                });
            }
        }
        if new_jobs.is_empty() {
            return Ok(());
        }
        let old = self.jobs.len();
        self.jobs.extend_from_slice(new_jobs);
        let n = self.jobs.len();
        self.released.resize(n, false);
        self.start.resize(n, 0.0);
        self.completion.resize(n, 0.0);
        self.recovery_until.resize(n, 0.0);
        self.pack_of.resize(n, None);
        self.state.add_tasks(n - old);
        // Merge the newcomers into the pending arrival suffix. The stable
        // sort keeps equal releases in id order (the suffix was already
        // id-ordered per release, and the appended ids are the largest), so
        // the whole `order` array stays exactly what a fresh session over
        // the full job list would compute.
        self.order.extend(old..n);
        self.order[self.next_arrival..].sort_by(|&a, &b| {
            self.jobs[a]
                .release
                .partial_cmp(&self.jobs[b].release)
                .expect("releases are finite")
        });
        // Rebuild the time calculator over the grown workload. Its tables
        // are pure memoization, so values for existing jobs are identical —
        // only the capacity changes.
        let workload = Workload::from_jobs(&self.jobs, self.speedup.clone());
        self.calc = if self.config.faults.is_some() {
            TimeCalc::new(workload, self.platform)
        } else {
            TimeCalc::fault_free(workload, self.platform)
        };
        Ok(())
    }

    /// Drains the remaining events and assembles the outcome. Callable at
    /// any point, including after manual [`step`](Self::step)ping.
    ///
    /// # Errors
    /// Propagates [`Session::step`] errors.
    pub fn run_to_completion(mut self) -> Result<OnlineOutcome, ScheduleError> {
        while self.step()?.is_some() {}
        Ok(self.into_outcome())
    }

    /// Assembles the outcome of a finished session without consuming it —
    /// the session stays inspectable and can accept further
    /// [`submit`](Self::submit)ted jobs afterwards.
    ///
    /// # Panics
    /// Panics unless [`is_done`](Self::is_done).
    #[must_use]
    pub fn outcome(&self) -> OnlineOutcome {
        assert!(self.is_done(), "outcome() requires a finished session");
        self.build_outcome(
            self.queue_series.clone(),
            self.staging.as_ref().map(|st| st.reports.clone()).unwrap_or_default(),
            self.trace.clone(),
        )
    }

    /// Builds the outcome from a finished session.
    fn into_outcome(mut self) -> OnlineOutcome {
        debug_assert!(self.is_done());
        let queue_series = std::mem::take(&mut self.queue_series);
        let packs = self.staging.take().map(|st| st.reports).unwrap_or_default();
        let trace = std::mem::take(&mut self.trace);
        self.build_outcome(queue_series, packs, trace)
    }

    fn build_outcome(
        &self,
        queue_series: Vec<(f64, usize)>,
        packs: Vec<PackReport>,
        trace: TraceLog,
    ) -> OnlineOutcome {
        let n = self.jobs.len();
        let makespan = self.completion.iter().copied().fold(0.0, f64::max);
        let stats: Vec<JobStats> = (0..n)
            .map(|i| JobStats {
                job: i,
                release: self.jobs[i].release,
                start: self.start[i],
                completion: self.completion[i],
                reference: best_fault_free_time(&self.calc, i, self.p),
            })
            .collect();
        let metrics = OnlineMetrics::compute(
            &stats,
            makespan,
            self.p,
            self.busy_proc_seconds,
            &queue_series,
        );
        OnlineOutcome {
            makespan,
            jobs: stats,
            metrics,
            handled_faults: self.handled_faults,
            discarded_faults: self.discarded_faults,
            fatal_risk_events: self.fatal_risk_events,
            redistributions: self.redistributions,
            queue_series,
            packs,
            trace,
        }
    }

    // ------------------------------------------------------------------
    // Snapshot / restore.
    // ------------------------------------------------------------------

    /// Captures the complete logical state of the session. The companion
    /// [`resume`](Self::resume) rebuilds a session that replays the
    /// byte-identical remaining event sequence (see the
    /// [`snapshot`](crate::snapshot) module for why this is exact).
    #[must_use]
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            jobs: self.jobs.clone(),
            platform: self.platform,
            strategy: self.strategy,
            config: self.config,
            faults_drawn: self.faults_drawn,
            state: self.state.snapshot(),
            trace: self.trace.events().to_vec(),
            queue: self.queue.iter().copied().collect(),
            start: self.start.clone(),
            completion: self.completion.clone(),
            recovery_until: self.recovery_until.clone(),
            queue_series: self.queue_series.clone(),
            redistributions: self.redistributions,
            handled_faults: self.handled_faults,
            discarded_faults: self.discarded_faults,
            fatal_risk_events: self.fatal_risk_events,
            busy_proc_seconds: self.busy_proc_seconds,
            last_t: self.last_t,
            next_arrival: self.next_arrival,
            events: self.events,
            staging: self.staging.as_ref().map(PackSetState::snapshot),
        }
    }

    /// Rebuilds a session from a snapshot. The speedup model is the one
    /// piece a snapshot cannot carry (an opaque trait object): the caller
    /// must supply the same model the snapshotted session used, or the
    /// replay guarantee is void.
    ///
    /// # Errors
    /// [`ScheduleError::CorruptSnapshot`] when the document is internally
    /// inconsistent; [`ScheduleError::InsufficientProcessors`] on an
    /// impossible platform.
    pub fn resume(
        snap: SessionSnapshot,
        speedup: Arc<dyn SpeedupModel>,
    ) -> Result<Self, ScheduleError> {
        let corrupt = |reason: &'static str| ScheduleError::CorruptSnapshot { reason };
        let n = snap.jobs.len();
        if n == 0 {
            return Err(corrupt("empty job list"));
        }
        let p = snap.platform.num_procs;
        if p < 2 {
            return Err(ScheduleError::InsufficientProcessors { needed: 2, available: p });
        }
        if snap.state.p != p {
            return Err(corrupt("pack state disagrees with the platform size"));
        }
        if snap.state.runtimes.len() != n {
            return Err(corrupt("pack state disagrees with the job count"));
        }
        if snap.start.len() != n || snap.completion.len() != n || snap.recovery_until.len() != n
        {
            return Err(corrupt("per-job arrays disagree on the job count"));
        }
        if snap.next_arrival > n {
            return Err(corrupt("arrival cursor past the job list"));
        }
        if snap.jobs.iter().any(|j| !j.release.is_finite()) {
            return Err(corrupt("non-finite job release time"));
        }
        if snap.config.faults.is_none() && snap.faults_drawn > 0 {
            return Err(corrupt("fault cursor without a fault configuration"));
        }
        if !snap.config.record_trace && !snap.trace.is_empty() {
            return Err(corrupt("trace events present while recording is off"));
        }
        let state = PackState::from_snapshot(&snap.state)?;

        // Derived state: release order, release flags, the running set.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            snap.jobs[a].release.partial_cmp(&snap.jobs[b].release).expect("checked finite")
        });
        let mut released = vec![false; n];
        for &i in &order[..snap.next_arrival] {
            released[i] = true;
        }
        let running: BTreeSet<TaskId> =
            (0..n).filter(|&i| !snap.state.ends[i].is_nan()).collect();
        if running.iter().any(|&i| !released[i]) {
            return Err(corrupt("a running job was never released"));
        }
        let mut queued = vec![false; n];
        for &i in &snap.queue {
            if i >= n {
                return Err(corrupt("queued job id out of range"));
            }
            if !released[i] || running.contains(&i) || state.runtime(i).done || queued[i] {
                return Err(corrupt("admission queue contradicts the job records"));
            }
            queued[i] = true;
        }

        // Staging overlay + the derived pack-membership index.
        let mut pack_of: Vec<Option<PackId>> = vec![None; n];
        let staging = match snap.staging {
            None => None,
            Some(st) => {
                let packs = st
                    .reports
                    .iter()
                    .map(|r| (r.pack, &r.jobs))
                    .chain(st.active.iter().map(|a| (a.id, &a.members)))
                    .chain(st.pending.iter().map(|pk| (pk.id, &pk.members)));
                for (id, members) in packs {
                    for &j in members {
                        if j >= n {
                            return Err(corrupt("staged pack member out of range"));
                        }
                        if pack_of[j].replace(id).is_some() {
                            return Err(corrupt("a job is a member of two packs"));
                        }
                    }
                }
                if st.backlog.iter().any(|&j| j >= n) {
                    return Err(corrupt("backlog job id out of range"));
                }
                Some(PackSetState::from_snapshot(st))
            }
        };

        // Fresh fault source fast-forwarded to the replay cursor — exact
        // because fault traces are policy-independent pure functions of
        // (seed, p, law).
        let faults = snap.config.faults.map(|fc| {
            let mut src = FaultSource::new(fc.seed, p, fc.law);
            for _ in 0..snap.faults_drawn {
                src.next_fault();
            }
            src
        });
        let workload = Workload::from_jobs(&snap.jobs, speedup.clone());
        let calc = if snap.config.faults.is_some() {
            TimeCalc::new(workload, snap.platform)
        } else {
            TimeCalc::fault_free(workload, snap.platform)
        };
        Ok(Self {
            speedup,
            platform: snap.platform,
            p,
            strategy: snap.strategy,
            calc,
            state,
            trace: TraceLog::from_events(snap.config.record_trace, snap.trace),
            config: snap.config,
            running,
            queue: snap.queue.into_iter().collect(),
            released,
            start: snap.start,
            completion: snap.completion,
            recovery_until: snap.recovery_until,
            queue_series: snap.queue_series,
            redistributions: snap.redistributions,
            handled_faults: snap.handled_faults,
            discarded_faults: snap.discarded_faults,
            fatal_risk_events: snap.fatal_risk_events,
            busy_proc_seconds: snap.busy_proc_seconds,
            last_t: snap.last_t,
            end_policy: snap.strategy.heuristic.end_policy(),
            fault_policy: snap.strategy.heuristic.fault_policy(),
            eligible_buf: Vec::new(),
            scratch: PolicyScratch::default(),
            faults,
            faults_drawn: snap.faults_drawn,
            order,
            next_arrival: snap.next_arrival,
            events: snap.events,
            staging,
            pack_of,
            jobs: snap.jobs,
        })
    }

    // ------------------------------------------------------------------
    // Event handlers — the PR 3 `OnlineSim` code, with the staging hooks
    // spliced in behind `self.staging` (a flat-FIFO session never takes
    // them, so its decision sequence is unchanged byte for byte).
    // ------------------------------------------------------------------

    /// Total waiting jobs (queue + staged backlog + pending packs). Equals
    /// `queue.len()` on the flat path.
    fn waiting_count(&self) -> usize {
        self.queue.len() + self.staging.as_ref().map_or(0, PackSetState::staged_waiting)
    }

    /// Accrues the busy-processor integral up to `t`. Events are processed
    /// in global time order, so `t ≥ last_t`; the clamp is a safety net.
    fn advance(&mut self, t: f64) {
        let dt = (t - self.last_t).max(0.0);
        if dt > 0.0 {
            self.busy_proc_seconds += f64::from(self.state.used_count()) * dt;
            self.last_t = self.last_t.max(t);
        }
    }

    /// Earliest expected completion among running jobs (ties toward the
    /// lowest job id). `O(log n)` via the pack state's end-event queue:
    /// queued jobs never enter it (their `t^U` is only set at start), so
    /// the heap view coincides with the `running` set.
    fn earliest_end(&mut self) -> Option<(TaskId, f64)> {
        let picked = self.state.earliest_active();
        debug_assert_eq!(
            picked.map(|(i, _)| self.running.contains(&i)),
            picked.map(|_| true),
            "end-event queue returned a non-running job"
        );
        picked
    }

    /// Fills `into` with the jobs allowed to participate in a
    /// redistribution at time `t`: running and not inside a previous
    /// redistribution window. `skip` excludes the faulty job (handled
    /// separately by fault policies).
    fn fill_eligible(&self, t: f64, skip: Option<TaskId>, into: &mut Vec<TaskId>) {
        into.clear();
        into.extend(
            self.running
                .iter()
                .copied()
                .filter(|&i| Some(i) != skip && self.state.runtime(i).t_last_r <= t),
        );
    }

    /// The admission layer's initial allocation for job `i`: the best even
    /// allocation (Algorithm 1's improvement scan applied to one job)
    /// within a fair share of the free pool.
    fn admission_grant(&mut self, i: TaskId, waiting: usize) -> u32 {
        let free = self.state.free_count();
        debug_assert!(free >= 2 && waiting >= 1);
        let share = free / waiting.max(1) as u32;
        let cap = (share - share % 2).max(2);
        let mut best_j = 2u32;
        let mut best_t = self.calc.remaining(i, 2, 1.0);
        let mut j = 4u32;
        while j <= cap {
            let t = self.calc.remaining(i, j, 1.0);
            if t < best_t {
                best_t = t;
                best_j = j;
            }
            j += 2;
        }
        best_j
    }

    /// Starts job `i` at time `t` on its admission grant.
    fn start_job(&mut self, i: TaskId, t: f64, waiting: usize) {
        let grant = self.admission_grant(i, waiting);
        self.state.grow(i, grant);
        if self.state.greedy_floors_ready() {
            // The admission grant changes an allocation outside the policy
            // commit path: refresh the greedy warm-start floor queue (the
            // certificate's exactness contract, see `core::policies::greedy`).
            let floor = redistrib_core::greedy_floor_key(self.calc.task_size(i), grant);
            self.state.set_greedy_floor(i, floor);
        }
        let remaining = self.calc.remaining(i, grant, 1.0);
        let rt = self.state.runtime_mut(i);
        rt.alpha = 1.0;
        rt.t_last_r = t;
        self.state.set_t_u(i, t + remaining);
        self.running.insert(i);
        self.start[i] = t;
        self.trace.push(TraceEvent::JobStart { time: t, job: i, alloc: grant });
    }

    /// Admits queued jobs FIFO while at least two processors are free.
    /// Returns how many jobs started.
    fn admit_queued(&mut self, t: f64) -> usize {
        let mut started = 0;
        while self.state.free_count() >= 2 {
            let waiting = self.queue.len();
            let Some(i) = self.queue.pop_front() else { break };
            self.start_job(i, t, waiting);
            started += 1;
            self.queue_series.push((t, self.waiting_count()));
        }
        started
    }

    /// Builds the policy context once and dispatches the requested call —
    /// the single spot where the online engine enters static-engine policy
    /// code. No-op on an empty listed set (except fault policies, which
    /// can act on the faulty job alone); the live view is handed through
    /// as-is, the incremental policies derive membership themselves.
    fn run_policy(&mut self, t: f64, eligible: EligibleSet<'_>, call: PolicyCall) {
        if let EligibleSet::Listed(list) = eligible {
            if list.is_empty() && !matches!(call, PolicyCall::Fault(_)) {
                return;
            }
        }
        let mut ctx = HeuristicCtx {
            calc: &self.calc,
            state: &mut self.state,
            trace: &mut self.trace,
            now: t,
            eligible,
            scratch: &mut self.scratch,
            pseudocode_fault_bias: false,
            redistributions: &mut self.redistributions,
        };
        match call {
            // The arrival rebalance follows the strategy's greedy flavor
            // (exact certified dispatch, or the approximate warm resume),
            // selected by the heuristic exactly like end/fault policies.
            PolicyCall::Rebuild => (self.strategy.heuristic.arrival_rebuild())(&mut ctx, None),
            PolicyCall::End => self.end_policy.on_task_end(&mut ctx),
            PolicyCall::Fault(f) => self.fault_policy.on_fault(&mut ctx, f),
        }
    }

    /// Runs a non-fault policy call over the jobs eligible at `t`: the
    /// live view on the incremental path, or a materialized list on the
    /// reference path.
    fn run_policy_eligible(&mut self, t: f64, call: PolicyCall) {
        if self.config.reference_policies {
            let mut eligible = std::mem::take(&mut self.eligible_buf);
            self.fill_eligible(t, None, &mut eligible);
            self.run_policy(t, EligibleSet::Listed(&eligible), call);
            self.eligible_buf = eligible;
        } else {
            self.run_policy(t, EligibleSet::live(), call);
        }
    }

    /// Greedy rebuild of the running set (the `IteratedGreedy`/`EndGreedy`
    /// core), used on arrivals.
    fn rebuild(&mut self, t: f64) {
        self.run_policy_eligible(t, PolicyCall::Rebuild);
    }

    /// Marks job `i` complete at `t` and releases its processors.
    fn complete_job(&mut self, i: TaskId, t: f64) {
        self.advance(t);
        self.state.complete(i, t);
        self.running.remove(&i);
        self.completion[i] = t;
        self.trace.push(TraceEvent::TaskEnd { time: t, task: i });
    }

    /// Partitions `waiting` into staged packs and queues them as pending.
    /// The caller opens the first one.
    fn stage_waiting(&mut self, waiting: &[TaskId]) {
        let st = self.staging.as_mut().expect("staging enabled");
        let packs = st.partitioner.partition(waiting, &self.jobs, &self.speedup, self.p);
        for members in packs {
            let id = st.next_id;
            st.next_id += 1;
            for &job in &members {
                self.pack_of[job] = Some(id);
            }
            let remaining = members.len();
            st.pending.push_back(StagedPack { id, members, remaining, opened_at: 0.0 });
        }
    }

    /// Opens the next staged pack at `t`: its members become admissible.
    /// When the pending sequence is exhausted, the backlog is either
    /// re-staged (still oversubscribed) or returned to the flat queue.
    fn open_next_pack(&mut self, t: f64) {
        loop {
            let Some(st) = self.staging.as_mut() else { return };
            if let Some(mut pack) = st.pending.pop_front() {
                pack.opened_at = t;
                self.trace.push(TraceEvent::PackStart {
                    time: t,
                    pack: pack.id,
                    jobs: pack.members.len() as u32,
                });
                self.queue.extend(pack.members.iter().copied());
                st.active = Some(pack);
                return;
            }
            st.active = None;
            if st.backlog.is_empty() {
                return;
            }
            if 2 * st.backlog.len() > self.p as usize {
                let waiting: Vec<TaskId> = st.backlog.drain(..).collect();
                self.stage_waiting(&waiting);
                // Loop around to open the first re-staged pack.
            } else {
                // Small backlog: fall back to flat FIFO admission.
                let drained: Vec<TaskId> = st.backlog.drain(..).collect();
                self.queue.extend(drained);
                return;
            }
        }
    }

    /// Staging bookkeeping after job `i` completed at `t`: decrements the
    /// active pack and rotates to the next one when it drains.
    fn note_pack_completion(&mut self, i: TaskId, t: f64) {
        let Some(pid) = self.pack_of[i] else { return };
        let Some(st) = self.staging.as_mut() else { return };
        let Some(active) = st.active.as_mut() else { return };
        if active.id != pid {
            return;
        }
        active.remaining -= 1;
        if active.remaining == 0 {
            debug_assert!(
                !self.queue.iter().any(|q| self.pack_of[*q] == Some(pid)),
                "pack drained with members still queued"
            );
            let closed = st.active.take().expect("active pack checked above");
            st.reports.push(PackReport {
                pack: closed.id,
                jobs: closed.members,
                opened: closed.opened_at,
                closed: t,
            });
            self.open_next_pack(t);
        }
    }

    fn handle_arrival(&mut self, i: TaskId, t: f64) {
        self.advance(t);
        self.released[i] = true;
        self.trace.push(TraceEvent::JobArrival { time: t, job: i });
        if self.staging.as_ref().is_some_and(PackSetState::engaged) {
            // Packs are draining: the newcomer waits in the backlog until
            // the current pack sequence is exhausted.
            self.trace.push(TraceEvent::JobQueued { time: t, job: i });
            self.staging.as_mut().expect("engaged staging").backlog.push_back(i);
            self.queue_series.push((t, self.waiting_count()));
        } else {
            if self.state.free_count() < 2 {
                self.trace.push(TraceEvent::JobQueued { time: t, job: i });
            }
            self.queue.push_back(i);
            self.queue_series.push((t, self.waiting_count()));
            if self.staging.is_some() && 2 * self.queue.len() > self.p as usize {
                // The backlog now oversubscribes the platform: stage it
                // into consecutive packs and open the first.
                let waiting: Vec<TaskId> = self.queue.drain(..).collect();
                self.stage_waiting(&waiting);
                self.open_next_pack(t);
            }
        }
        // A tight pool may still hold past-sweet-spot allocations: shed
        // them before trying to admit.
        if self.strategy.rebalance_on_arrival
            && self.state.free_count() < 2
            && !self.running.is_empty()
        {
            self.rebuild(t);
        }
        let started = self.admit_queued(t);
        if self.strategy.rebalance_on_arrival && started > 0 {
            self.rebuild(t);
            // The rebuild may have freed further pairs (jobs shrunk toward
            // their sweet spots): give them to still-queued jobs.
            self.admit_queued(t);
        }
    }

    fn handle_end(&mut self, i: TaskId, t: f64) {
        self.complete_job(i, t);
        if self.staging.is_some() {
            self.note_pack_completion(i, t);
        }
        self.admit_queued(t);
        if !self.running.is_empty()
            && self.state.free_count() >= 2
            && !self.end_policy.is_noop()
        {
            self.run_policy_eligible(t, PolicyCall::End);
            // A greedy end policy may have shed processors: admit again.
            self.admit_queued(t);
        }
        debug_assert!(self.state.check_invariants());
    }

    fn handle_fault(&mut self, proc: u32, t: f64) {
        self.advance(t);
        let Some(f) = self.state.owner(proc) else {
            self.discarded_faults += 1;
            self.trace.push(TraceEvent::FaultDiscarded { time: t, proc });
            return;
        };
        if t < self.state.runtime(f).t_last_r {
            // Protected downtime/recovery/redistribution window.
            self.discarded_faults += 1;
            if t < self.recovery_until[f] {
                self.fatal_risk_events += 1;
            }
            self.trace.push(TraceEvent::FaultDiscarded { time: t, proc });
            return;
        }

        self.handled_faults += 1;
        // Roll back to the last checkpoint; pay downtime + recovery
        // (Algorithm 2 lines 23–26, unchanged from the static engine).
        let j = self.state.sigma(f);
        let elapsed = t - self.state.runtime(f).t_last_r;
        let retained = self.calc.progress_faulty(f, j, elapsed);
        let d = self.calc.downtime();
        let r = self.calc.recovery_time(f, j);
        let anchor = t + d + r;
        {
            let rt = self.state.runtime_mut(f);
            rt.alpha = (rt.alpha - retained).max(0.0);
            rt.t_last_r = anchor;
        }
        let remaining = self.calc.remaining(f, j, self.state.runtime(f).alpha);
        self.state.set_t_u(f, anchor + remaining);
        self.recovery_until[f] = anchor;
        self.trace.push(TraceEvent::Fault { time: t, proc, task: f });

        // Unlike the static engine, jobs finishing inside the recovery
        // window are NOT completed here: eager completion would release
        // their processors at a *future* timestamp, letting an arrival due
        // earlier grab processors that are still physically busy. The main
        // loop completes them as ordinary end events in global time order.
        // They are only excluded from the fault policy's donor set below
        // (`t_u < anchor`), matching the static engine's decisions.

        // Fault policy only if the struck job became the longest — an O(1)
        // amortized latest-queue peek instead of a scan over `running`.
        let tu_f = self.state.runtime(f).t_u;
        let is_longest = self.state.none_later_than(tu_f);
        if is_longest && !self.fault_policy.is_noop() {
            if self.config.reference_policies {
                let mut eligible = std::mem::take(&mut self.eligible_buf);
                self.fill_eligible(t, Some(f), &mut eligible);
                eligible.retain(|&i| self.state.runtime(i).t_u >= anchor);
                self.run_policy(t, EligibleSet::Listed(&eligible), PolicyCall::Fault(f));
                self.eligible_buf = eligible;
            } else {
                // Jobs finishing inside the recovery window are excluded
                // from the donor set (the static engine has completed its
                // equivalents already; here they complete as ordinary end
                // events later).
                self.run_policy(t, EligibleSet::live_fault(f, anchor), PolicyCall::Fault(f));
            }
        }
        self.admit_queued(t);
        debug_assert!(self.state.check_invariants());
    }
}

/// Fault-free execution time of job `i` at its best even allocation `≤ p` —
/// the stretch reference (the job alone on an empty, reliable platform).
fn best_fault_free_time(calc: &TimeCalc, i: TaskId, p: u32) -> f64 {
    let mut best = f64::INFINITY;
    let mut j = 2u32;
    while j <= p {
        best = best.min(calc.fault_free_time(i, j));
        j += 2;
    }
    best
}
