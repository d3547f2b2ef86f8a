//! Multi-pack staging of an oversubscribed arrival backlog.
//!
//! The paper co-schedules applications in *packs* and notes (§1, §7) that
//! co-scheduling "usually involves partitioning the applications into
//! packs, and then scheduling each pack in sequence". The online engine of
//! PR 1–3 ran a single elastic pack: a flat FIFO queue fed the admission
//! layer, and an oversubscribed backlog (`2·waiting > p` — more waiting
//! buddy pairs than processors) simply trickled through two processors at a
//! time. This module stages such a backlog into *consecutive packs* instead,
//! reusing the `redistrib-packs` partitioners ([`chunk_by_capacity`] /
//! [`lpt_packs`]):
//!
//! * while the backlog is small, admission is the legacy flat FIFO —
//!   byte-identical to the PR 3 engine;
//! * when an arrival makes `2·waiting > p`, the whole waiting set is
//!   partitioned into packs; only the *active* pack's jobs are admissible;
//! * a pack closes when **all** of its members have completed (the paper's
//!   sequential-pack barrier); the next pack then opens, and jobs that
//!   arrived in the meantime are re-staged (or returned to the flat queue
//!   when they no longer oversubscribe the platform).
//!
//! Inspection goes through [`PackHandle`]s: a [`Session`](crate::Session)
//! exposes every staged pack's phase, membership and progress by
//! [`PackId`], generalizing the admission/resizing surface from "the pack"
//! to "a pack handle".

use std::collections::VecDeque;
use std::sync::Arc;

use redistrib_model::{JobSpec, SpeedupModel, TaskId, Workload};
use redistrib_packs::{chunk_by_capacity, lpt_packs};

/// Identifier of a staged pack within one session, `0..` in opening order.
pub type PackId = usize;

/// How the admission layer treats a growing backlog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PackStaging {
    /// Single-pack behavior: one flat FIFO admission queue, never
    /// staged. Byte-identical to the original one-shot online engine.
    #[default]
    FlatFifo,
    /// Stage the waiting set into consecutive packs whenever an arrival
    /// oversubscribes the platform (`2·waiting > p`), draining them
    /// pack-by-pack with a completion barrier between packs.
    Oversubscribed {
        /// Partitioner applied to the waiting set at staging time.
        partitioner: PackPartitioner,
    },
}

impl PackStaging {
    /// Oversubscription staging with the capacity-chunking partitioner.
    #[must_use]
    pub fn oversubscribed() -> Self {
        Self::Oversubscribed { partitioner: PackPartitioner::CapacityChunks }
    }

    /// Whether staging is enabled at all.
    #[must_use]
    pub fn is_staged(&self) -> bool {
        matches!(self, Self::Oversubscribed { .. })
    }
}

/// Partitioning strategy applied to the waiting set when staging triggers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackPartitioner {
    /// [`chunk_by_capacity`]: as many jobs per pack as the buddy protocol
    /// allows (`⌊p/2⌋`), largest first — the minimal feasibility partition.
    CapacityChunks,
    /// [`lpt_packs`] over the minimum feasible pack count
    /// `⌈2·waiting / p⌉`: longest-processing-time balancing of sequential
    /// work across packs.
    LptBalanced,
}

impl PackPartitioner {
    /// Partitions the `waiting` jobs (ids into the session's job list) into
    /// consecutive packs on a `p`-processor platform. Pack membership is a
    /// pure function of the waiting set and job sizes — deterministic.
    pub(crate) fn partition(
        self,
        waiting: &[TaskId],
        jobs: &[JobSpec],
        speedup: &Arc<dyn SpeedupModel>,
        p: u32,
    ) -> Vec<Vec<TaskId>> {
        debug_assert!(!waiting.is_empty());
        let sub = Workload::new(
            waiting.iter().map(|&i| jobs[i].task.clone()).collect(),
            speedup.clone(),
        );
        let partition = match self {
            Self::CapacityChunks => chunk_by_capacity(&sub, p),
            Self::LptBalanced => {
                let k = (2 * waiting.len()).div_ceil(p as usize).max(1);
                lpt_packs(&sub, k)
            }
        };
        debug_assert!(partition.is_valid(waiting.len()));
        partition
            .packs
            .into_iter()
            .map(|pack| pack.into_iter().map(|local| waiting[local]).collect())
            .collect()
    }
}

/// Lifecycle phase of a staged pack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackPhase {
    /// Staged but not yet admissible (an earlier pack is still draining).
    Pending,
    /// Open: its members are admissible (waiting in the queue or running).
    Active,
    /// Every member completed; the pack's processors moved on.
    Drained,
}

/// Inspection view of one staged pack — the handle through which session
/// callers reason about multi-pack progress.
#[derive(Debug, Clone, PartialEq)]
pub struct PackHandle {
    /// Pack id (opening order).
    pub id: PackId,
    /// Current phase.
    pub phase: PackPhase,
    /// Member job ids.
    pub jobs: Vec<TaskId>,
    /// Members not yet completed.
    pub remaining: usize,
}

/// Completion record of one drained pack, kept in the session outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct PackReport {
    /// Pack id.
    pub pack: PackId,
    /// Member job ids.
    pub jobs: Vec<TaskId>,
    /// Time the pack opened for admission.
    pub opened: f64,
    /// Time the last member completed.
    pub closed: f64,
}

/// One staged pack in flight.
#[derive(Debug, Clone)]
pub(crate) struct StagedPack {
    pub id: PackId,
    pub members: Vec<TaskId>,
    /// Members not yet completed.
    pub remaining: usize,
    pub opened_at: f64,
}

/// Serializable view of one staged pack (pending or active) inside a
/// [`PackSetSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct PackSnapshot {
    /// Pack id.
    pub id: PackId,
    /// Member job ids.
    pub members: Vec<TaskId>,
    /// Members not yet completed.
    pub remaining: usize,
    /// Time the pack opened (0 while pending).
    pub opened_at: f64,
}

impl PackSnapshot {
    fn of(pack: &StagedPack) -> Self {
        Self {
            id: pack.id,
            members: pack.members.clone(),
            remaining: pack.remaining,
            opened_at: pack.opened_at,
        }
    }

    fn into_staged(self) -> StagedPack {
        StagedPack {
            id: self.id,
            members: self.members,
            remaining: self.remaining,
            opened_at: self.opened_at,
        }
    }
}

/// Serializable view of a session's multi-pack staging overlay — part of
/// the stable session snapshot encoding.
#[derive(Debug, Clone, PartialEq)]
pub struct PackSetSnapshot {
    /// Partitioner applied when staging triggers.
    pub partitioner: PackPartitioner,
    /// Jobs waiting behind the current pack sequence, FIFO order.
    pub backlog: Vec<TaskId>,
    /// Staged packs not yet opened, opening order.
    pub pending: Vec<PackSnapshot>,
    /// The pack currently open for admission, if any.
    pub active: Option<PackSnapshot>,
    /// Next pack id to assign.
    pub next_id: PackId,
    /// Drained packs, closing order.
    pub reports: Vec<PackReport>,
}

/// Mutable staging state of one session (absent in flat-FIFO mode).
#[derive(Debug, Clone)]
pub(crate) struct PackSetState {
    pub partitioner: PackPartitioner,
    /// Jobs that arrived while packs were draining; re-staged (or returned
    /// to the flat queue) when the current pack sequence is exhausted.
    pub backlog: VecDeque<TaskId>,
    /// Staged packs not yet opened.
    pub pending: VecDeque<StagedPack>,
    /// The open pack whose members are admissible, if any.
    pub active: Option<StagedPack>,
    pub next_id: PackId,
    /// Drained packs, in closing order.
    pub reports: Vec<PackReport>,
}

impl PackSetState {
    pub(crate) fn new(partitioner: PackPartitioner) -> Self {
        Self {
            partitioner,
            backlog: VecDeque::new(),
            pending: VecDeque::new(),
            active: None,
            next_id: 0,
            reports: Vec::new(),
        }
    }

    /// Whether packs are currently staged (arrivals must go to the backlog).
    pub(crate) fn engaged(&self) -> bool {
        self.active.is_some() || !self.pending.is_empty()
    }

    /// Jobs waiting somewhere under staging control (backlog + pending
    /// packs; the active pack's waiters live in the session queue).
    pub(crate) fn staged_waiting(&self) -> usize {
        self.backlog.len() + self.pending.iter().map(|p| p.members.len()).sum::<usize>()
    }

    /// Handle of one pack by id, without materializing the whole set.
    pub(crate) fn handle(&self, id: PackId) -> Option<PackHandle> {
        if let Some(r) = self.reports.iter().find(|r| r.pack == id) {
            return Some(PackHandle {
                id: r.pack,
                phase: PackPhase::Drained,
                jobs: r.jobs.clone(),
                remaining: 0,
            });
        }
        if let Some(a) = self.active.as_ref().filter(|a| a.id == id) {
            return Some(PackHandle {
                id: a.id,
                phase: PackPhase::Active,
                jobs: a.members.clone(),
                remaining: a.remaining,
            });
        }
        self.pending.iter().find(|p| p.id == id).map(|p| PackHandle {
            id: p.id,
            phase: PackPhase::Pending,
            jobs: p.members.clone(),
            remaining: p.remaining,
        })
    }

    /// Captures the staging overlay for a session snapshot.
    pub(crate) fn snapshot(&self) -> PackSetSnapshot {
        PackSetSnapshot {
            partitioner: self.partitioner,
            backlog: self.backlog.iter().copied().collect(),
            pending: self.pending.iter().map(PackSnapshot::of).collect(),
            active: self.active.as_ref().map(PackSnapshot::of),
            next_id: self.next_id,
            reports: self.reports.clone(),
        }
    }

    /// Rebuilds the staging overlay from a snapshot (structural validation
    /// — member-id ranges — happens at the session level, which knows `n`).
    pub(crate) fn from_snapshot(snap: PackSetSnapshot) -> Self {
        Self {
            partitioner: snap.partitioner,
            backlog: snap.backlog.into(),
            pending: snap.pending.into_iter().map(PackSnapshot::into_staged).collect(),
            active: snap.active.map(PackSnapshot::into_staged),
            next_id: snap.next_id,
            reports: snap.reports,
        }
    }

    /// Handles over every pack staged so far, drained packs first.
    pub(crate) fn handles(&self) -> Vec<PackHandle> {
        let mut v: Vec<PackHandle> = self
            .reports
            .iter()
            .map(|r| PackHandle {
                id: r.pack,
                phase: PackPhase::Drained,
                jobs: r.jobs.clone(),
                remaining: 0,
            })
            .collect();
        if let Some(a) = &self.active {
            v.push(PackHandle {
                id: a.id,
                phase: PackPhase::Active,
                jobs: a.members.clone(),
                remaining: a.remaining,
            });
        }
        v.extend(self.pending.iter().map(|p| PackHandle {
            id: p.id,
            phase: PackPhase::Pending,
            jobs: p.members.clone(),
            remaining: p.remaining,
        }));
        v
    }
}
