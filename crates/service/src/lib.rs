//! # redistrib-service
//!
//! Scheduler-as-a-service: a std-only HTTP host for many concurrent
//! online co-scheduling [`Session`](redistrib_online::Session)s.
//!
//! The paper's engine — and the online extension layered on it in
//! `redistrib-online` — is a library. This crate turns it into a long-
//! running service: a [`SessionStore`] registry keyed by session id with
//! mutex-per-entry locking, REST-ish endpoints to create sessions from a
//! JSON spec, submit jobs mid-run, step them (one event, a bounded
//! quantum, up to a deadline, or to completion), inspect queue depth /
//! running jobs / staged packs, page through the event trace, and
//! snapshot/restore sessions through a stable JSON document whose floats
//! travel as IEEE-754 bit patterns so a restored session replays the
//! *byte-identical* remaining run.
//!
//! Everything is `std`-only by design: a hand-rolled HTTP/1.1 layer over
//! [`std::net`] ([`http`]), a hand-rolled JSON codec ([`json`]), and a
//! small fixed thread pool. No async runtime, no serde — the service
//! stays auditable end to end and adds zero dependencies to the
//! workspace.
//!
//! Since PR 7 the host is also **durable and degrade-graceful**: an
//! optional disk-backed [`SnapshotArchive`] checkpoints every session's
//! snapshot document atomically (temp + fsync + rename, CRC-framed), the
//! store recovers all valid snapshots on startup and quarantines corrupt
//! files, idle sessions are evicted to disk and lazily restored, a
//! max-sessions admission cap sheds with `503 Retry-After`, the HTTP
//! layer speaks keep-alive with per-connection deadlines/caps and a
//! graceful drain path, and a deterministic fault-injection harness
//! ([`faultio`]) makes crash and chaos tests reproducible from a seed.
//!
//! * [`json`] — the JSON value type, parser and deterministic encoder;
//! * [`spec`] — creation specs and the snapshot document codec;
//! * [`store`] — the concurrent [`SessionStore`] registry (eviction,
//!   admission, recovery);
//! * [`archive`] — the disk-backed snapshot archive (CRC-framed files,
//!   atomic writes, quarantining scan);
//! * [`faultio`] — seeded fault injection for file and stream I/O;
//! * [`sync`] — lockdep-instrumented [`OrderedMutex`]/[`OrderedRwLock`]
//!   wrappers: static lock ranks, a debug/feature-gated acquisition-
//!   graph cycle detector, and typed poison recovery;
//! * [`http`] — the `std::net` HTTP server (keep-alive, deadlines,
//!   bounded backlog with load shedding, drain);
//! * [`server`] — the route table ([`handle`]) and [`serve`] /
//!   [`serve_with`] entry points;
//! * [`client`] — a blocking client: one-shot helpers plus a keep-alive
//!   [`Client`] with seeded retry backoff that honors `Retry-After`;
//! * [`shard`] — rendezvous hashing and the session → backend shard map;
//! * [`pool`] — the bounded per-backend keep-alive connection pool the
//!   router's proxying, the supervisor's probes, and fleet fan-out draw
//!   from;
//! * [`supervisor`] — fleet supervision: launchers, health probes,
//!   per-backend circuit breakers, restart-in-place and archive-based
//!   migration;
//! * [`router`] — the fleet front-end proxying the REST surface over a
//!   supervised multi-backend topology ([`serve_router`]).
//!
//! Since PR 8 the service also scales **out**: [`serve_router`] boots a
//! fleet of backend hosts (child processes, each on its own archive
//! directory), shards sessions across them by rendezvous hash, and
//! survives backend loss by restarting the dead process on its archive
//! — or, failing that, migrating its checkpointed sessions to the
//! survivors. No acknowledged checkpoint is ever lost.
//!
//! ## Quickstart
//!
//! ```
//! use redistrib_service::{client, serve};
//!
//! let (mut server, _store) = serve("127.0.0.1:0", 2).unwrap();
//! let addr = server.addr();
//! let (status, body) = client::post(
//!     addr,
//!     "/v1/sessions",
//!     r#"{"platform":{"procs":8},"jobs":[{"size":5000},{"size":8000}]}"#,
//! )
//! .unwrap();
//! assert_eq!(status, 201);
//! assert!(body.contains("\"id\":1"));
//! let (status, outcome) = client::post(addr, "/v1/sessions/1/run", "").unwrap();
//! assert_eq!(status, 200);
//! assert!(outcome.contains("\"makespan\""));
//! server.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod archive;
pub mod client;
pub mod faultio;
pub mod http;
pub mod json;
pub mod pool;
pub mod router;
pub mod server;
pub mod shard;
pub mod spec;
pub mod store;
pub mod supervisor;
pub mod sync;

pub use archive::{SnapshotArchive, ARCHIVE_VERSION};
pub use client::{Client, ClientConfig};
pub use faultio::{FaultPlan, FaultReader, FaultWriter, ReadFault, WriteFault};
pub use http::{HttpConfig, HttpServer, Request, Response};
pub use json::{Json, JsonError};
pub use pool::{ConnectionPool, HttpAnswer, PoolConfig};
pub use router::{handle_router, serve_router, Router, RouterConfig, RouterState};
pub use server::{handle, serve, serve_with, ServiceConfig, ServiceHost, ServiceState};
pub use shard::{rendezvous, ShardMap};
pub use spec::{
    snapshot_from_json, snapshot_to_json, ApiError, SessionSpec, SpeedupSpec, SNAPSHOT_VERSION,
};
pub use store::{
    step_quantum, RecoveryReport, SessionEntry, SessionStore, SlotState, StoreConfig,
};
pub use supervisor::{
    BackendHandle, BackendLauncher, BackendSpec, Breaker, InProcessLauncher, MigrationReport,
    Phase, ProcessLauncher, Supervisor, SupervisorConfig,
};
pub use sync::{OrderedMutex, OrderedRwLock, Poisoned};
