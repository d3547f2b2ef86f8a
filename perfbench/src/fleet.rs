//! The service fleet under test and the inputs the service workloads
//! send it.
//!
//! [`Fleet`] is the router of `serve_router` assembled from its public
//! parts — `Supervisor::boot_pooled`, `HttpServer::bind_with` and
//! `handle_router` — minus the probe thread: the benchmark drives
//! `Supervisor::tick` itself, so no timer phase ever lands in a
//! measurement and shutdown never waits on a sleeping prober.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use redistrib_service::{
    handle_router, snapshot_to_json, BackendSpec, Client, HttpConfig, HttpServer,
    InProcessLauncher, Json, PoolConfig, Request, RouterState, SessionSpec, Supervisor,
    SupervisorConfig,
};
use redistrib_sim::rng::Xoshiro256;

/// Worker threads per in-process backend: pooled router connections
/// (one per concurrent client) plus the traced run's direct connections
/// never queue behind each other.
const BACKEND_WORKERS: usize = 6;

pub struct Fleet {
    pub supervisor: Arc<Supervisor>,
    server: HttpServer,
    pub addr: SocketAddr,
    root: PathBuf,
}

impl Fleet {
    /// Boots two in-process backends (`b0`, `b1`) with disk archives
    /// under `root` and binds the router on an ephemeral port.
    pub fn boot(root: PathBuf) -> std::io::Result<Self> {
        let cfg = SupervisorConfig {
            failure_threshold: 1,
            restart_attempts: 1,
            restart_budget: Duration::from_secs(10),
            probe_timeout: Duration::from_secs(2),
            ..SupervisorConfig::default()
        };
        let specs = ["b0", "b1"]
            .map(|name| BackendSpec { name: name.into(), archive_dir: root.join(name) })
            .to_vec();
        let supervisor = Arc::new(Supervisor::boot_pooled(
            Box::new(InProcessLauncher { workers: BACKEND_WORKERS }),
            cfg,
            PoolConfig::default(),
            specs,
        )?);
        let state = RouterState::new(Arc::clone(&supervisor), Duration::from_secs(30));
        let routed = state.clone();
        let server = HttpServer::bind_with(
            "127.0.0.1:0",
            HttpConfig::default(),
            state.drain_flag(),
            move |req| handle_router(&routed, req),
        )?;
        let addr = server.addr();
        Ok(Self { supervisor, server, addr, root })
    }

    /// The current address of backend `name`.
    pub fn backend_addr(&self, name: &str) -> SocketAddr {
        self.supervisor
            .backend(name)
            .and_then(|b| b.addr())
            .expect("backend is up and has an address")
    }

    /// The archive directory of backend `name`.
    pub fn archive_dir(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// Stops the router, kills the backends and removes the archives.
    pub fn shutdown(mut self) {
        self.server.shutdown();
        self.supervisor.kill_all();
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// `503` answers seen by any benchmark client. The benchmark never
/// retries, so a shed request is also a failed one.
static SHEDS: AtomicU64 = AtomicU64::new(0);

/// Counts `status` if it is a shed.
pub fn note_status(status: u16) {
    if status == 503 {
        SHEDS.fetch_add(1, Ordering::Relaxed);
    }
}

/// `503` answers seen so far.
pub fn sheds() -> u64 {
    SHEDS.load(Ordering::Relaxed)
}

/// Jobs per lifecycle session.
const JOBS: usize = 24;
/// Processors per lifecycle session.
const PROCS: u32 = 96;

/// Session-creation bodies: `count` 24-job `IteratedGreedy-EndLocal`
/// specs on 96 processors with seeded faults.
pub fn specs(seed: u64, count: usize) -> Vec<String> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let mut release = 0.0f64;
            let jobs: Vec<String> = (0..JOBS)
                .map(|_| {
                    let size = rng.uniform(1.5e6, 2.5e6);
                    let job = format!("{{\"size\":{size:.1},\"release\":{release:.1}}}");
                    release += rng.uniform(0.0, 4_000.0);
                    job
                })
                .collect();
            format!(
                "{{\"platform\":{{\"procs\":{PROCS},\"mtbf\":{:.1}}},\
                 \"strategy\":\"IteratedGreedy-EndLocal\",\
                 \"faults\":{{\"seed\":{}}},\"jobs\":[{}]}}",
                crate::fleet::MTBF_SECONDS,
                rng.next_u64() >> 11,
                jobs.join(",")
            )
        })
        .collect()
}

/// Per-processor MTBF of the lifecycle sessions (seconds).
pub const MTBF_SECONDS: f64 = 2.5e8;

/// The snapshot document an in-process `Session` built from `body`
/// reaches once it has run to completion — the reference every
/// lifecycle's final snapshot must equal byte for byte.
pub fn final_snapshot(body: &str) -> String {
    let spec = SessionSpec::from_json(&Json::parse(body).expect("spec is JSON"))
        .expect("spec is valid");
    let mut session = spec.scheduler().session(&spec.jobs).expect("session builds");
    while !session.is_done() {
        session.step().expect("reference session steps");
    }
    snapshot_to_json(&session.snapshot(), &spec.speedup).encode()
}

/// The `id` field of a create answer.
pub fn created_id(body: &str) -> Option<u64> {
    Json::parse(body).ok()?.get("id").and_then(Json::as_u64)
}

/// An in-process request for `handle()`.
pub fn request(method: &str, path: &str, query: Option<(&str, String)>, body: &str) -> Request {
    Request {
        method: method.into(),
        path: path.into(),
        query: query.map(|(k, v)| vec![(k.to_string(), v)]).unwrap_or_default(),
        body: body.as_bytes().to_vec(),
        close: false,
    }
}

/// One session lifecycle over a keep-alive client: create, step by 16
/// until done, checkpoint, snapshot, delete. Returns the final snapshot
/// body, or why the lifecycle failed. Every request runs inside
/// `around`, called with the request's name (the traced run opens a
/// span there).
pub fn lifecycle(
    client: &mut Client,
    body: &str,
    mut around: impl FnMut(
        &'static str,
        &mut dyn FnMut() -> std::io::Result<(u16, String)>,
    ) -> std::io::Result<(u16, String)>,
) -> Result<String, String> {
    let expect = |what: &str, got: std::io::Result<(u16, String)>, status: u16| match got {
        Ok((s, b)) if s == status => Ok(b),
        Ok((s, b)) => {
            note_status(s);
            Err(format!("{what}: status {s}: {b}"))
        }
        Err(e) => Err(format!("{what}: {e}")),
    };
    let created =
        expect("create", around("create", &mut || client.post("/v1/sessions", body)), 201)?;
    let id = created_id(&created).ok_or("create answer has no id")?;
    let base = format!("/v1/sessions/{id}");
    let step_path = format!("{base}/step");
    loop {
        let stepped = expect(
            "step",
            around("step", &mut || client.post(&step_path, "{\"count\":16}")),
            200,
        )?;
        if stepped.contains("\"done\":true") {
            break;
        }
    }
    let ckpt_path = format!("{base}/checkpoint");
    expect("checkpoint", around("checkpoint", &mut || client.post(&ckpt_path, "")), 200)?;
    let snap_path = format!("{base}/snapshot");
    let snapshot =
        expect("snapshot", around("snapshot", &mut || client.post(&snap_path, "")), 200)?;
    expect("delete", around("delete", &mut || client.delete(&base)), 200)?;
    Ok(snapshot)
}

/// Passes each lifecycle request straight through (untraced runs).
pub fn untraced(
    _: &'static str,
    f: &mut dyn FnMut() -> std::io::Result<(u16, String)>,
) -> std::io::Result<(u16, String)> {
    f()
}
