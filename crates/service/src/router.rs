//! The fleet front-end: one HTTP process that owns a supervised fleet
//! of backend session hosts and proxies the service REST surface over
//! them transparently.
//!
//! ```text
//!                        ┌─────────────┐  rendezvous hash,
//!   clients ──────────▶  │   Router    │  shard map, breakers
//!   (same REST API)      │ + Supervisor│──────────┬─────────┐
//!                        └─────────────┘          │         │
//!                               probes ┌──────────▼──┐  ┌───▼─────────┐
//!                              /healthz│ backend b0  │  │ backend b1  │
//!                                      │ archive-dir │  │ archive-dir │
//!                                      └─────────────┘  └─────────────┘
//! ```
//!
//! Routing rules:
//!
//! * `POST /v1/sessions` and `POST /v1/sessions/restore` allocate a
//!   **globally unique id** from the supervisor, pick a backend by
//!   rendezvous hash over the placeable fleet, and pin the id onto it
//!   with `?id=N` — so a session's id, its shard-map entry, and its
//!   archive file name agree fleet-wide, which is what makes
//!   archive-based migration id-preserving.
//! * Id-bearing routes (`/v1/sessions/{id}/...`) follow the shard map.
//!   While the owning backend's breaker is open the request is shed with
//!   `503 Retry-After` — by the time the client retries, the backend has
//!   either been restarted in place or its sessions have been migrated.
//! * `GET /v1/sessions`, `POST /v1/admin/checkpoint`, and
//!   `POST /v1/admin/compact` fan out to every active backend
//!   concurrently ([`Supervisor::fan_out`]) and fold the answers with one
//!   merge: integer counts summed, arrays concatenated in fleet order
//!   (sessions sorted by id), and the backends that did not answer
//!   listed under `unreachable`.
//! * `POST /v1/admin/retire/{backend}` gracefully removes one backend:
//!   drain, wait for exit, redistribute its final checkpoints.
//! * `POST /v1/admin/drain` drains the whole fleet and then the router.
//!
//! Every backend call — proxying, fan-out, the supervisor's probes —
//! goes through the supervisor's
//! [`ConnectionPool`](crate::pool::ConnectionPool), the crate's one
//! client-side transport. The module doc of [`crate::supervisor`]
//! describes the breaker and recovery machinery; [`crate::shard`] the
//! placement function.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::http::{HttpConfig, HttpServer, Request, Response};
use crate::json::{obj, Json};
use crate::pool::{HttpAnswer, PoolConfig};
use crate::spec::ApiError;
use crate::supervisor::{BackendLauncher, BackendSpec, Supervisor, SupervisorConfig};

/// Configuration of a router front-end.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// HTTP limits of the router's own listener.
    pub http: HttpConfig,
    /// Probe cadence, breaker thresholds, recovery budgets.
    pub supervisor: SupervisorConfig,
    /// Deadline on each proxied backend call (connect + write + read).
    pub proxy_timeout: Duration,
    /// Per-backend keep-alive connection pool limits, shared by
    /// proxying, probes, and fleet fan-out.
    pub pool: PoolConfig,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            http: HttpConfig::default(),
            supervisor: SupervisorConfig::default(),
            proxy_timeout: Duration::from_secs(30),
            pool: PoolConfig::default(),
        }
    }
}

/// Shared context of every router request handler.
#[derive(Debug, Clone)]
pub struct RouterState {
    supervisor: Arc<Supervisor>,
    draining: Arc<AtomicBool>,
    started: Instant,
    proxy_timeout: Duration,
}

impl RouterState {
    /// Wraps a booted supervisor for request handling.
    #[must_use]
    pub fn new(supervisor: Arc<Supervisor>, proxy_timeout: Duration) -> Self {
        Self {
            supervisor,
            draining: Arc::new(AtomicBool::new(false)),
            started: Instant::now(),
            proxy_timeout,
        }
    }

    /// The supervised fleet.
    #[must_use]
    pub fn supervisor(&self) -> &Arc<Supervisor> {
        &self.supervisor
    }

    /// The drain flag (shared with the router's HTTP acceptor).
    #[must_use]
    pub fn drain_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.draining)
    }

    /// Whether a fleet drain has been initiated.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }
}

/// Rebuilds the request's path + query string for proxying, optionally
/// appending one extra parameter (the pinned `id`).
fn path_with_query(req: &Request, extra: Option<(&str, String)>) -> String {
    let mut out = req.path.clone();
    let mut sep = '?';
    for (k, v) in &req.query {
        out.push(sep);
        out.push_str(k);
        out.push('=');
        out.push_str(v);
        sep = '&';
    }
    if let Some((k, v)) = extra {
        out.push(sep);
        out.push_str(k);
        out.push('=');
        out.push_str(&v);
    }
    out
}

/// Converts a parsed backend answer back into a router response,
/// preserving status, content type, and `Retry-After`.
fn answer_to_response(ans: &HttpAnswer) -> Response {
    let ct = ans.content_type.as_deref().unwrap_or("application/json");
    let content_type: &'static str = if ct.starts_with("text/csv") {
        "text/csv; charset=utf-8"
    } else if ct.starts_with("text/plain") {
        "text/plain; charset=utf-8"
    } else {
        "application/json"
    };
    let mut resp = Response {
        status: ans.status,
        content_type,
        headers: Vec::new(),
        body: ans.body.clone().into_bytes(),
    };
    if let Some(secs) = ans.retry_after {
        resp = resp.with_header("Retry-After", secs.to_string());
    }
    resp
}

/// One proxied call to a backend. A socket-level failure is reported to
/// the supervisor (counts toward the breaker) and answered `503
/// Retry-After` — the client retries into a recovered fleet. A `500`
/// naming a poisoned session also counts toward the breaker: the
/// backend just quarantined a session after a handler panic, and a
/// panicking backend is one the supervisor should be watching.
fn proxy(
    state: &RouterState,
    backend: &str,
    addr: SocketAddr,
    method: &str,
    path_q: &str,
    body: Option<&str>,
) -> Response {
    match state.supervisor.pool().request(addr, method, path_q, body, state.proxy_timeout) {
        Ok(ans) => {
            if ans.status == 500 && ans.body.contains("poisoned") {
                state.supervisor.report_failure(backend);
            }
            answer_to_response(&ans)
        }
        // Pool at capacity: the backend is alive but every connection
        // is busy. Shed without counting toward the breaker — tripping
        // it would turn an overload blip into a spurious failover.
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => Response::from(
            ApiError::unavailable(format!("backend {backend} is saturated, retry shortly"), 1),
        ),
        Err(_) => {
            state.supervisor.report_failure(backend);
            Response::from(ApiError::unavailable(
                format!("backend {backend} unreachable, retry shortly"),
                1,
            ))
        }
    }
}

fn body_utf8(req: &Request) -> Result<&str, ApiError> {
    std::str::from_utf8(&req.body).map_err(|_| ApiError::bad_request("body is not valid UTF-8"))
}

/// Create / restore: allocate a global id, place it, pin it onto the
/// chosen backend, and record the assignment once the backend accepts.
fn handle_create_like(state: &RouterState, req: &Request) -> Response {
    let body = match body_utf8(req) {
        Ok(b) => b,
        Err(e) => return e.into(),
    };
    let id = state.supervisor.allocate_id();
    let (name, addr) = match state.supervisor.place_new(id) {
        Ok(placed) => placed,
        Err(e) => return e.into(),
    };
    let path = format!("{}?id={id}", req.path);
    let resp = proxy(state, &name, addr, "POST", &path, Some(body));
    if resp.status == 201 {
        state.supervisor.commit(id, &name);
    }
    resp
}

/// How a fleet-wide endpoint folds one field of its backends' answers.
#[derive(Debug, Clone, Copy)]
enum Fold {
    /// Integer counts, summed.
    Sum,
    /// Arrays, concatenated in fleet order.
    Concat,
    /// Arrays of objects, concatenated and then sorted by their `id`.
    ById,
}

/// A fleet-wide endpoint: fans the request out to every active backend
/// ([`Supervisor::fan_out`]), folds `fields` of each `200` answer into
/// one body (keys in the order given), and appends the names of the
/// backends that did not answer `200` as `unreachable`.
fn handle_fleet_wide(
    state: &RouterState,
    method: &str,
    path: &str,
    body: Option<&str>,
    fields: &[(&'static str, Fold)],
) -> Response {
    let mut merged: Vec<(&str, Json)> = fields
        .iter()
        .map(|&(key, fold)| match fold {
            Fold::Sum => (key, Json::Int(0)),
            Fold::Concat | Fold::ById => (key, Json::Arr(Vec::new())),
        })
        .collect();
    let mut unreachable: Vec<Json> = Vec::new();
    for (name, answered) in state.supervisor.fan_out(method, path, body, state.proxy_timeout) {
        let doc = match answered {
            Some(ans) if ans.status == 200 => Json::parse(&ans.body).ok(),
            _ => {
                unreachable.push(Json::Str(name));
                continue;
            }
        };
        let Some(doc) = doc else { continue };
        for (key, total) in &mut merged {
            match (total, doc.get(key)) {
                (Json::Int(sum), Some(value)) => {
                    *sum += value.as_u64().map_or(0, i128::from);
                }
                (Json::Arr(all), Some(value)) => {
                    all.extend(value.as_arr().unwrap_or_default().iter().cloned());
                }
                _ => {}
            }
        }
    }
    for (&(_, fold), (_, total)) in fields.iter().zip(&mut merged) {
        if let (Fold::ById, Json::Arr(items)) = (fold, total) {
            items.sort_by_key(|j| j.get("id").and_then(Json::as_u64).unwrap_or(0));
        }
    }
    merged.push(("unreachable", Json::Arr(unreachable)));
    Response::json(200, &obj(merged))
}

/// `POST /v1/admin/drain`: drain every backend (each checkpoints its
/// sessions synchronously), then flip the router's own drain flag.
fn handle_admin_drain(state: &RouterState) -> Response {
    let acks = state.supervisor.drain_all();
    state.draining.store(true, Ordering::SeqCst);
    Response::json(
        200,
        &obj(vec![
            ("draining", Json::Bool(true)),
            (
                "backends",
                Json::Arr(
                    acks.into_iter()
                        .map(|(name, drained)| {
                            obj(vec![
                                ("name", Json::Str(name)),
                                ("drained", Json::Bool(drained)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
    )
}

fn handle_retire(state: &RouterState, name: &str) -> Response {
    match state.supervisor.retire(name) {
        Ok(outcome) => Response::json(
            200,
            &obj(vec![
                ("backend", Json::Str(outcome.name)),
                ("drained", Json::Bool(outcome.drained)),
                ("report", outcome.report.to_json()),
            ]),
        ),
        Err(e) => e.into(),
    }
}

fn handle_healthz(state: &RouterState) -> Response {
    let uptime = u64::try_from(state.started.elapsed().as_millis()).unwrap_or(u64::MAX);
    Response::json(
        200,
        &obj(vec![
            ("ok", Json::Bool(true)),
            ("role", Json::Str("router".into())),
            ("sessions", Json::Int(state.supervisor.session_count() as i128)),
            ("draining", Json::Bool(state.is_draining())),
            ("uptime_ms", Json::Int(i128::from(uptime))),
            ("backends", state.supervisor.status_json()),
        ]),
    )
}

/// Proxies an id-bearing route to the session's owning backend.
fn handle_session_route(state: &RouterState, id: u64, req: &Request) -> Response {
    let (name, addr) = match state.supervisor.route(id) {
        Ok(routed) => routed,
        Err(e) => return e.into(),
    };
    let body = match body_utf8(req) {
        Ok(b) if !b.is_empty() => Some(b),
        Ok(_) => None,
        Err(e) => return e.into(),
    };
    let path = path_with_query(req, None);
    let resp = proxy(state, &name, addr, &req.method, &path, body);
    if req.method == "DELETE" && resp.status == 200 {
        state.supervisor.unassign(id);
    }
    resp
}

fn method_not_allowed() -> Response {
    Response::from(ApiError::new(405, "method not allowed"))
}

/// Dispatches one request against the router state — the pure routing
/// core, directly callable from tests.
pub fn handle_router(state: &RouterState, req: &Request) -> Response {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => handle_healthz(state),
        ("POST", ["v1", "sessions"]) | ("POST", ["v1", "sessions", "restore"]) => {
            handle_create_like(state, req)
        }
        ("GET", ["v1", "sessions"]) => handle_fleet_wide(
            state,
            "GET",
            "/v1/sessions",
            None,
            &[("sessions", Fold::ById), ("evicted", Fold::Concat)],
        ),
        ("POST", ["v1", "admin", "checkpoint"]) => handle_fleet_wide(
            state,
            "POST",
            "/v1/admin/checkpoint",
            Some("{}"),
            &[("checkpointed", Fold::Sum), ("failures", Fold::Concat)],
        ),
        ("POST", ["v1", "admin", "compact"]) => handle_fleet_wide(
            state,
            "POST",
            "/v1/admin/compact",
            Some("{}"),
            &[("removed", Fold::Sum), ("quarantined", Fold::Sum)],
        ),
        ("POST", ["v1", "admin", "drain"]) => handle_admin_drain(state),
        ("POST", ["v1", "admin", "retire", name]) => handle_retire(state, name),
        (_, ["v1", "admin", "checkpoint" | "compact" | "drain"])
        | (_, ["v1", "admin", "retire", _]) => method_not_allowed(),
        (_, ["v1", "sessions", id, ..]) => match id.parse::<u64>() {
            Ok(id) => handle_session_route(state, id, req),
            Err(_) => Response::from(ApiError::bad_request("session id must be an integer")),
        },
        _ => Response::from(ApiError::not_found(format!("no route for {}", req.path))),
    }
}

/// A running router: HTTP front-end + supervised backend fleet + the
/// probe thread driving [`Supervisor::tick`].
///
/// Ways down mirror [`crate::server::ServiceHost`]:
/// * [`Router::shutdown`] (also on drop) — kill switch: stop the
///   listener and SIGKILL the whole fleet. Archives keep the last
///   checkpoints; a rebooted fleet recovers them.
/// * [`Router::drain`] then [`Router::join`] — graceful: every backend
///   checkpoints and exits, then the router stops.
#[derive(Debug)]
pub struct Router {
    server: HttpServer,
    state: RouterState,
    probe: Option<JoinHandle<()>>,
    probe_stop: Arc<AtomicBool>,
}

impl Router {
    /// The router's bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// The supervised fleet (chaos hooks, status).
    #[must_use]
    pub fn supervisor(&self) -> &Arc<Supervisor> {
        self.state.supervisor()
    }

    /// Whether a fleet drain has been initiated.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.state.is_draining()
    }

    /// Initiates a graceful fleet drain, as if `POST /v1/admin/drain`
    /// had been received. Pair with [`Router::join`].
    pub fn drain(&self) {
        let _ = self.state.supervisor.drain_all();
        self.state.draining.store(true, Ordering::SeqCst);
    }

    fn stop_probe(&mut self) {
        self.probe_stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.probe.take() {
            let _ = t.join();
        }
    }

    /// Waits for a drain to complete: the router's in-flight requests
    /// finish and every backend exits (each flushed a final checkpoint
    /// on its way down).
    pub fn join(&mut self) {
        self.server.join();
        self.stop_probe();
        self.state.supervisor.reap_all();
    }

    /// Kill switch: stop the listener now and SIGKILL every backend —
    /// no drain, no final checkpoints (the crash contract, fleet-wide).
    pub fn shutdown(&mut self) {
        self.server.shutdown();
        self.stop_probe();
        self.state.supervisor.kill_all();
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Boots the fleet (launch backends, wait healthy, adopt recovered
/// sessions), binds the router on `addr` (port 0 for ephemeral), and
/// starts the probe thread.
///
/// # Errors
/// Propagates fleet boot and bind failures.
pub fn serve_router(
    addr: &str,
    cfg: RouterConfig,
    launcher: Box<dyn BackendLauncher>,
    specs: Vec<BackendSpec>,
) -> io::Result<Router> {
    let supervisor =
        Arc::new(Supervisor::boot_pooled(launcher, cfg.supervisor, cfg.pool, specs)?);
    let state = RouterState::new(Arc::clone(&supervisor), cfg.proxy_timeout);

    let routed = state.clone();
    let server = HttpServer::bind_with(addr, cfg.http, state.drain_flag(), move |req| {
        handle_router(&routed, req)
    })?;

    let probe_stop = Arc::new(AtomicBool::new(false));
    let probe = {
        let stop = Arc::clone(&probe_stop);
        let sup = Arc::clone(&supervisor);
        let drain = state.drain_flag();
        let interval = supervisor.probe_interval();
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) && !drain.load(Ordering::SeqCst) {
                sup.tick();
                sup.pool().reap_idle();
                std::thread::sleep(interval);
            }
        })
    };

    Ok(Router { server, state, probe: Some(probe), probe_stop })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::InProcessLauncher;
    use std::path::PathBuf;

    const SPEC: &str = r#"{"platform":{"procs":8},"jobs":[{"size":4000},{"size":6000}]}"#;

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("redistrib-router-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn call(state: &RouterState, method: &str, path: &str, body: &str) -> (u16, String) {
        let req = Request {
            method: method.into(),
            path: path.into(),
            query: Vec::new(),
            body: body.as_bytes().to_vec(),
            close: false,
        };
        let resp = handle_router(state, &req);
        (resp.status, String::from_utf8(resp.body).unwrap())
    }

    /// Pins the merged bodies of the three fleet-wide endpoints, key
    /// order included, first with the whole fleet up and then with one
    /// backend dead but not yet noticed by a probe (so it is still
    /// "active" and lands in `unreachable`).
    #[test]
    fn fan_out_bodies_are_pinned_with_and_without_a_dead_backend() {
        let root = temp_root("fan-out");
        let specs = ["b0", "b1"]
            .map(|name| BackendSpec { name: name.into(), archive_dir: root.join(name) })
            .to_vec();
        let supervisor = Supervisor::boot_pooled(
            Box::new(InProcessLauncher { workers: 2 }),
            SupervisorConfig::default(),
            PoolConfig::default(),
            specs,
        )
        .unwrap();
        let state = RouterState::new(Arc::new(supervisor), Duration::from_secs(5));
        for _ in 0..4 {
            assert_eq!(call(&state, "POST", "/v1/sessions", SPEC).0, 201);
        }
        let fleet_wide = |state: &RouterState| {
            [
                call(state, "GET", "/v1/sessions", ""),
                call(state, "POST", "/v1/admin/checkpoint", ""),
                call(state, "POST", "/v1/admin/compact", ""),
            ]
        };
        // Rendezvous placement puts ids 2 and 3 on b0 and ids 1 and 4 on
        // b1, so the merged listing is sorted, not concatenated.
        let summary = |id: u64| {
            format!(
                r#"{{"id":{id},"jobs":2,"done":false,"now":0,"events":0,"queue_depth":0,"free_procs":8,"running":[]}}"#
            )
        };
        let listing = |ids: &[u64], unreachable: &str| {
            let sessions: Vec<String> = ids.iter().map(|&id| summary(id)).collect();
            format!(
                r#"{{"sessions":[{}],"evicted":[],"unreachable":[{unreachable}]}}"#,
                sessions.join(",")
            )
        };
        let up = fleet_wide(&state);
        assert_eq!(up[0], (200, listing(&[1, 2, 3, 4], "")));
        assert_eq!(
            up[1],
            (200, r#"{"checkpointed":4,"failures":[],"unreachable":[]}"#.to_string())
        );
        assert_eq!(
            up[2],
            (200, r#"{"removed":0,"quarantined":0,"unreachable":[]}"#.to_string())
        );

        // Killed without a tick: the supervisor still lists b1 as active,
        // so every fan-out tries it and reports it unreachable.
        assert!(state.supervisor().kill_backend("b1"));
        let one_down = fleet_wide(&state);
        assert_eq!(one_down[0], (200, listing(&[2, 3], r#""b1""#)));
        assert_eq!(
            one_down[1],
            (200, r#"{"checkpointed":2,"failures":[],"unreachable":["b1"]}"#.to_string())
        );
        assert_eq!(
            one_down[2],
            (200, r#"{"removed":0,"quarantined":0,"unreachable":["b1"]}"#.to_string())
        );
        state.supervisor().kill_all();
        let _ = std::fs::remove_dir_all(&root);
    }
}
