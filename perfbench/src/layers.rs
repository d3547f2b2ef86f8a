//! The traced run: the per-layer table of all three workload groups.
//!
//! Each group opens a span around every call it makes into a layer's
//! public function, on the same seed-derived inputs as the untraced
//! workloads, and reduces the spans to per-layer metrics. Work whose
//! counts are reported (engine runs, online sessions, the direct pool's
//! connections) has a fixed size, so the counts repeat exactly for a
//! seed; each group also repeats that work once and asserts the counts
//! agree. Timed sections that only feed medians run for a share of
//! `--seconds` and interleave the paths they compare, so drift on the
//! machine hits both sides alike.

use std::sync::Arc;
use std::time::{Duration, Instant};

use redistrib_core::{run as run_engine, EngineConfig, Heuristic};
use redistrib_experiments::online::campaign_strategies;
use redistrib_experiments::runner::{run_point, run_seeds};
use redistrib_experiments::{generate, run_online_point};
use redistrib_model::{PaperModel, Platform, TimeCalc};
use redistrib_online::{generate_jobs, OnlineConfig, PoissonArrivals, Scheduler};
use redistrib_service::http::read_request;
use redistrib_service::{
    handle, snapshot_to_json, Client, ConnectionPool, HttpConfig, Json, PoolConfig,
    ServiceState, SessionSpec, SessionStore, SnapshotArchive, StoreConfig,
};
use redistrib_sim::units;

use crate::campaign::{self, BASELINE, CALM_MTBF, STORM_MTBF, VARIANTS};
use crate::fleet::{self, request};
use crate::stats::Samples;
use crate::trace::{render, Tracer};
use crate::{lifecycle, reads, work_dir, Report};

pub fn run(seed: u64, seconds: f64, report: &mut Report) {
    let groups = [
        ("paper_campaign", campaign_layers(seed, report)),
        ("session_lifecycle", lifecycle_layers(seed, seconds * 0.5, report)),
        ("proxy_reads", read_layers(seed, seconds * 0.4, report)),
    ];
    let out = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    for (name, tracer) in &groups {
        eprint!("{}", render(name, &tracer.table()));
        let path = out.join(format!("spans-{name}.tsv"));
        if let Err(e) = tracer.write(&path) {
            report.check(false, || format!("writing {}: {e}", path.display()));
        }
    }
}

// ---------------------------------------------------------------------
// paper_campaign: model, core, experiments, online.
// ---------------------------------------------------------------------

/// Runs per traced figure point.
const TRACE_RUNS: usize = 8;
/// Runs of the traced online point.
const ONLINE_RUNS: usize = 8;

/// The engine runs of one figure-point run, with span names per MTBF.
const ENGINES: [(Heuristic, &str, &str); 3] = [
    (Heuristic::NoRedistribution, "core.engine.calm.norc", "core.engine.storm.norc"),
    (Heuristic::IteratedGreedyEndLocal, "core.engine.calm.igel", "core.engine.storm.igel"),
    (
        Heuristic::ShortestTasksFirstEndLocal,
        "core.engine.calm.stfel",
        "core.engine.storm.stfel",
    ),
];

/// Handled faults and redistributions per engine variant.
type Counts = [(u64, u64); 3];

/// `run_point`'s per-run work (workload, table, one engine run per
/// variant), executed here on one thread with a span around each layer.
fn replica_point(t: &mut Tracer, base: u64, mtbf: f64, report: &mut Report) -> Counts {
    let cfg = campaign::point(base, mtbf, TRACE_RUNS);
    let platform = Platform::with_mtbf(cfg.p, units::years(mtbf)).downtime(cfg.downtime);
    let calm = mtbf == CALM_MTBF;
    let mut counts = [(0, 0); 3];
    for r in 0..TRACE_RUNS {
        let req = r as u64;
        t.span("experiments.run", req, |t| {
            let (workload_seed, fault_seed) = run_seeds(base, r);
            let workload =
                t.span("experiments.workload", req, |_| generate(&cfg.workload, workload_seed));
            let calc = t.span("model.table_build", req, |_| TimeCalc::new(workload, platform));
            let engine = EngineConfig::with_faults(fault_seed, platform.proc_mtbf);
            for (i, (h, calm_name, storm_name)) in ENGINES.iter().enumerate() {
                let name = if calm { calm_name } else { storm_name };
                let out = t.span(name, req, |_| {
                    run_engine(&calc, &*h.end_policy(), &*h.fault_policy(), &engine)
                });
                match out {
                    Ok(o) => {
                        counts[i].0 += o.handled_faults;
                        counts[i].1 += o.redistributions;
                    }
                    Err(e) => report.check(false, || format!("{name} run {r}: {e}")),
                }
            }
        });
    }
    counts
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

fn campaign_layers(seed: u64, report: &mut Report) -> Tracer {
    let mut t = Tracer::new(Instant::now());
    let seeds = campaign::ring(seed);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()).min(TRACE_RUNS);
    let mut totals = [(0u64, 0u64); 3];
    let mut first_counts = None;
    let (mut work_s, mut wall_s) = (0.0, 0.0);
    for &base in &seeds {
        for mtbf in [CALM_MTBF, STORM_MTBF] {
            let before = t.durations("experiments.run").sum_s();
            let counts = replica_point(&mut t, base, mtbf, report);
            work_s += t.durations("experiments.run").sum_s() - before;
            first_counts.get_or_insert(counts);
            for (total, c) in totals.iter_mut().zip(counts) {
                total.0 += c.0;
                total.1 += c.1;
            }
            // The same point through `run_point`: its wall time against
            // the per-run work gives the runner's efficiency, and its
            // per-variant means must equal the replica's exact counts.
            let cfg = campaign::point(base, mtbf, TRACE_RUNS);
            let start = Instant::now();
            let stats =
                t.span("experiments.run_point", 0, |_| run_point(&cfg, BASELINE, &VARIANTS));
            wall_s += start.elapsed().as_secs_f64();
            let agree = stats.is_ok_and(|stats| {
                stats.iter().zip(counts).all(|(s, (faults, rc))| {
                    close(s.mean_faults, faults as f64 / TRACE_RUNS as f64)
                        && close(s.mean_redistributions, rc as f64 / TRACE_RUNS as f64)
                })
            });
            report
                .check(agree, || format!("run_point disagrees with its replica (MTBF {mtbf})"));
        }
    }
    // Repeat the first point: the exact counts must come out identical.
    let again = replica_point(&mut Tracer::off(), seeds[0], CALM_MTBF, report);
    report.check(first_counts == Some(again), || "engine counts changed on repeat".into());

    // Tracing overhead: the same point replica untraced and traced,
    // alternated with either one first; the ratio of their medians.
    let (mut plain, mut traced) = (Samples::default(), Samples::default());
    for i in 0..16 {
        let on = i % 4 == 1 || i % 4 == 2;
        let start = Instant::now();
        let mut tracer = if on { Tracer::new(start) } else { Tracer::off() };
        replica_point(&mut tracer, seeds[1], CALM_MTBF, report);
        if on { &mut traced } else { &mut plain }.push(start.elapsed());
    }

    // The online point: every strategy's session, stepped to the end.
    let strategies = campaign_strategies();
    let ocfg = campaign::online_point(seeds[0], ONLINE_RUNS);
    let platform = Platform::with_mtbf(ocfg.p, units::years(ocfg.mtbf_years));
    let online_pass = |t: &mut Tracer, report: &mut Report| {
        let mut events = 0u64;
        let mut redistributions = vec![0u64; strategies.len()];
        for r in 0..ONLINE_RUNS {
            let (job_seed, fault_seed) = run_seeds(ocfg.base_seed, r);
            let mut arrivals = PoissonArrivals::new(job_seed, ocfg.mean_interarrival);
            let jobs = generate_jobs(&mut arrivals, ocfg.jobs, &ocfg.sizes, job_seed);
            for (i, strategy) in strategies.iter().enumerate() {
                let out = t.span("online.session_run", r as u64, |_| {
                    let mut session = Scheduler::on(platform)
                        .speedup(Arc::new(PaperModel::new(ocfg.seq_fraction)))
                        .strategy(*strategy)
                        .config(OnlineConfig::with_faults(fault_seed, platform.proc_mtbf))
                        .session(&jobs)?;
                    while !session.is_done() {
                        session.step()?;
                    }
                    Ok::<_, redistrib_core::ScheduleError>((
                        session.events_processed(),
                        session.outcome().redistributions,
                    ))
                });
                match out {
                    Ok((e, rc)) => {
                        events += e;
                        redistributions[i] += rc;
                    }
                    Err(e) => report.check(false, || format!("online session run {r}: {e}")),
                }
            }
        }
        (events, redistributions)
    };
    let (events, redistributions) = online_pass(&mut t, report);
    let repeat = online_pass(&mut Tracer::off(), report);
    report.check(repeat == (events, redistributions.clone()), || {
        "online event counts changed on repeat".into()
    });
    let agree = run_online_point(&ocfg, &strategies).is_ok_and(|stats| {
        stats
            .iter()
            .zip(&redistributions)
            .all(|(s, &rc)| close(s.mean_redistributions, rc as f64 / ONLINE_RUNS as f64))
    });
    report.check(agree, || "run_online_point disagrees with its replica".into());

    report.metric("model.table_build_ms", t.p50_ms("model.table_build"), "ms");
    for (_, calm_name, storm_name) in ENGINES {
        for name in [calm_name, storm_name] {
            let metric = name.replacen("core.engine.", "core.engine_ms.", 1);
            report.metric(metric, t.p50_ms(name), "ms");
        }
    }
    report.metric(
        "core.faults_handled",
        totals.iter().map(|c| c.0).sum::<u64>() as f64,
        "count",
    );
    report.metric(
        "core.redistributions",
        totals.iter().map(|c| c.1).sum::<u64>() as f64,
        "count",
    );
    report.metric("experiments.workload_ms", t.p50_ms("experiments.workload"), "ms");
    report.metric("experiments.runner_efficiency", work_s / (workers as f64 * wall_s), "ratio");
    report.metric("online.session_run_ms", t.p50_ms("online.session_run"), "ms");
    report.metric("online.events", events as f64, "count");
    report.metric(
        "trace.overhead_ratio.campaign",
        traced.quantile_ms(0.5) / plain.quantile_ms(0.5),
        "ratio",
    );
    t
}

// ---------------------------------------------------------------------
// session_lifecycle: spec, store, online stepping, archive, server,
// router, supervisor.
// ---------------------------------------------------------------------

/// The router-side span of each lifecycle request.
fn router_span(request: &str) -> &'static str {
    match request {
        "create" => "service.router.create",
        "step" => "service.router.step",
        "checkpoint" => "service.router.checkpoint",
        "snapshot" => "service.router.snapshot",
        _ => "service.router.delete",
    }
}

fn lifecycle_layers(seed: u64, budget: f64, report: &mut Report) -> Tracer {
    let mut t = Tracer::new(Instant::now());
    let prep = lifecycle::prepare(seed, "trace-lifecycle", report);
    let host_dir = work_dir("trace-host");
    let (store, _) = SessionStore::with_config(StoreConfig {
        archive: Some(SnapshotArchive::open(&host_dir).expect("archive opens")),
        ..StoreConfig::default()
    })
    .expect("in-process store builds");
    let state = ServiceState::new(Arc::new(store));
    let store = state.store();
    let archive = store.archive().expect("store has an archive");
    let section = |share: f64| Instant::now() + Duration::from_secs_f64(budget * share);

    // (a) The library path of a lifecycle, layer by layer.
    let deadline = section(0.2);
    let mut k = 0u64;
    while Instant::now() < deadline {
        let slot = k as usize % lifecycle::SPEC_RING;
        let body = &prep.specs[slot];
        let ok = t.span("service.lifecycle.library", k, |t| {
            let spec = t.span("service.spec.parse", k, |_| {
                SessionSpec::from_json(&Json::parse(body).ok()?).ok()
            })?;
            let id = t.span("service.store.create", k, |_| store.create(&spec)).ok()?;
            let entry = store.get(id).ok()?;
            let mut guard = entry.lock().ok()?;
            while !guard.session.is_done() {
                t.span("online.step", k, |_| guard.session.step()).ok()?;
            }
            let payload = t.span("service.spec.snapshot_encode", k, |_| {
                snapshot_to_json(&guard.session.snapshot(), &guard.speedup).encode()
            });
            drop(guard);
            t.span("service.archive.store", k, |_| archive.store(id, payload.as_bytes()))
                .ok()?;
            t.span("service.store.remove", k, |_| store.remove(id)).ok()?;
            Some(payload == prep.expected[slot])
        });
        report.check(ok == Some(true), || format!("library lifecycle {k} failed or diverged"));
        k += 1;
    }

    // (b) The same lifecycle through the in-process route table.
    let deadline = section(0.2);
    while Instant::now() < deadline {
        let slot = k as usize % lifecycle::SPEC_RING;
        let ok = (|| {
            let created = t.span("service.server.handle.create", k, |_| {
                handle(&state, &request("POST", "/v1/sessions", None, &prep.specs[slot]))
            });
            let body = String::from_utf8(created.body).ok()?;
            let id = fleet::created_id(&body).filter(|_| created.status == 201)?;
            let base = format!("/v1/sessions/{id}");
            let step = request("POST", &format!("{base}/step"), None, "{\"count\":16}");
            loop {
                let stepped =
                    t.span("service.server.handle.step", k, |_| handle(&state, &step));
                if stepped.status != 200 {
                    return None;
                }
                if String::from_utf8_lossy(&stepped.body).contains("\"done\":true") {
                    break;
                }
            }
            let ckpt = request("POST", &format!("{base}/checkpoint"), None, "");
            let ckpt = t.span("service.server.handle.checkpoint", k, |_| handle(&state, &ckpt));
            let snap = request("POST", &format!("{base}/snapshot"), None, "");
            let snap = t.span("service.server.handle.snapshot", k, |_| handle(&state, &snap));
            let del = request("DELETE", &base, None, "");
            let del = t.span("service.server.handle.delete", k, |_| handle(&state, &del));
            Some(
                ckpt.status == 200
                    && del.status == 200
                    && snap.status == 200
                    && snap.body == prep.expected[slot].as_bytes(),
            )
        })();
        report.check(ok == Some(true), || format!("handle() lifecycle {k} failed or diverged"));
        k += 1;
    }

    // (c) Through the router against straight to a backend,
    // interleaved, with the order rotated every lifecycle.
    let mut via_router = Client::new(prep.fleet.addr);
    let mut direct = Client::new(prep.fleet.backend_addr("b1"));
    let mut plain = Samples::default();
    let deadline = section(0.4);
    while Instant::now() < deadline {
        let slot = k as usize % lifecycle::SPEC_RING;
        let body = &prep.specs[slot];
        // Four-lifecycle pattern: traced router first, then untraced
        // router second, untraced first, traced second. Each of the two
        // router variants runs in both slots and follows a router
        // lifecycle once, so they differ by the spans alone.
        let traced = matches!(k % 4, 0 | 3);
        let router_first = matches!(k % 4, 0 | 2);
        let mut outs = Vec::with_capacity(2);
        for router_turn in [router_first, !router_first] {
            outs.push(match (router_turn, traced) {
                (true, true) => (
                    "router",
                    t.span("service.router.lifecycle", k, |t| {
                        fleet::lifecycle(&mut via_router, body, |name, f| {
                            t.span(router_span(name), k, |_| f())
                        })
                    }),
                ),
                (true, false) => {
                    let start = Instant::now();
                    let out = fleet::lifecycle(&mut via_router, body, fleet::untraced);
                    plain.push(start.elapsed());
                    ("plain", out)
                }
                (false, _) => (
                    "direct",
                    t.span("service.direct.lifecycle", k, |_| {
                        fleet::lifecycle(&mut direct, body, fleet::untraced)
                    }),
                ),
            });
        }
        for (path, out) in outs {
            report.check(out.as_ref() == Ok(&prep.expected[slot]), || {
                format!("{path} lifecycle {k}: {:?}", out.err())
            });
        }
        k += 1;
    }

    // (d) Restart cycles. Traced cycles also time the recovery's scan
    // and store rebuild on their own while b0 is down; they alternate
    // with plain cycles, which give the end-to-end recovery time.
    let b0_dir = prep.fleet.archive_dir("b0");
    let supervisor = &prep.fleet.supervisor;
    supervisor.tick();
    let deadline = section(0.2);
    let mut cycle = 0u64;
    let mut recovery = Samples::default();
    while cycle < 4 || Instant::now() < deadline {
        if cycle % 2 == 1 {
            let start = Instant::now();
            let bad = lifecycle::restart_cycle(&prep, &mut via_router, |_, _, step| step());
            recovery.push(start.elapsed());
            report.check(bad == 0, || format!("plain restart cycle {cycle}: {bad} mismatches"));
            supervisor.tick();
            cycle += 1;
            continue;
        }
        let mut restored = Vec::new();
        let bad = t.span("service.restart_cycle", cycle, |t| {
            lifecycle::restart_cycle(&prep, &mut via_router, |name, id, step| {
                t.span(name, id, |_| step());
                if name == lifecycle::KILL {
                    restored.push(t.span("service.archive.scan", cycle, |_| {
                        SnapshotArchive::open(&b0_dir)
                            .and_then(|a| a.scan())
                            .map(|s| s.restored.len())
                    }));
                    restored.push(t.span("service.store.recover", cycle, |_| {
                        SessionStore::with_config(StoreConfig {
                            archive: Some(SnapshotArchive::open(&b0_dir)?),
                            ..StoreConfig::default()
                        })
                        .map(|(store, _)| store.len())
                    }));
                }
            })
        });
        let n = prep.resident_b0.len();
        let bad = bad + restored.iter().filter(|r| r.as_ref().ok() != Some(&n)).count();
        report.check(bad == 0 && restored.len() == 2, || {
            format!("traced restart cycle {cycle}: {bad} mismatches")
        });
        supervisor.tick();
        cycle += 1;
    }
    let restarts = supervisor.backend("b0").map_or(0, |b| b.restarts());
    report.check(u64::from(restarts) == cycle, || {
        format!("{restarts} restarts for {cycle} kills")
    });

    for (name, span) in [
        ("service.spec.parse_us", "service.spec.parse"),
        ("service.store.create_us", "service.store.create"),
        ("online.step_us", "online.step"),
        ("service.spec.snapshot_encode_us", "service.spec.snapshot_encode"),
        ("service.store.remove_us", "service.store.remove"),
        ("service.server.handle_us.create", "service.server.handle.create"),
        ("service.server.handle_us.step", "service.server.handle.step"),
        ("service.server.handle_us.checkpoint", "service.server.handle.checkpoint"),
        ("service.server.handle_us.snapshot", "service.server.handle.snapshot"),
        ("service.server.handle_us.delete", "service.server.handle.delete"),
    ] {
        report.metric(name, t.p50_us(span), "us");
    }
    report.metric("service.archive.store_ms", t.p50_ms("service.archive.store"), "ms");
    let routed = t.durations("service.router.lifecycle");
    report.metric(
        "service.router.lifecycle_hop_us",
        routed.quantile_us(0.5) - t.p50_us("service.direct.lifecycle"),
        "us",
    );
    report.metric("service.archive.scan_ms", t.p50_ms("service.archive.scan"), "ms");
    report.metric("service.store.recover_ms", t.p50_ms("service.store.recover"), "ms");
    report.metric("service.supervisor.tick_ms", t.p50_ms("service.supervisor.tick"), "ms");
    report.metric("e2e.lifecycle_p50_ms", routed.quantile_ms(0.5), "ms");
    report.metric("e2e.lifecycle_p99_ms", routed.quantile_ms(0.99), "ms");
    report.metric("e2e.recovery_p50_ms", recovery.quantile_ms(0.5), "ms");
    report.metric(
        "trace.overhead_ratio.lifecycle",
        routed.quantile_ms(0.5) / plain.quantile_ms(0.5),
        "ratio",
    );
    prep.fleet.shutdown();
    let _ = std::fs::remove_dir_all(&host_dir);
    t
}

// ---------------------------------------------------------------------
// proxy_reads: server, http, client, pool, router.
// ---------------------------------------------------------------------

/// In-process handler calls and request parses timed per run.
const LOCAL_READS: usize = 20_000;
/// Reads per path per interleaved round.
const ROUND: usize = 200;
/// Rounds per connection pool in the counted part: the second pool
/// replays the first pool's reads, and its counts must match.
const POOL_ROUNDS: usize = 10;

fn read_layers(seed: u64, budget: f64, report: &mut Report) -> Tracer {
    let mut t = Tracer::new(Instant::now());
    let prep = reads::prepare(seed, "trace-reads", report);
    let order = &prep.order;

    // (a) The handler alone, and (b) parsing the request it serves.
    let gets: Vec<_> = prep.paths.iter().map(|p| request("GET", p, None, "")).collect();
    let cfg = HttpConfig::default();
    let heads: Vec<Vec<u8>> = prep
        .paths
        .iter()
        .map(|p| {
            format!(
                "GET {p} HTTP/1.1\r\nHost: {}\r\nContent-Length: 0\r\nConnection: keep-alive\r\n\r\n",
                prep.fleet.addr
            )
            .into_bytes()
        })
        .collect();
    for k in 0..LOCAL_READS {
        let slot = order[k % order.len()];
        let req = k as u64;
        let answer =
            t.span("service.server.handle.get", req, |_| handle(&prep.reference, &gets[slot]));
        let parsed = t.span("service.http.parse", req, |_| {
            read_request(&mut &heads[slot][..], &cfg, None)
        });
        let ok = answer.status == 200
            && answer.body == prep.expected[slot].as_bytes()
            && parsed.is_ok_and(|r| r.path == prep.paths[slot]);
        report.check(ok, || format!("in-process read {k} diverged"));
    }

    // (c) The same read three ways, interleaved request by request:
    // straight to the owning backend with `Client`, with a
    // `ConnectionPool`, and through the router.
    let owners: Vec<_> = prep
        .paths
        .iter()
        .map(|p| {
            let id: u64 =
                p.rsplit('/').next().and_then(|s| s.parse().ok()).expect("path has an id");
            prep.fleet.supervisor.route(id).expect("resident session has an owner").1
        })
        .collect();
    let mut direct: Vec<(std::net::SocketAddr, Client)> = Vec::new();
    let mut via_router = Client::new(prep.fleet.addr);
    let mut pool = ConnectionPool::new(PoolConfig::default());
    let mut first_pool = None;
    let mut plain = Samples::default();
    let deadline = Instant::now() + Duration::from_secs_f64(budget);
    let mut round = 0usize;
    // `<=`: the round that compares the second pool's counts always runs.
    while round <= 2 * POOL_ROUNDS || Instant::now() < deadline {
        if round == POOL_ROUNDS {
            let counts = (pool.connections_opened(), pool.requests_reused());
            first_pool = Some(counts);
            pool = ConnectionPool::new(PoolConfig::default());
        }
        if round == 2 * POOL_ROUNDS {
            let counts = (pool.connections_opened(), pool.requests_reused());
            report.check(first_pool == Some(counts), || {
                format!("pool counts changed on replay: {first_pool:?} then {counts:?}")
            });
        }
        let offset = (round % POOL_ROUNDS) * ROUND;
        for j in 0..ROUND {
            let slot = order[(offset + j) % order.len()];
            let (path, want, addr) = (&prep.paths[slot], &prep.expected[slot], owners[slot]);
            let req = (round * ROUND + j) as u64;
            let client = match direct.iter().position(|(a, _)| *a == addr) {
                Some(i) => &mut direct[i].1,
                None => {
                    direct.push((addr, Client::new(addr)));
                    &mut direct.last_mut().expect("just pushed").1
                }
            };
            // Rotate which path goes first, so that none always follows
            // the same neighbour. The router read is traced in even and
            // untraced in odd rounds, in the same slot, so the two differ
            // by the span alone.
            let mut answers = Vec::with_capacity(3);
            for step in 0..3 {
                answers.push(match ((step + j) % 3, round % 2) {
                    (0, _) => t.span("service.client.direct", req, |_| client.get_once(path)),
                    (1, _) => t.span("service.pool.request", req, |_| {
                        pool.request(addr, "GET", path, None, Duration::from_secs(30))
                            .map(|ans| (ans.status, ans.body))
                    }),
                    (_, 0) => t.span("service.router.read", req, |_| via_router.get_once(path)),
                    _ => {
                        let start = Instant::now();
                        let got = via_router.get_once(path);
                        plain.push(start.elapsed());
                        got
                    }
                });
            }
            for got in answers {
                let status = got.as_ref().map_or(0, |(s, _)| *s);
                fleet::note_status(status);
                report.check(matches!(got, Ok((200, ref body)) if body == want), || {
                    format!("read of {path}: status {status} or wrong body")
                });
            }
        }
        round += 1;
    }
    let (opened, reused) = first_pool.expect("counted rounds ran");

    let router = t.durations("service.router.read");
    let client_us = t.p50_us("service.client.direct");
    let pool_us = t.p50_us("service.pool.request");
    report.metric("service.server.handle_us.get", t.p50_us("service.server.handle.get"), "us");
    report.metric("service.http.parse_us", t.p50_us("service.http.parse"), "us");
    report.metric("service.client.direct_us", client_us, "us");
    report.metric("service.pool.request_us", pool_us, "us");
    report.metric("service.router.read_us", router.quantile_us(0.5), "us");
    report.metric("service.router.hop_us", router.quantile_us(0.5) - client_us, "us");
    report.metric("service.pool.gap_us", pool_us - client_us, "us");
    report.metric(
        "service.pool.reuse_ratio",
        reused as f64 / (reused + opened) as f64,
        "ratio",
    );
    report.metric("service.pool.connections_opened", opened as f64, "count");
    report.metric("service.pool.requests_reused", reused as f64, "count");
    report.metric("e2e.read_p99_ms", router.quantile_ms(0.99), "ms");
    report.metric(
        "trace.overhead_ratio.reads",
        router.quantile_ms(0.5) / plain.quantile_ms(0.5),
        "ratio",
    );
    prep.fleet.shutdown();
    t
}
