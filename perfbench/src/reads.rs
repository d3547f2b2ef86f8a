//! `proxy_reads`: `GET /v1/sessions/{id}` over a resident population
//! through the router. Phase A is one closed-loop client (latency),
//! phase B two (throughput). Each phase runs in one-second chunks, each
//! after a loopback reference that the chunk's figures are divided by.
//! Every body must equal what the in-process `handle()` answers for the
//! same session.

use std::sync::Arc;
use std::time::{Duration, Instant};

use redistrib_service::{handle, Client, ServiceState, SessionStore};
use redistrib_sim::rng::Xoshiro256;

use crate::fleet::{self, request, Fleet};
use crate::reference::Loopback;
use crate::stats::{median, timed_setups, Samples};
use crate::{mix, work_dir, Report};

/// Resident sessions the reads draw from.
pub const RESIDENT: usize = 256;
/// Length of the seeded read sequence (cycled).
const SEQUENCE: usize = 4096;
/// Untimed warm-up reads.
const WARM_READS: usize = 2000;

pub struct Prepared {
    pub fleet: Fleet,
    /// `GET` path of each resident session.
    pub paths: Vec<String>,
    /// The in-process `handle()` answer for each path.
    pub expected: Vec<String>,
    /// Indices into `paths`, in read order.
    pub order: Vec<usize>,
    /// The in-process reference host, holding the same sessions.
    pub reference: ServiceState,
}

/// Set-up: boot the fleet, create and step the resident sessions through
/// the router, mirror them into an in-process reference host (same ids,
/// same steps) and warm up.
pub fn prepare(seed: u64, tag: &str, report: &mut Report) -> Prepared {
    let specs = fleet::specs(mix(seed, 0x2EAD), 64);
    let fleet = Fleet::boot(work_dir(tag)).expect("fleet boots");
    let reference = ServiceState::new(Arc::new(SessionStore::new()));
    let mut rng = Xoshiro256::seed_from_u64(mix(seed, 0x0DE5));
    let mut client = Client::new(fleet.addr);
    let mut paths = Vec::with_capacity(RESIDENT);
    let mut expected = Vec::with_capacity(RESIDENT);
    for i in 0..RESIDENT {
        let spec = &specs[i % specs.len()];
        let step = format!("{{\"count\":{}}}", rng.uniform_u64(1, 48));
        let ok = (|| {
            let (status, body) = client.post("/v1/sessions", spec).ok()?;
            let id = fleet::created_id(&body).filter(|_| status == 201)?;
            let path = format!("/v1/sessions/{id}");
            let (status, _) = client.post(&format!("{path}/step"), &step).ok()?;
            let mirrored = handle(
                &reference,
                &request("POST", "/v1/sessions", Some(("id", id.to_string())), spec),
            );
            let stepped =
                handle(&reference, &request("POST", &format!("{path}/step"), None, &step));
            let answer = handle(&reference, &request("GET", &path, None, ""));
            if status != 200 || mirrored.status != 201 || stepped.status != 200 {
                return None;
            }
            expected.push(String::from_utf8(answer.body).ok()?);
            paths.push(path);
            Some(())
        })();
        report.check(ok.is_some(), || format!("resident session {i} failed to populate"));
    }
    let order =
        (0..SEQUENCE).map(|_| rng.uniform_u64(0, paths.len() as u64 - 1) as usize).collect();
    let prep = Prepared { fleet, paths, expected, order, reference };
    let mut warm = Samples::default();
    let (n, errors) =
        read_loop(&prep, &mut client, 0, 1, |done| done >= WARM_READS, &mut warm, None);
    report.tally(n, errors);
    prep
}

/// Closed-loop reads: client `w` of `stride` walks the read order until
/// `stop` says so, recording each read's latency. Returns the reads done
/// and the mismatches seen.
pub fn read_loop(
    prep: &Prepared,
    client: &mut Client,
    w: usize,
    stride: usize,
    mut stop: impl FnMut(usize) -> bool,
    latency: &mut Samples,
    mut reference: Option<&mut (Loopback, Samples)>,
) -> (u64, Vec<String>) {
    let mut errors = Vec::new();
    let mut k = w;
    let mut done = 0u64;
    while !stop(done as usize) {
        if let Some((link, rtt)) =
            reference.as_deref_mut().filter(|_| done.is_multiple_of(REF_EVERY))
        {
            for _ in 0..REF_TRIPS {
                match link.round_trip() {
                    Ok(t) => rtt.push(t),
                    Err(e) => errors.push(format!("loopback reference: {e}")),
                }
            }
        }
        let slot = prep.order[k % prep.order.len()];
        let began = Instant::now();
        let got = client.get_once(&prep.paths[slot]);
        latency.push(began.elapsed());
        match got {
            Ok((200, body)) if body == prep.expected[slot] => {}
            Ok((status, _)) => {
                fleet::note_status(status);
                errors.push(format!(
                    "read of {}: status {status} or wrong body",
                    prep.paths[slot]
                ));
            }
            Err(e) => errors.push(format!("read of {}: {e}", prep.paths[slot])),
        }
        done += 1;
        k += stride;
    }
    (done, errors)
}

/// Length of a chunk of a phase; each chunk is divided by the loopback
/// round trips taken during it.
const CHUNK: Duration = Duration::from_secs(1);
/// Client 0 takes `REF_TRIPS` loopback round trips before every
/// `REF_EVERY`th read, so the reference samples the machine all through
/// a chunk, the way the reads do.
const REF_EVERY: u64 = 50;
const REF_TRIPS: usize = 5;

/// One measured phase: `clients` closed-loop clients for `seconds`.
#[derive(Default)]
struct PhaseResult {
    latency: Samples,
    /// Reads per second of each chunk.
    rates: Vec<f64>,
    /// Each chunk's read p50 over its median round trip.
    p50_rel: Vec<f64>,
    /// Each chunk's reads per second times its mean round trip (a rate
    /// is a mean, so it is set against a mean).
    rate_rel: Vec<f64>,
}

fn phase(prep: &Prepared, clients: usize, seconds: f64, report: &mut Report) -> PhaseResult {
    let mut reference =
        (Loopback::open().expect("loopback reference opens"), Samples::default());
    let mut out = PhaseResult::default();
    let mut offset = 0;
    let chunks = (seconds / CHUNK.as_secs_f64()).round().max(1.0) as usize;
    for _ in 0..chunks {
        reference.1 = Samples::default();
        let mut sampler = Some(&mut reference);
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds / chunks as f64);
        let results: Vec<(Samples, u64, Vec<String>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|w| {
                    let sampler = sampler.take();
                    scope.spawn(move || {
                        let mut client = Client::new(prep.fleet.addr);
                        let mut latency = Samples::default();
                        let stop = |_| Instant::now() >= deadline;
                        let (n, errors) = read_loop(
                            prep,
                            &mut client,
                            offset + w,
                            clients,
                            stop,
                            &mut latency,
                            sampler,
                        );
                        (latency, n, errors)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect()
        });
        let wall = start.elapsed().as_secs_f64();
        let mut chunk = Samples::default();
        let mut reads = 0;
        for (latency, n, errors) in results {
            report.tally(n, errors);
            chunk.extend(latency);
            reads += n;
        }
        offset += reads as usize;
        let rate = reads as f64 / wall;
        out.rates.push(rate);
        let rtt = &reference.1;
        out.p50_rel.push(chunk.quantile_ms(0.5) / rtt.quantile_ms(0.5));
        out.rate_rel.push(rate * rtt.mean_ms() / 1e3);
        out.latency.extend(chunk);
    }
    out
}

pub fn run(seed: u64, seconds: f64, report: &mut Report) {
    let (prep, setup_s) = timed_setups(
        |rep| prepare(seed, &format!("reads{rep}"), report),
        |prep: Prepared| prep.fleet.shutdown(),
    );
    // Phase A: one client, latency. Phase B: two clients, throughput.
    let single = phase(&prep, 1, seconds * 0.5, report);
    let loaded = phase(&prep, 2, seconds * 0.5, report);

    report.metric("setup_s", setup_s, "s");
    report.metric("op_p50_rel", median(&single.p50_rel), "ratio");
    report.metric("stress_p50_rel", median(&loaded.p50_rel), "ratio");
    report.metric("ops_per_ref", median(&loaded.rate_rel), "1/ref");
    report.note(format!(
        "raw, ungated: ops_per_s {:.1} 1/s, op_p50_ms {:.4} ms, stress_p50_ms {:.4} ms",
        median(&loaded.rates),
        single.latency.quantile_ms(0.5),
        loaded.latency.quantile_ms(0.5)
    ));
    report.note(format!(
        "proxy_reads: phase A {} reads (p99 {:.3} ms, p999 {:.3} ms); \
         phase B {} reads (p99 {:.3} ms)",
        single.latency.len(),
        single.latency.quantile_ms(0.99),
        single.latency.quantile_ms(0.999),
        loaded.latency.len(),
        loaded.latency.quantile_ms(0.99)
    ));
    prep.fleet.shutdown();
}
