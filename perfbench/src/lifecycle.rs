//! The service write path: session lifecycles through the router, and
//! restart cycles that kill backend `b0` and read every resident `b0`
//! session back. The traced run measures both layer by layer.

use redistrib_service::Client;

use crate::fleet::{self, Fleet};
use crate::{mix, work_dir, Report};

/// Distinct creation specs per run; lifecycles cycle through them.
pub const SPEC_RING: usize = 64;
/// Resident checkpointed sessions the restart drill recovers.
pub const RESIDENT: usize = 128;

/// A booted fleet with its resident population and lifecycle references.
pub struct Prepared {
    pub fleet: Fleet,
    pub specs: Vec<String>,
    /// Final snapshot of each spec, from an in-process `Session`.
    pub expected: Vec<String>,
    /// `(id, checkpointed snapshot)` of every resident session on `b0`.
    pub resident_b0: Vec<(u64, String)>,
}

/// Set-up: boot the fleet, compute the lifecycle references, populate
/// the resident sessions through the router (create, step, checkpoint,
/// snapshot) and warm up with untimed lifecycles.
pub fn prepare(seed: u64, tag: &str, report: &mut Report) -> Prepared {
    let specs = fleet::specs(mix(seed, 0x11FE), SPEC_RING);
    let fleet = Fleet::boot(work_dir(tag)).expect("fleet boots");
    let expected: Vec<String> = specs.iter().map(|s| fleet::final_snapshot(s)).collect();
    let mut client = Client::new(fleet.addr);
    let mut resident_b0 = Vec::new();
    for i in 0..RESIDENT {
        let ok = (|| {
            let (status, body) = client.post("/v1/sessions", &specs[i % SPEC_RING]).ok()?;
            let id = fleet::created_id(&body).filter(|_| status == 201)?;
            let base = format!("/v1/sessions/{id}");
            let stepped = client.post(&format!("{base}/step"), "{\"count\":8}").ok()?;
            let ckpt = client.post(&format!("{base}/checkpoint"), "").ok()?;
            let (status, snap) = client.post(&format!("{base}/snapshot"), "").ok()?;
            if stepped.0 != 200 || ckpt.0 != 200 || status != 200 {
                return None;
            }
            let (owner, _) = fleet.supervisor.route(id).ok()?;
            if owner == "b0" {
                resident_b0.push((id, snap));
            }
            Some(())
        })();
        report.check(ok.is_some(), || format!("resident session {i} failed to populate"));
    }
    for k in 0..32 {
        let out = fleet::lifecycle(&mut client, &specs[k % SPEC_RING], fleet::untraced);
        report.check(out.as_ref() == Ok(&expected[k % SPEC_RING]), || {
            format!("warm-up lifecycle {k}: {:?}", out.err())
        });
    }
    Prepared { fleet, specs, expected, resident_b0 }
}

/// Name of the kill step of a restart cycle.
pub const KILL: &str = "service.supervisor.kill";

/// One kill → detect → restart cycle on `b0`, until every resident `b0`
/// session answers its pre-kill snapshot through the router. Returns
/// how many sessions came back wrong or not at all. Each step runs
/// inside `around`, called with the step's name and request id (the
/// traced run opens a span there).
pub fn restart_cycle(
    prep: &Prepared,
    client: &mut Client,
    mut around: impl FnMut(&'static str, u64, &mut dyn FnMut()),
) -> usize {
    let supervisor = &prep.fleet.supervisor;
    let mut killed = false;
    around(KILL, 0, &mut || killed = supervisor.kill_backend("b0"));
    around("service.supervisor.tick", 0, &mut || supervisor.tick());
    let mut bad = usize::from(!killed);
    for (id, snap) in &prep.resident_b0 {
        let mut ok = false;
        around("service.router.snapshot_read", *id, &mut || {
            ok = matches!(client.post(&format!("/v1/sessions/{id}/snapshot"), ""),
                Ok((200, ref body)) if body == snap);
        });
        bad += usize::from(!ok);
    }
    bad
}
