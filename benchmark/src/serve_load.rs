//! serve-steady: an in-process daemon driven over loopback by a closed
//! loop of clients, each owning one session.
//!
//! Each client sends its next request only after the previous reply:
//! nine in ten are `step n=4` with an idempotency id, every tenth is a
//! full-lattice `region` query. Every reply is checked against the
//! client's own bit-plane HPP reference of its session.

use crate::farm_load::MIN_STEPS;
use crate::machine::{call, drive_serve_steady, Machine, SERVE_QUERY_EVERY, SERVE_STEP_GENS};
use crate::stats::timed;
use crate::trace::Tracer;
use crate::Tally;
use lattice_engines::core::LatticeError;
use lattice_engines::gas::bitparallel::HppBitLattice;
use lattice_engines::serve::{
    seed_grid, Client, Daemon, DaemonConfig, Query, Request, Response, SessionSpec,
};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Instant;

/// A running daemon with one connected client per session.
pub struct Live {
    handle: JoinHandle<Result<(), LatticeError>>,
    dir: PathBuf,
    /// One `(client, session name, spec)` per session.
    pub clients: Vec<(Client, String, SessionSpec)>,
}

fn bad(msg: String) -> LatticeError {
    LatticeError::InvalidConfig(msg)
}

/// The spec of client `i`'s session: the machine's spec with its own seed.
pub fn client_spec(m: &Machine, i: usize) -> SessionSpec {
    SessionSpec { seed: m.spec.seed.wrapping_add(i as u64), ..m.spec.clone() }
}

/// Starts a daemon whose store lives in `dir`, connects one client per
/// spec and creates its session.
pub fn start(specs: &[SessionSpec], dir: &Path) -> Result<Live, LatticeError> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| bad(format!("clearing {dir:?}: {e}")))?;
    }
    let config = DaemonConfig {
        checkpoint_dir: Some(dir.to_string_lossy().into_owned()),
        ..DaemonConfig::default()
    };
    let (addr, handle) = Daemon::spawn(&config)?;
    let addr = addr.to_string();
    let mut clients = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        let mut client = Client::connect(&addr)?;
        let session = format!("s{i}");
        let req = Request::Create { session: session.clone(), spec: spec.clone() };
        match call(&mut client, &req)? {
            Response::Created { admitted: true, .. } => {}
            other => return Err(bad(format!("session {session} not admitted: {other:?}"))),
        }
        clients.push((client, session, spec.clone()));
    }
    Ok(Live { handle, dir: dir.to_path_buf(), clients })
}

impl Live {
    /// Shuts the daemon down, waits for its thread and removes its store.
    /// A daemon that did not acknowledge the shutdown is not waited for.
    pub fn stop(mut self) -> Result<(), LatticeError> {
        let (client, _, _) =
            self.clients.first_mut().ok_or_else(|| bad("no client to send shutdown".into()))?;
        match call(client, &Request::Shutdown)? {
            Response::Bye => {}
            other => return Err(bad(format!("shutdown answered {other:?}"))),
        }
        self.clients.clear();
        self.handle.join().map_err(|_| bad("daemon thread panicked".into()))??;
        std::fs::remove_dir_all(&self.dir).map_err(|e| bad(format!("removing {:?}: {e}", self.dir)))
    }
}

/// One timed request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Round-trip seconds at the client.
    pub secs: f64,
    /// Whether spans were recorded during it.
    pub traced: bool,
    /// A `step` (else a `region` query).
    pub step: bool,
}

/// What the closed loop measured.
#[derive(Debug, Clone)]
pub struct ServeRun {
    /// Every timed request of every client.
    pub samples: Vec<Sample>,
    /// Committed steps over all sessions.
    pub steps: u64,
    /// Wall seconds from the loop's start until the last client stopped.
    pub secs: f64,
    /// Machine ticks of one `step` request, summed over the sessions.
    pub model_ticks: f64,
}

struct ClientRun {
    samples: Vec<Sample>,
    steps: u64,
    ticks_per_step: f64,
    attempted: u64,
    failed: u64,
    tracer: Tracer,
}

/// A full-lattice region query.
fn region_of(session: &str, spec: &SessionSpec) -> Request {
    let what = Query::Region { row0: 0, col0: 0, rows: spec.rows, cols: spec.cols };
    Request::QueryReq { session: session.to_string(), what }
}

/// Whether a region reply matches the reference at generation `time`.
fn region_ok(resp: &Response, reference: &HppBitLattice, time: u64, tamper: bool) -> bool {
    match resp {
        Response::Region { time: t, cells, .. } if *t == time => {
            let mut cells = cells.clone();
            if tamper {
                if let Some(c) = cells.first_mut() {
                    *c ^= 1;
                }
            }
            cells == reference.to_grid().as_slice()
        }
        _ => false,
    }
}

fn client_loop(
    idx: usize,
    (client, session, spec): &mut (Client, String, SessionSpec),
    start: Instant,
    seconds: f64,
    tamper: bool,
    mut tracer: Tracer,
) -> Result<ClientRun, LatticeError> {
    let mut reference = HppBitLattice::from_grid(&seed_grid(spec)?)?;
    let mut time = 0u64;
    let mut samples = Vec::new();
    let (mut steps, mut failed, mut n) = (0u64, 0u64, 0u64);
    let query = region_of(session, spec);
    let tracing = tracer.recording();
    while samples.iter().filter(|s: &&Sample| s.step).count() < MIN_STEPS
        || start.elapsed().as_secs_f64() < seconds
    {
        let traced = tracing && n % 2 == 1;
        tracer.set_recording(traced);
        let req_id = ((idx as u64) << 32) | n;
        let step = n % SERVE_QUERY_EVERY != SERVE_QUERY_EVERY - 1;
        let (resp, secs) =
            tracer.span(if step { "serve.step" } else { "serve.query" }, Some(req_id), |_| {
                timed(|| {
                    if step {
                        drive_serve_steady(client, session, format!("c{idx}-{n}"))
                    } else {
                        call(client, &query)
                    }
                })
            });
        tracer.set_recording(tracing);
        n += 1;
        samples.push(Sample { secs, traced, step });
        let ok = match resp {
            Ok(Response::Stepped { time: t, .. }) if step && t == time + SERVE_STEP_GENS => {
                reference.run(SERVE_STEP_GENS);
                time = t;
                steps += 1;
                true
            }
            Ok(resp) if !step => region_ok(&resp, &reference, time, tamper),
            Ok(_) => false,
            Err(e) => {
                eprintln!("serve-steady: client {idx} request {n} failed: {e}");
                false
            }
        };
        if !ok {
            failed += 1;
        }
    }
    // The final lattice validates the whole trajectory: if it is wrong,
    // so is every request that built it.
    let last = call(client, &query)?;
    let report =
        call(client, &Request::QueryReq { session: session.clone(), what: Query::Report })?;
    let ticks = match report {
        Response::Report(r) => r.machine_ticks,
        other => return Err(bad(format!("report query answered {other:?}"))),
    };
    if !region_ok(&last, &reference, time, tamper) {
        failed = n;
    }
    let ticks_per_step = if steps == 0 { 0.0 } else { ticks as f64 / steps as f64 };
    Ok(ClientRun { samples, steps, ticks_per_step, attempted: n, failed, tracer })
}

/// Runs the closed loop on `live` for `seconds`, one thread per client.
/// When the tracer is recording, every other request is traced.
pub fn run(
    live: &mut Live,
    seconds: f64,
    tamper: bool,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Result<ServeRun, LatticeError> {
    let start = Instant::now();
    let runs: Vec<Result<(ClientRun, f64), LatticeError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = live
            .clients
            .iter_mut()
            .enumerate()
            .map(|(i, c)| {
                let fork = tracer.fork();
                scope.spawn(move || {
                    client_loop(i, c, start, seconds, tamper, fork)
                        .map(|r| (r, start.elapsed().as_secs_f64()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err(bad("client thread panicked".into()))))
            .collect()
    });
    let mut out = ServeRun { samples: Vec::new(), steps: 0, secs: 0.0, model_ticks: 0.0 };
    for r in runs {
        let (r, end) = r?;
        tally.attempted += r.attempted;
        tally.failed += r.failed;
        out.samples.extend(r.samples);
        out.steps += r.steps;
        out.model_ticks += r.ticks_per_step;
        out.secs = out.secs.max(end);
        tracer.absorb(r.tracer);
    }
    Ok(out)
}
