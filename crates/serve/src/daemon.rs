//! The lattice-as-a-service daemon.
//!
//! One listener thread accepts connections; each connection gets a
//! handler thread; all handlers share one `ServerState` behind a
//! mutex, so requests across connections serialize at the state (the
//! engines themselves are the expensive part and run inside the
//! critical section — this daemon multiplexes *sessions*, not cores).
//!
//! Session lifecycle (the eviction state machine of `DESIGN.md` §15):
//!
//! ```text
//!             create (budget has room, queue empty)
//!   [--]  ────────────────────────────────────────▶  Live
//!    │                                              ▲    │
//!    │ create (saturated or queue non-empty)  restore│    │evict (LRU over
//!    ▼                                       (lazy, │    │max_live) /
//!  Queued  ──────────────────────────▶  Evicted ────┘    │shutdown
//!            promote (a destroy freed            ◀───────┘
//!            enough budget; activates
//!            directly to Live)
//! ```
//!
//! * **Live** — a [`FarmSession`] resident in memory; steps run here.
//! * **Queued** — admission control refused the session's predicted
//!   link demand; it holds no engine state and cannot be stepped.
//! * **Evicted** — engine state swapped out to the checkpoint store
//!   (requires `checkpoint_dir`); any touch restores it bit-exactly.
//! * **Poisoned** — a step exhausted the recovery ladder. The last
//!   committed state is salvaged to the store, the counters are
//!   folded, the link-budget share is released, and the session is
//!   quarantined: it shows in `stats` (and survives a restart via a
//!   poison marker in its meta slot) but refuses every touch until
//!   destroyed. The fault is contained — other sessions keep stepping.
//!
//! Durability: with a `checkpoint_dir`, every admitted session lives
//! in its own [`SessionNamespace`] of the directory; its spec goes in
//! the namespace's meta slot and every step ends with a durable
//! commit, made through the one store handle the session's residency
//! holds (opened at activation, dropped when the residency ends). A
//! restarted daemon lists the namespaces, re-admits each recorded
//! session unconditionally (the previous life's admission decision
//! outranks a shrunk budget), and restores lazily on first touch.
//! Queued sessions hold no store state and do not survive a restart.
//! Cumulative performance counters are folded into the session entry
//! at eviction but not persisted: a restart keeps the lattice
//! (bit-exact) and the generation clock, not the tick ledger.

use crate::json::{self, Value};
use crate::protocol::{
    Query, ReportFrame, Request, Response, SessionSpec, SessionStat, StatsFrame,
};
use crate::scheduler::Scheduler;
use crate::session::{
    build_farm, fault_plan, link_demand, recovery_config, seed_grid, validate_spec, GasRule,
};
use crate::transport::{is_frame_error, nudge, Connection, Listener};
use lattice_core::checkpoint::store::{
    list_sessions, reassemble, valid_session_name, CheckpointStore, DiskBackend, SessionNamespace,
    SnapshotSink,
};
use lattice_core::units::BitsPerTick;
use lattice_core::LatticeError;
use lattice_farm::FarmSession;
use lattice_gas::Observables;
use lattice_vlsi::Technology;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// Default aggregate link capacity, bits per machine tick, when the
/// operator does not provision one. Roomy enough for a handful of
/// default-spec sessions, small enough that admission control is real.
pub const DEFAULT_LINK_CAPACITY: f64 = 512.0;

/// Sessions one daemon holds, in any state. A `stats` frame spends
/// seven JSON items per session (its array element and six members),
/// so at this bound every frame stays inside the parser's
/// [`json::MAX_ITEMS`] and decodes at the client; `create` past it is
/// refused.
pub const MAX_SESSIONS: usize = json::MAX_ITEMS / 8;

/// Milliseconds between streamed `stats` samples (`watch > 1`).
const WATCH_INTERVAL_MS: u64 = 100;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Bind address; port 0 lets the OS pick (report via [`Daemon::addr`]).
    pub addr: String,
    /// Durable store directory; `None` disables eviction and restart
    /// recovery (sessions live and die in memory).
    pub checkpoint_dir: Option<String>,
    /// Aggregate link capacity in bits/tick; `None` takes
    /// [`DEFAULT_LINK_CAPACITY`], `f64::INFINITY` disables admission
    /// control entirely.
    pub link_capacity: Option<f64>,
    /// Sessions allowed to keep engine state in memory at once;
    /// beyond this the least-recently-used session is evicted to the
    /// checkpoint store (only when `checkpoint_dir` is set).
    pub max_live: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            addr: "127.0.0.1:0".into(),
            checkpoint_dir: None,
            link_capacity: None,
            max_live: 4,
        }
    }
}

/// Counters a session accumulated in previous residencies, folded in
/// at eviction so `query report` stays cumulative across swaps.
#[derive(Debug, Clone, Copy, Default)]
struct Carried {
    passes: u64,
    machine_ticks: u64,
    halo_ticks: u64,
    overlapped_ticks: u64,
    retransmit_ticks: u64,
    retransmits: u64,
    rollbacks: u64,
    local_rollbacks: u64,
    detected: u64,
    boards_retired: u64,
    checkpoints: u64,
    useful_updates: u64,
    halo_bits: u128,
}

/// The last id-bearing step a session committed, kept in memory so a
/// client retry carrying the same id is acknowledged without being
/// applied again (at-most-once step semantics under retries).
struct LastStep {
    id: String,
    time: u64,
    passes: u64,
}

/// A resident session: its rule, the live recovery-ladder state, and
/// its durable store.
struct LiveSession {
    rule: GasRule,
    session: FarmSession<'static, u8>,
    /// The session's store namespace, opened once at activation and
    /// dropped with the residency (eviction, quarantine, destroy);
    /// `None` without a `checkpoint_dir`. Every commit of this
    /// residency goes through it, so the slot and sequence state it
    /// learned at open stays in step with the medium.
    store: Option<SessionStore>,
}

/// Where a session's engine state currently is.
enum SessState {
    /// Waiting for link budget; no engine state exists yet.
    Queued,
    /// Resident in memory.
    Live(Box<LiveSession>),
    /// Swapped out to the checkpoint store at `time`.
    Evicted {
        /// Generation of the newest durable snapshot.
        time: u64,
    },
    /// Quarantined after a step exhausted the recovery ladder: the
    /// last committed state is salvaged in the store, the budget share
    /// is released, and every touch is refused until the session is
    /// destroyed.
    Poisoned {
        /// Generation of the salvaged state.
        time: u64,
        /// The ladder-exhausting error, for `stats` and post-mortems.
        reason: String,
    },
}

struct SessionEntry {
    spec: SessionSpec,
    demand: BitsPerTick,
    state: SessState,
    steps: u64,
    last_touch: u64,
    carried: Carried,
    last_step: Option<LastStep>,
}

struct ServerState {
    sessions: BTreeMap<String, SessionEntry>,
    scheduler: Scheduler,
    dir: Option<String>,
    max_live: usize,
    touch_clock: u64,
    requests: u64,
    steps_served: u64,
    shutting_down: bool,
}

type SessionStore = CheckpointStore<SessionNamespace<DiskBackend>>;

fn open_store(dir: &str, name: &str) -> Result<SessionStore, LatticeError> {
    CheckpointStore::open(SessionNamespace::new(DiskBackend::open(dir)?, name)?)
}

/// The checkpoint sink a residency's commits go to: its store when the
/// daemon is durable, none (an in-memory barrier only) otherwise.
fn sink(store: &mut Option<SessionStore>) -> Option<&mut (dyn SnapshotSink + '_)> {
    store.as_mut().map(|s| s as &mut dyn SnapshotSink)
}

/// Meta payload marking a destroyed session, so a restart skips its
/// leftover generation slots instead of resurrecting it.
const TOMBSTONE: &str = "{\"destroyed\":true}";

impl ServerState {
    fn touch(&mut self, name: &str) {
        self.touch_clock += 1;
        let clock = self.touch_clock;
        if let Some(e) = self.sessions.get_mut(name) {
            e.last_touch = clock;
        }
    }

    fn live_count(&self) -> usize {
        self.sessions.values().filter(|e| matches!(e.state, SessState::Live(_))).count()
    }

    /// Builds a fresh engine for `name` (generation 0 or restored from
    /// the store) and marks it live. The caller has already settled
    /// admission.
    fn activate(&mut self, name: &str) -> Result<(), LatticeError> {
        let entry = self.sessions.get_mut(name).ok_or_else(|| no_such(name))?;
        if let SessState::Poisoned { reason, .. } = &entry.state {
            return Err(poisoned(name, reason));
        }
        let spec = entry.spec.clone();
        let farm = build_farm(&spec)?;
        let rule = GasRule::from_spec(&spec)?;
        let cfg = recovery_config(&spec);
        let plan = fault_plan(&spec, &farm)?;
        let mut store = match self.dir.as_deref() {
            Some(dir) => Some(open_store(dir, name)?),
            None => None,
        };
        let restored = match (&entry.state, store.as_mut()) {
            (SessState::Evicted { .. }, Some(store)) => match store.load_latest()? {
                Some(loaded) => {
                    let (grid, t) = reassemble::<u8>(&loaded.snapshot)?;
                    Some(farm.session_owned::<u8>(&grid, t.get(), plan.clone(), &cfg, None)?)
                }
                None => None,
            },
            _ => None,
        };
        let session = match restored {
            Some(s) => s,
            None => {
                let grid = seed_grid(&spec)?;
                if let Some(store) = store.as_mut() {
                    store.commit_meta(spec.to_json().render().as_bytes())?;
                }
                farm.session_owned::<u8>(&grid, 0, plan, &cfg, sink(&mut store))?
            }
        };
        let entry = self.sessions.get_mut(name).ok_or_else(|| no_such(name))?;
        entry.state = SessState::Live(Box::new(LiveSession { rule, session, store }));
        self.touch(name);
        self.enforce_max_live(name)?;
        Ok(())
    }

    /// Evicts least-recently-touched live sessions (never `keep`)
    /// until at most `max_live` remain resident. Only a session with a
    /// store handle is a victim — evicting one without would destroy
    /// its state.
    fn enforce_max_live(&mut self, keep: &str) -> Result<(), LatticeError> {
        while self.live_count() > self.max_live {
            let victim = self
                .sessions
                .iter()
                .filter(|(n, e)| {
                    matches!(&e.state, SessState::Live(l) if l.store.is_some())
                        && n.as_str() != keep
                })
                .min_by_key(|(_, e)| e.last_touch)
                .map(|(n, _)| n.clone());
            match victim {
                Some(v) => self.evict(&v)?,
                None => break,
            }
        }
        Ok(())
    }

    /// Swaps a live session out: durable checkpoint, counters folded
    /// into the entry, engine state and store handle dropped. A no-op
    /// for a session without a store handle.
    fn evict(&mut self, name: &str) -> Result<(), LatticeError> {
        let entry = self.sessions.get_mut(name).ok_or_else(|| no_such(name))?;
        if let SessState::Live(live) = &mut entry.state {
            let Some(store) = live.store.as_mut() else { return Ok(()) };
            live.session.checkpoint(Some(store))?;
            let time = live.session.time();
            let rep = live.session.report();
            let rec = live.session.recovery();
            entry.carried.passes += rep.passes;
            entry.carried.machine_ticks += rep.machine_ticks().get();
            entry.carried.halo_ticks += rep.halo_ticks.get();
            entry.carried.overlapped_ticks += rep.overlapped_ticks.get();
            entry.carried.retransmit_ticks += rep.retransmit_ticks.get();
            // The `carried` folds below *read* the recovery ladder's
            // conservation set into the daemon's cumulative report; the
            // invariant-bearing counters themselves are only mutated in
            // the audited farm module. Retransmits come from the
            // ladder's own counter (`rec`), not the committed-pass
            // report: frames retransmitted inside attempts that later
            // rolled back answered real detections, and dropping them
            // would break `detected == retransmits + local + global +
            // retired` at high fault rates.
            // lattice-lint: allow(counter-mutation)
            entry.carried.retransmits += rec.retransmits;
            // lattice-lint: allow(counter-mutation)
            entry.carried.rollbacks += rec.rollbacks;
            // lattice-lint: allow(counter-mutation)
            entry.carried.local_rollbacks += rec.local_rollbacks;
            // lattice-lint: allow(counter-mutation)
            entry.carried.detected += rec.detected;
            // lattice-lint: allow(counter-mutation)
            entry.carried.boards_retired += rec.boards_retired;
            entry.carried.checkpoints += rec.checkpoints;
            entry.carried.useful_updates += rep.useful_updates().get();
            entry.carried.halo_bits += rep.halo_traffic.bits_in;
            entry.state = SessState::Evicted { time };
        }
        Ok(())
    }

    /// Quarantines a live session whose step exhausted the recovery
    /// ladder: salvages the last committed state to the store, marks
    /// the durable meta poisoned (so a restart keeps the quarantine),
    /// folds the counters, and flips the state to
    /// [`SessState::Poisoned`], dropping the store handle. The caller
    /// releases the budget share — the fault is contained and every
    /// other session keeps stepping.
    fn quarantine(&mut self, name: &str, reason: &str) {
        let Some(entry) = self.sessions.get_mut(name) else { return };
        if let SessState::Live(live) = &mut entry.state {
            let time = live.session.time();
            if let Some(store) = live.store.as_mut() {
                // Best-effort salvage: the failed step left the last
                // committed state (a resident run commits only at its
                // end, so a failed one leaves the lattice it started
                // from).
                let _ = live.session.checkpoint(Some(store));
                let mut meta = entry.spec.to_json();
                if let Value::Obj(pairs) = &mut meta {
                    pairs.push(("poisoned".into(), Value::Str(reason.to_string())));
                }
                let _ = store.commit_meta(meta.render().as_bytes());
            }
            let rec = live.session.recovery();
            // Same conservation-set reads as `evict` above (ladder
            // counter, not the committed-pass report).
            // lattice-lint: allow(counter-mutation)
            entry.carried.retransmits += rec.retransmits;
            // lattice-lint: allow(counter-mutation)
            entry.carried.rollbacks += rec.rollbacks;
            // lattice-lint: allow(counter-mutation)
            entry.carried.local_rollbacks += rec.local_rollbacks;
            // lattice-lint: allow(counter-mutation)
            entry.carried.detected += rec.detected;
            // lattice-lint: allow(counter-mutation)
            entry.carried.boards_retired += rec.boards_retired;
            entry.carried.checkpoints += rec.checkpoints;
            let rep = live.session.report();
            entry.carried.passes += rep.passes;
            entry.carried.machine_ticks += rep.machine_ticks().get();
            entry.carried.halo_ticks += rep.halo_ticks.get();
            entry.carried.overlapped_ticks += rep.overlapped_ticks.get();
            entry.carried.retransmit_ticks += rep.retransmit_ticks.get();
            entry.carried.useful_updates += rep.useful_updates().get();
            entry.carried.halo_bits += rep.halo_traffic.bits_in;
            entry.state = SessState::Poisoned { time, reason: reason.to_string() };
        }
    }

    /// A live session for `name`, restoring it from the store if it
    /// was evicted. Queued sessions are refused — that is the
    /// admission backpressure surfacing to the client.
    fn live(&mut self, name: &str) -> Result<&mut LiveSession, LatticeError> {
        match self.sessions.get(name).map(|e| &e.state) {
            None => return Err(no_such(name)),
            Some(SessState::Queued) => {
                return Err(LatticeError::InvalidConfig(format!(
                    "session `{name}` is queued behind the link budget (admission backpressure) \
                     — destroy another session or wait for promotion"
                )))
            }
            Some(SessState::Poisoned { reason, .. }) => {
                return Err(poisoned(name, reason));
            }
            Some(SessState::Evicted { .. }) => self.activate(name)?,
            Some(SessState::Live(_)) => {}
        }
        self.touch(name);
        match self.sessions.get_mut(name).map(|e| &mut e.state) {
            Some(SessState::Live(live)) => Ok(live),
            _ => Err(no_such(name)),
        }
    }

    fn report_frame(&mut self, name: &str) -> Result<ReportFrame, LatticeError> {
        let clock = Technology::paper_1987().clock().get();
        let live = self.live(name)?;
        let rep = live.session.report();
        let rec = live.session.recovery();
        let time = live.session.time();
        let entry = self.sessions.get(name).ok_or_else(|| no_such(name))?;
        let c = entry.carried;
        let machine_ticks = c.machine_ticks + rep.machine_ticks().get();
        let useful = c.useful_updates + rep.useful_updates().get();
        let halo_bits = c.halo_bits + rep.halo_traffic.bits_in;
        let per_tick = |num: f64| -> f64 {
            if machine_ticks == 0 {
                0.0
            } else {
                num / machine_ticks as f64
            }
        };
        Ok(ReportFrame {
            session: name.to_string(),
            time,
            passes: c.passes + rep.passes,
            machine_ticks,
            halo_ticks: c.halo_ticks + rep.halo_ticks.get(),
            overlapped_ticks: c.overlapped_ticks + rep.overlapped_ticks.get(),
            retransmit_ticks: c.retransmit_ticks + rep.retransmit_ticks.get(),
            retransmits: c.retransmits + rec.retransmits,
            rollbacks: c.rollbacks + rec.rollbacks,
            local_rollbacks: c.local_rollbacks + rec.local_rollbacks,
            detected: c.detected + rec.detected,
            boards_retired: c.boards_retired + rec.boards_retired,
            checkpoints: c.checkpoints + rec.checkpoints,
            sites_per_sec: per_tick(useful as f64) * clock,
            halo_bits_per_tick: per_tick(halo_bits as f64),
        })
    }

    fn stats_frame(&self) -> StatsFrame {
        let mut rows = Vec::with_capacity(self.sessions.len());
        let (mut live, mut queued, mut evicted, mut poisoned) = (0u64, 0u64, 0u64, 0u64);
        for (name, e) in &self.sessions {
            let (state, time) = match &e.state {
                SessState::Live(l) => {
                    live += 1;
                    ("live", l.session.time())
                }
                SessState::Queued => {
                    queued += 1;
                    ("queued", 0)
                }
                SessState::Evicted { time } => {
                    evicted += 1;
                    ("evicted", *time)
                }
                SessState::Poisoned { time, .. } => {
                    poisoned += 1;
                    ("poisoned", *time)
                }
            };
            let passes = e.carried.passes
                + match &e.state {
                    SessState::Live(l) => l.session.passes(),
                    _ => 0,
                };
            rows.push(SessionStat {
                session: name.clone(),
                state: state.into(),
                time,
                passes,
                steps: e.steps,
                link_demand: e.demand.get(),
            });
        }
        let budget = self.scheduler.budget();
        StatsFrame {
            sessions: rows,
            live,
            queued,
            evicted,
            poisoned,
            link_capacity: (!budget.capacity().is_unthrottled()).then(|| budget.capacity().get()),
            link_admitted: budget.admitted().get(),
            utilization: budget.utilization(),
            requests: self.requests,
            steps_served: self.steps_served,
        }
    }
}

fn no_such(name: &str) -> LatticeError {
    LatticeError::InvalidConfig(format!("no such session `{name}`"))
}

fn poisoned(name: &str, reason: &str) -> LatticeError {
    LatticeError::InvalidConfig(format!(
        "session `{name}` is quarantined after an unrecoverable fault ({reason}) — \
         destroy it to reclaim the name"
    ))
}

/// A bound daemon, ready to serve.
pub struct Daemon {
    listener: Listener,
    addr: SocketAddr,
    state: Arc<Mutex<ServerState>>,
}

fn lock(state: &Mutex<ServerState>) -> std::sync::MutexGuard<'_, ServerState> {
    // A poisoned lock means a handler thread panicked mid-request; the
    // state's invariants are per-request, so the next request proceeds.
    state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Daemon {
    /// Binds the listener and, when a checkpoint directory is
    /// configured, re-admits every session a previous daemon life left
    /// in the store (lazily restored on first touch).
    pub fn bind(config: &DaemonConfig) -> Result<Daemon, LatticeError> {
        let capacity = BitsPerTick::new(config.link_capacity.unwrap_or(DEFAULT_LINK_CAPACITY));
        let mut state = ServerState {
            sessions: BTreeMap::new(),
            scheduler: Scheduler::new(capacity),
            dir: config.checkpoint_dir.clone(),
            max_live: config.max_live.max(1),
            touch_clock: 0,
            requests: 0,
            steps_served: 0,
            shutting_down: false,
        };
        if let Some(dir) = &state.dir {
            let mut backend = DiskBackend::open(dir)?;
            for name in list_sessions(&mut backend)? {
                let mut store = open_store(dir, &name)?;
                let Some(meta) = store.load_meta()? else { continue };
                let Ok(text) = String::from_utf8(meta) else { continue };
                let Ok(value) = json::parse(&text) else { continue };
                if value.get("destroyed").is_some() {
                    continue;
                }
                let Ok(spec) = SessionSpec::from_json(&value) else { continue };
                if validate_spec(&spec).is_err() {
                    continue;
                }
                let demand = link_demand(&spec)?;
                let time = store.load_latest()?.map(|l| l.snapshot.time.get()).unwrap_or(0);
                // A poison marker keeps the quarantine across restarts:
                // the session is listed (post-mortem) but never
                // re-admitted against the budget — quarantine released
                // its share in the previous life.
                let poisoned = value.get("poisoned").and_then(Value::as_str).map(str::to_string);
                let sess_state = match poisoned {
                    Some(reason) => SessState::Poisoned { time, reason },
                    None => {
                        state.scheduler.admit_unconditionally(demand);
                        SessState::Evicted { time }
                    }
                };
                // Rehydrate the at-most-once ack cache: a client retry
                // of the last step committed before the restart must be
                // re-acknowledged, never applied again.
                let last_step = value.get("last_step").and_then(|v| {
                    Some(LastStep {
                        id: v.get("id")?.as_str()?.to_string(),
                        time: v.get("time")?.as_u64()?,
                        passes: v.get("passes")?.as_u64()?,
                    })
                });
                state.sessions.insert(
                    name,
                    SessionEntry {
                        spec,
                        demand,
                        state: sess_state,
                        steps: 0,
                        last_touch: 0,
                        carried: Carried::default(),
                        last_step,
                    },
                );
            }
        }
        let listener = Listener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        Ok(Daemon { listener, addr, state: Arc::new(Mutex::new(state)) })
    }

    /// The bound address (the real port when configured with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serves until a `shutdown` request arrives. Each connection gets
    /// its own handler thread; this thread blocks in `accept`.
    pub fn run(self) -> Result<(), LatticeError> {
        loop {
            let conn = self.listener.accept()?;
            if lock(&self.state).shutting_down {
                return Ok(());
            }
            let state = Arc::clone(&self.state);
            let addr = self.addr;
            thread::spawn(move || serve_connection(conn, &state, addr));
        }
    }

    /// Binds and serves on a background thread — the test harness
    /// entry point. Returns the bound address and the serving thread's
    /// handle.
    pub fn spawn(
        config: &DaemonConfig,
    ) -> Result<(SocketAddr, thread::JoinHandle<Result<(), LatticeError>>), LatticeError> {
        let daemon = Daemon::bind(config)?;
        let addr = daemon.addr();
        Ok((addr, thread::spawn(move || daemon.run())))
    }
}

fn serve_connection(mut conn: Connection, state: &Mutex<ServerState>, addr: SocketAddr) {
    loop {
        let line = match conn.read_line() {
            Ok(Some(line)) => line,
            Ok(None) => return,
            // Frame-shape rejections (oversized, not UTF-8) leave the
            // stream synchronized at the next newline: answer with a
            // structured error and keep serving. Anything else —
            // timeout, truncation, a dead socket — tears the
            // connection down gracefully.
            Err(e) if is_frame_error(&e) => {
                let resp = Response::Error { message: e.to_string() };
                if conn.write_line(&resp.to_line()).is_err() {
                    return;
                }
                continue;
            }
            Err(_) => return,
        };
        if line.is_empty() {
            continue;
        }
        let request = match Request::from_line(&line) {
            Ok(r) => r,
            Err(e) => {
                let resp = Response::Error { message: e.to_string() };
                if conn.write_line(&resp.to_line()).is_err() {
                    return;
                }
                continue;
            }
        };
        let is_shutdown = matches!(request, Request::Shutdown);
        if let Request::Stats { watch } = &request {
            lock(state).requests += 1;
            for i in 0..*watch {
                if i > 0 {
                    thread::sleep(Duration::from_millis(WATCH_INTERVAL_MS));
                }
                let frame = Response::Stats(lock(state).stats_frame());
                if conn.write_line(&frame.to_line()).is_err() {
                    return;
                }
            }
            continue;
        }
        let response = {
            let mut st = lock(state);
            st.requests += 1;
            // A handler panic must cost this request, not the daemon:
            // the guard lives outside the closure, so the unwind stops
            // here without poisoning the mutex (and `lock` recovers
            // poison regardless), and the connection stays usable.
            match catch_unwind(AssertUnwindSafe(|| dispatch(&mut st, &request))) {
                Ok(result) => result.unwrap_or_else(|e| Response::Error { message: e.to_string() }),
                Err(_) => {
                    Response::Error { message: "internal error: request handler panicked".into() }
                }
            }
        };
        if conn.write_line(&response.to_line()).is_err() {
            return;
        }
        if is_shutdown && matches!(response, Response::Bye) {
            nudge(&addr);
            return;
        }
    }
}

fn dispatch(st: &mut ServerState, request: &Request) -> Result<Response, LatticeError> {
    match request {
        Request::Create { session, spec } => create(st, session, spec),
        Request::Step { session, n, id } => step(st, session, *n, id.as_deref()),
        Request::QueryReq { session, what } => query(st, session, what),
        Request::Checkpoint { session } => checkpoint(st, session),
        Request::Destroy { session } => destroy(st, session),
        Request::Stats { .. } => Ok(Response::Stats(st.stats_frame())),
        Request::Shutdown => shutdown(st),
    }
}

fn create(st: &mut ServerState, name: &str, spec: &SessionSpec) -> Result<Response, LatticeError> {
    if !valid_session_name(name) {
        return Err(LatticeError::InvalidConfig(format!(
            "session name {name:?} must be 1-64 chars of [A-Za-z0-9_-]"
        )));
    }
    if st.sessions.contains_key(name) {
        return Err(LatticeError::InvalidConfig(format!("session `{name}` already exists")));
    }
    if st.sessions.len() >= MAX_SESSIONS {
        return Err(LatticeError::InvalidConfig(format!(
            "daemon holds {MAX_SESSIONS} sessions, the most one stats frame can list"
        )));
    }
    validate_spec(spec)?;
    let demand = link_demand(spec)?;
    let admitted = st.scheduler.admit_or_enqueue(name, demand);
    st.touch_clock += 1;
    let last_touch = st.touch_clock;
    st.sessions.insert(
        name.to_string(),
        SessionEntry {
            spec: spec.clone(),
            demand,
            state: if admitted { SessState::Evicted { time: 0 } } else { SessState::Queued },
            steps: 0,
            last_touch,
            carried: Carried::default(),
            last_step: None,
        },
    );
    if admitted {
        // Build the engine eagerly so create surfaces construction
        // errors (and writes the durable meta + generation-0 snapshot).
        if let Err(e) = st.activate(name) {
            st.sessions.remove(name);
            release_and_promote(st, demand)?;
            return Err(e);
        }
    }
    Ok(Response::Created { session: name.to_string(), admitted })
}

fn step(
    st: &mut ServerState,
    name: &str,
    n: u64,
    id: Option<&str>,
) -> Result<Response, LatticeError> {
    // At-most-once: a retry of the last committed id-bearing step is
    // re-acknowledged from the cache, never applied again.
    if let (Some(id), Some(entry)) = (id, st.sessions.get(name)) {
        if let Some(last) = &entry.last_step {
            if last.id == id {
                return Ok(Response::Stepped {
                    session: name.to_string(),
                    time: last.time,
                    passes: last.passes,
                });
            }
        }
    }
    let stepped = {
        let live = st.live(name)?;
        let rule = live.rule.clone();
        rule.step(&mut live.session, n)
    };
    if let Err(e) = stepped {
        // The ladder is exhausted: quarantine the session instead of
        // letting the fault take the daemon (or the budget) with it.
        let reason = e.to_string();
        st.quarantine(name, &reason);
        let demand = st.sessions.get(name).map(|e| e.demand).unwrap_or(BitsPerTick::ZERO);
        release_and_promote(st, demand)?;
        return Err(poisoned(name, &reason));
    }
    // Durable commit: the step is not acknowledged until the new
    // barrier is on the medium. Without a store there is no medium;
    // the session keeps its own `checkpoint_every` cadence.
    let entry = st.sessions.get_mut(name).ok_or_else(|| no_such(name))?;
    let SessState::Live(live) = &mut entry.state else { return Err(no_such(name)) };
    if let Some(store) = live.store.as_mut() {
        live.session.checkpoint(Some(store))?;
    }
    let time = live.session.time();
    let passes = entry.carried.passes + live.session.passes();
    entry.steps += 1;
    if let Some(id) = id {
        entry.last_step = Some(LastStep { id: id.to_string(), time, passes });
        // Durable at-most-once: the ack cache must survive a daemon
        // restart, or a client retry of a step that committed just
        // before the crash is applied a second time. The in-memory
        // cache is already updated, so if this meta commit fails the
        // client's retry of the resulting error still re-acks without
        // re-stepping.
        if let Some(store) = live.store.as_mut() {
            let mut meta = entry.spec.to_json();
            if let Value::Obj(pairs) = &mut meta {
                pairs.push((
                    "last_step".into(),
                    Value::Obj(vec![
                        ("id".into(), Value::Str(id.to_string())),
                        ("time".into(), Value::num_u64(time)),
                        ("passes".into(), Value::num_u64(passes)),
                    ]),
                ));
            }
            store.commit_meta(meta.render().as_bytes())?;
        }
    }
    st.steps_served += 1;
    Ok(Response::Stepped { session: name.to_string(), time, passes })
}

fn query(st: &mut ServerState, name: &str, what: &Query) -> Result<Response, LatticeError> {
    match what {
        Query::Report => Ok(Response::Report(st.report_frame(name)?)),
        Query::Observables => {
            let live = st.live(name)?;
            let obs = Observables::measure(live.session.grid(), live.rule.model());
            Ok(Response::Observables {
                session: name.to_string(),
                time: live.session.time(),
                mass: obs.mass,
                px: obs.momentum.0,
                py: obs.momentum.1,
                obstacles: obs.obstacles,
            })
        }
        Query::Region { row0, col0, rows, cols } => {
            let live = st.live(name)?;
            let grid = live.session.grid();
            let shape = grid.shape();
            let (g_rows, g_cols) = (shape.rows(), shape.cols());
            let r0 = (*row0).min(g_rows);
            let c0 = (*col0).min(g_cols);
            let r_n = (*rows).min(g_rows - r0);
            let c_n = (*cols).min(g_cols - c0);
            let data = grid.as_slice();
            let mut cells = Vec::with_capacity(r_n * c_n);
            for r in r0..r0 + r_n {
                cells.extend_from_slice(&data[r * g_cols + c0..r * g_cols + c0 + c_n]);
            }
            Ok(Response::Region {
                session: name.to_string(),
                time: live.session.time(),
                row0: r0,
                col0: c0,
                rows: r_n,
                cols: c_n,
                cells,
            })
        }
    }
}

fn checkpoint(st: &mut ServerState, name: &str) -> Result<Response, LatticeError> {
    let live = st.live(name)?;
    live.session.checkpoint(sink(&mut live.store))?;
    Ok(Response::Checkpointed { session: name.to_string(), time: live.session.time() })
}

fn destroy(st: &mut ServerState, name: &str) -> Result<Response, LatticeError> {
    let entry = st.sessions.remove(name).ok_or_else(|| no_such(name))?;
    let poisoned = match entry.state {
        SessState::Queued => {
            st.scheduler.forget_queued(name);
            return Ok(Response::Destroyed { session: name.to_string(), promoted: Vec::new() });
        }
        SessState::Poisoned { .. } => true,
        _ => false,
    };
    // Tombstone the durable namespace so a restart does not resurrect
    // the session from its leftover snapshots. A live session commits
    // through its own handle; only a swapped-out one needs a fresh open.
    let store = match (entry.state, st.dir.as_deref()) {
        (SessState::Live(live), _) => live.store,
        (_, Some(dir)) => Some(open_store(dir, name)?),
        (_, None) => None,
    };
    if let Some(mut store) = store {
        store.commit_meta(TOMBSTONE.as_bytes())?;
    }
    // Quarantine already released a poisoned session's budget share.
    let promoted = if poisoned { Vec::new() } else { release_and_promote(st, entry.demand)? };
    Ok(Response::Destroyed { session: name.to_string(), promoted })
}

/// Returns freed `demand` to the budget and activates every queued
/// session the scheduler promotes, in admission order.
fn release_and_promote(
    st: &mut ServerState,
    demand: BitsPerTick,
) -> Result<Vec<String>, LatticeError> {
    let sessions = &st.sessions;
    let promoted = st.scheduler.release(demand, |queued| {
        sessions.get(queued).map(|e| e.demand).unwrap_or(BitsPerTick::ZERO)
    });
    for promo in &promoted {
        if st.sessions.contains_key(promo) {
            if let Some(e) = st.sessions.get_mut(promo) {
                e.state = SessState::Evicted { time: 0 };
            }
            st.activate(promo)?;
        }
    }
    Ok(promoted)
}

fn shutdown(st: &mut ServerState) -> Result<Response, LatticeError> {
    let names: Vec<String> = st.sessions.keys().cloned().collect();
    for name in names {
        st.evict(&name)?;
    }
    st.shutting_down = true;
    Ok(Response::Bye)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(st: &mut ServerState, name: &str) -> ReportFrame {
        st.report_frame(name).expect("report")
    }

    #[test]
    fn a_step_without_a_store_takes_no_extra_checkpoint() {
        let daemon = Daemon::bind(&DaemonConfig::default()).expect("bind");
        let mut st = lock(&daemon.state);
        let spec = SessionSpec { rows: 8, cols: 32, shards: 2, ..SessionSpec::default() };
        let created = dispatch(&mut st, &Request::Create { session: "s".into(), spec });
        assert!(matches!(created, Ok(Response::Created { admitted: true, .. })));
        let before = report(&mut st, "s").checkpoints;
        // One generation is one pass: the session's own cadence
        // (`checkpoint_every` = 1) takes its barrier at the start of
        // the next pass, so the step itself adds none.
        let step = Request::Step { session: "s".into(), n: 1, id: None };
        assert!(matches!(dispatch(&mut st, &step), Ok(Response::Stepped { time: 1, .. })));
        assert_eq!(report(&mut st, "s").checkpoints, before);
        // An explicit checkpoint request still takes the barrier.
        dispatch(&mut st, &Request::Checkpoint { session: "s".into() }).expect("checkpoint");
        assert!(report(&mut st, "s").checkpoints > before);
    }

    #[test]
    fn the_session_limit_keeps_every_stats_frame_decodable() {
        let config = DaemonConfig { link_capacity: Some(1e-9), ..DaemonConfig::default() };
        let daemon = Daemon::bind(&config).expect("bind");
        let mut st = lock(&daemon.state);
        let spec = SessionSpec { rows: 8, cols: 32, shards: 2, ..SessionSpec::default() };
        let create = |i: usize| Request::Create { session: format!("{i:064}"), spec: spec.clone() };
        // The first session is admitted into the empty budget; the
        // rest queue behind it and hold no engine state, so the limit
        // is cheap to reach. Names take the longest form accepted.
        for i in 0..MAX_SESSIONS {
            let created = dispatch(&mut st, &create(i));
            let admitted = i == 0;
            assert!(
                matches!(created, Ok(Response::Created { admitted: a, .. }) if a == admitted),
                "{i}"
            );
        }
        let refused = dispatch(&mut st, &create(MAX_SESSIONS)).expect_err("past the limit");
        assert!(refused.to_string().contains("sessions"), "{refused}");
        let stats = dispatch(&mut st, &Request::Stats { watch: 1 }).expect("stats");
        let line = stats.to_line();
        assert!(line.len() < crate::transport::MAX_FRAME_BYTES);
        assert_eq!(Response::from_line(&line), Ok(stats));
    }
}
