//! The daemon's wire protocol: line-delimited JSON frames.
//!
//! One request per line, one response line per request (the `stats`
//! frame with `watch > 1` streams several lines, one per sample).
//! Every frame is a JSON object; requests carry an `"op"`
//! discriminator, responses carry `"ok"` plus a `"kind"`. The grammar
//! is written out in `DESIGN.md` §15; the codec here is the single
//! source of truth, and the proptest suite round-trips every frame
//! variant through [`json`].
//!
//! Unknown fields are ignored (forward compatibility); missing or
//! ill-typed required fields are a [`ProtoError`], never a panic — a
//! hostile peer gets an `"ok": false` line, not a daemon crash.

use crate::json::{self, Value};
use lattice_core::bits::{pack_rows, planes_needed, tail_mask, unpack_rows};
use lattice_core::{Grid, Shape};
use std::convert::Infallible;
use std::fmt;

/// Default per-channel site density for freshly created sessions and
/// for `lattice farm`, which has no density flag, so a daemon session
/// and a CLI run of the same spec start from the identical lattice.
pub const DEFAULT_DENSITY: f64 = 0.3;

/// A malformed frame: what was wrong with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError(pub String);

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

fn missing(field: &str) -> ProtoError {
    ProtoError(format!("missing or ill-typed field `{field}`"))
}

/// A session's seeded hardware-fault weather and recovery-ladder
/// budgets — the `fault` block of a [`SessionSpec`].
///
/// The service layer injects the fault classes whose *detection* is
/// parity-based (halo-link transients, stuck links, worker death and
/// hangs): the ladder absorbs them and the session stays bit-exact
/// against a fault-free run, which is the daemon's contract. Silent
/// SR/PE flips need a conservation audit whose exactness only the
/// CLI's margin/torus geometry can promise, so they stay in
/// `lattice fault-sim` / `lattice chaos`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Seed for every transient-fault draw; `None` reuses the spec's
    /// lattice seed.
    pub seed: Option<u64>,
    /// Transient bit-flip rate on every board's halo link (parity
    /// detected; absorbed by ARQ or, with `arq_retries = 0`, by the
    /// rollback levels).
    pub link_rate: f64,
    /// A stuck-at fault on this board's halo link. Unrecoverable by
    /// retry; survivable only through degraded re-partitioning
    /// (`max_retired ≥ 1`) — otherwise the session is quarantined.
    pub stuck_link: Option<usize>,
    /// Per-pass worker heartbeat deadline in milliseconds; a board
    /// that misses it is declared down and handled by the ladder.
    pub watchdog_ms: Option<u64>,
    /// Farm-wide rollback budget per checkpoint window (ladder 3).
    pub max_retries: u32,
    /// Halo-frame retransmissions per transmit (ladder 1).
    pub arq_retries: u32,
    /// Single-board rollback budget per board per window (ladder 2).
    pub local_retries: u32,
    /// Boards the degrade level may retire (ladder 4); 0 disables it.
    pub max_retired: usize,
    /// Board the deterministic worker fault afflicts.
    pub fail_board: usize,
    /// Pass on which the worker fault fires; `None` disarms it.
    pub fail_pass: Option<u64>,
    /// Worker misbehavior: `die` (drop mid-pass) or `hang` (stall for
    /// `hang_ms`; pair with `watchdog_ms` so the stall is declared
    /// dead instead of waited out).
    pub fail_kind: String,
    /// Stall length for `fail_kind = "hang"`, milliseconds.
    pub hang_ms: u64,
}

impl Default for FaultSpec {
    /// No weather, the farm's default ladder budgets, no degrade.
    fn default() -> Self {
        FaultSpec {
            seed: None,
            link_rate: 0.0,
            stuck_link: None,
            watchdog_ms: None,
            max_retries: 3,
            arq_retries: 2,
            local_retries: 2,
            max_retired: 0,
            fail_board: 0,
            fail_pass: None,
            fail_kind: "die".into(),
            hang_ms: 150,
        }
    }
}

impl FaultSpec {
    /// Encodes the block as a JSON object (defaults omitted where the
    /// absence already means the default).
    pub fn to_json(&self) -> Value {
        let mut pairs = Vec::new();
        if let Some(seed) = self.seed {
            pairs.push(("seed".into(), Value::num_u64(seed)));
        }
        pairs.push(("link_rate".into(), Value::Num(self.link_rate)));
        if let Some(b) = self.stuck_link {
            pairs.push(("stuck_link".into(), Value::num_usize(b)));
        }
        if let Some(ms) = self.watchdog_ms {
            pairs.push(("watchdog_ms".into(), Value::num_u64(ms)));
        }
        pairs.push(("max_retries".into(), Value::num_u64(u64::from(self.max_retries))));
        pairs.push(("arq_retries".into(), Value::num_u64(u64::from(self.arq_retries))));
        pairs.push(("local_retries".into(), Value::num_u64(u64::from(self.local_retries))));
        pairs.push(("max_retired".into(), Value::num_usize(self.max_retired)));
        pairs.push(("fail_board".into(), Value::num_usize(self.fail_board)));
        if let Some(p) = self.fail_pass {
            pairs.push(("fail_pass".into(), Value::num_u64(p)));
        }
        pairs.push(("fail_kind".into(), Value::Str(self.fail_kind.clone())));
        pairs.push(("hang_ms".into(), Value::num_u64(self.hang_ms)));
        Value::Obj(pairs)
    }

    /// Decodes a fault block; absent fields take the defaults.
    pub fn from_json(v: &Value) -> Result<FaultSpec, ProtoError> {
        let d = FaultSpec::default();
        let u64_opt = |key: &str| -> Result<Option<u64>, ProtoError> {
            match v.get(key) {
                None | Some(Value::Null) => Ok(None),
                Some(val) => val.as_u64().map(Some).ok_or_else(|| missing(key)),
            }
        };
        let u32_or = |key: &str, default: u32| -> Result<u32, ProtoError> {
            match v.get(key) {
                None => Ok(default),
                Some(val) => {
                    val.as_u64().and_then(|n| u32::try_from(n).ok()).ok_or_else(|| missing(key))
                }
            }
        };
        Ok(FaultSpec {
            seed: u64_opt("seed")?,
            link_rate: match v.get("link_rate") {
                None => d.link_rate,
                Some(val) => val.as_f64().ok_or_else(|| missing("link_rate"))?,
            },
            stuck_link: match v.get("stuck_link") {
                None | Some(Value::Null) => None,
                Some(val) => Some(val.as_usize().ok_or_else(|| missing("stuck_link"))?),
            },
            watchdog_ms: u64_opt("watchdog_ms")?,
            max_retries: u32_or("max_retries", d.max_retries)?,
            arq_retries: u32_or("arq_retries", d.arq_retries)?,
            local_retries: u32_or("local_retries", d.local_retries)?,
            max_retired: match v.get("max_retired") {
                None => d.max_retired,
                Some(val) => val.as_usize().ok_or_else(|| missing("max_retired"))?,
            },
            fail_board: match v.get("fail_board") {
                None => d.fail_board,
                Some(val) => val.as_usize().ok_or_else(|| missing("fail_board"))?,
            },
            fail_pass: u64_opt("fail_pass")?,
            fail_kind: match v.get("fail_kind") {
                None => d.fail_kind,
                Some(val) => {
                    val.as_str().map(str::to_string).ok_or_else(|| missing("fail_kind"))?
                }
            },
            hang_ms: u64_opt("hang_ms")?.unwrap_or(d.hang_ms),
        })
    }
}

/// Everything needed to create a session. `lattice farm` parses its
/// flags into one of these too, so a session spec and a farm
/// invocation describe the same machine.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Gas model: `hpp`, `fhp1`, `fhp2`, `fhp3`.
    pub model: String,
    /// Lattice rows.
    pub rows: usize,
    /// Lattice columns (the sharded axis).
    pub cols: usize,
    /// Init/collision seed.
    pub seed: u64,
    /// Per-channel init density.
    pub density: f64,
    /// Boards.
    pub shards: usize,
    /// Board engine: `wsa` or `spa`.
    pub engine: String,
    /// PEs per WSA stage.
    pub width: usize,
    /// Columns per SPA slice.
    pub slice_width: usize,
    /// Generations per pass (halo width).
    pub depth: usize,
    /// Toroidal boundary.
    pub periodic: bool,
    /// Overlapped halo exchange.
    pub overlap: bool,
    /// Per-link bandwidth throttle in bits/tick (`None` =
    /// unthrottled), as `lattice farm --link-bits`.
    pub link_bits: Option<f64>,
    /// Board-grid shape `(rows, cols)` for 2-D block sharding; `None`
    /// runs the columnar `(1, shards)` layout. Must multiply out to
    /// `shards`.
    pub grid: Option<(usize, usize)>,
    /// Inter-rack (vertical-tier) link throttle in bits/tick, as
    /// `lattice farm --tier-bits`; `None` leaves the tier at the
    /// intra-rack capacity.
    pub tier_bits: Option<f64>,
    /// Seeded hardware-fault weather + recovery-ladder budgets;
    /// `None` runs fault-free under the default ladder.
    pub fault: Option<FaultSpec>,
}

impl Default for SessionSpec {
    /// The `lattice farm` CLI defaults.
    fn default() -> Self {
        SessionSpec {
            model: "fhp1".into(),
            rows: 48,
            cols: 96,
            seed: 42,
            density: DEFAULT_DENSITY,
            shards: 4,
            engine: "wsa".into(),
            width: 2,
            slice_width: 1,
            depth: 2,
            periodic: false,
            overlap: false,
            link_bits: None,
            grid: None,
            tier_bits: None,
            fault: None,
        }
    }
}

impl SessionSpec {
    /// Encodes the spec as a JSON object.
    pub fn to_json(&self) -> Value {
        let mut pairs = vec![
            ("model".into(), Value::Str(self.model.clone())),
            ("rows".into(), Value::num_usize(self.rows)),
            ("cols".into(), Value::num_usize(self.cols)),
            ("seed".into(), Value::num_u64(self.seed)),
            ("density".into(), Value::Num(self.density)),
            ("shards".into(), Value::num_usize(self.shards)),
            ("engine".into(), Value::Str(self.engine.clone())),
            ("width".into(), Value::num_usize(self.width)),
            ("slice_width".into(), Value::num_usize(self.slice_width)),
            ("depth".into(), Value::num_usize(self.depth)),
            ("periodic".into(), Value::Bool(self.periodic)),
            ("overlap".into(), Value::Bool(self.overlap)),
        ];
        if let Some(bits) = self.link_bits {
            pairs.push(("link_bits".into(), Value::Num(bits)));
        }
        if let Some((gr, gc)) = self.grid {
            pairs.push(("grid_rows".into(), Value::num_usize(gr)));
            pairs.push(("grid_cols".into(), Value::num_usize(gc)));
        }
        if let Some(bits) = self.tier_bits {
            pairs.push(("tier_bits".into(), Value::Num(bits)));
        }
        if let Some(fault) = &self.fault {
            pairs.push(("fault".into(), fault.to_json()));
        }
        Value::Obj(pairs)
    }

    /// Decodes a spec from a JSON object; absent fields take the
    /// `lattice farm` defaults.
    pub fn from_json(v: &Value) -> Result<SessionSpec, ProtoError> {
        let d = SessionSpec::default();
        let str_or = |key: &str, default: String| -> Result<String, ProtoError> {
            match v.get(key) {
                None => Ok(default),
                Some(val) => val.as_str().map(str::to_string).ok_or_else(|| missing(key)),
            }
        };
        let usize_or = |key: &str, default: usize| -> Result<usize, ProtoError> {
            match v.get(key) {
                None => Ok(default),
                Some(val) => val.as_usize().ok_or_else(|| missing(key)),
            }
        };
        let bool_or = |key: &str, default: bool| -> Result<bool, ProtoError> {
            match v.get(key) {
                None => Ok(default),
                Some(val) => val.as_bool().ok_or_else(|| missing(key)),
            }
        };
        let link_bits = match v.get("link_bits") {
            None | Some(Value::Null) => None,
            Some(val) => Some(val.as_f64().ok_or_else(|| missing("link_bits"))?),
        };
        let fault = match v.get("fault") {
            None | Some(Value::Null) => None,
            Some(val) => Some(FaultSpec::from_json(val)?),
        };
        let grid = match (v.get("grid_rows"), v.get("grid_cols")) {
            (None, None) | (Some(Value::Null), Some(Value::Null)) => None,
            (Some(gr), Some(gc)) => Some((
                gr.as_usize().ok_or_else(|| missing("grid_rows"))?,
                gc.as_usize().ok_or_else(|| missing("grid_cols"))?,
            )),
            _ => return Err(missing("grid_rows and grid_cols travel together")),
        };
        let tier_bits = match v.get("tier_bits") {
            None | Some(Value::Null) => None,
            Some(val) => Some(val.as_f64().ok_or_else(|| missing("tier_bits"))?),
        };
        Ok(SessionSpec {
            model: str_or("model", d.model)?,
            rows: usize_or("rows", d.rows)?,
            cols: usize_or("cols", d.cols)?,
            seed: match v.get("seed") {
                None => d.seed,
                Some(val) => val.as_u64().ok_or_else(|| missing("seed"))?,
            },
            density: match v.get("density") {
                None => d.density,
                Some(val) => val.as_f64().ok_or_else(|| missing("density"))?,
            },
            shards: usize_or("shards", d.shards)?,
            engine: str_or("engine", d.engine)?,
            width: usize_or("width", d.width)?,
            slice_width: usize_or("slice_width", d.slice_width)?,
            depth: usize_or("depth", d.depth)?,
            periodic: bool_or("periodic", d.periodic)?,
            overlap: bool_or("overlap", d.overlap)?,
            link_bits,
            grid,
            tier_bits,
            fault,
        })
    }
}

/// What a `query` request wants back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    /// The merged machine report counters.
    Report,
    /// Conserved quantities of the current lattice.
    Observables,
    /// A rectangular window of raw site states.
    Region {
        /// First row of the window.
        row0: usize,
        /// First column of the window.
        col0: usize,
        /// Window rows.
        rows: usize,
        /// Window columns.
        cols: usize,
    },
}

/// A client → daemon frame.
///
/// `Create` dwarfs the other variants because it carries the whole
/// [`SessionSpec`] (machine geometry plus the optional fault block),
/// but requests are decoded one at a time per connection frame and
/// never stored in bulk, so the size spread costs nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Create a session (admitted or queued per the scheduler).
    Create {
        /// Session name (checkpoint-store namespace rules).
        session: String,
        /// Machine + lattice description.
        spec: SessionSpec,
    },
    /// Advance a session `n` generations.
    Step {
        /// Target session.
        session: String,
        /// Generations to advance.
        n: u64,
        /// Idempotency token: a retried step carrying the id of an
        /// already-committed step is acknowledged without being
        /// applied again. `None` opts out.
        id: Option<String>,
    },
    /// Read session state without advancing it.
    QueryReq {
        /// Target session.
        session: String,
        /// What to read.
        what: Query,
    },
    /// Force a durable checkpoint commit now.
    Checkpoint {
        /// Target session.
        session: String,
    },
    /// Tear a session down, freeing its link-budget share.
    Destroy {
        /// Target session.
        session: String,
    },
    /// Fleet-wide counters; `watch` samples, one line each.
    Stats {
        /// Number of samples to stream (min 1).
        watch: u64,
    },
    /// Stop the daemon (evicting live sessions to the store first).
    Shutdown,
}

impl Request {
    /// Encodes the request as one JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        self.to_json().render()
    }

    fn to_json(&self) -> Value {
        let obj = |op: &str, rest: Vec<(String, Value)>| {
            let mut pairs = vec![("op".to_string(), Value::Str(op.to_string()))];
            pairs.extend(rest);
            Value::Obj(pairs)
        };
        match self {
            Request::Create { session, spec } => obj(
                "create",
                vec![
                    ("session".into(), Value::Str(session.clone())),
                    ("spec".into(), spec.to_json()),
                ],
            ),
            Request::Step { session, n, id } => {
                let mut rest = vec![
                    ("session".to_string(), Value::Str(session.clone())),
                    ("n".to_string(), Value::num_u64(*n)),
                ];
                if let Some(id) = id {
                    rest.push(("id".into(), Value::Str(id.clone())));
                }
                obj("step", rest)
            }
            Request::QueryReq { session, what } => {
                let mut rest = vec![("session".to_string(), Value::Str(session.clone()))];
                match what {
                    Query::Report => rest.push(("what".into(), Value::Str("report".into()))),
                    Query::Observables => {
                        rest.push(("what".into(), Value::Str("observables".into())));
                    }
                    Query::Region { row0, col0, rows, cols } => {
                        rest.push(("what".into(), Value::Str("region".into())));
                        rest.push(("row0".into(), Value::num_usize(*row0)));
                        rest.push(("col0".into(), Value::num_usize(*col0)));
                        rest.push(("rows".into(), Value::num_usize(*rows)));
                        rest.push(("cols".into(), Value::num_usize(*cols)));
                    }
                }
                obj("query", rest)
            }
            Request::Checkpoint { session } => {
                obj("checkpoint", vec![("session".into(), Value::Str(session.clone()))])
            }
            Request::Destroy { session } => {
                obj("destroy", vec![("session".into(), Value::Str(session.clone()))])
            }
            Request::Stats { watch } => {
                obj("stats", vec![("watch".into(), Value::num_u64(*watch))])
            }
            Request::Shutdown => obj("shutdown", vec![]),
        }
    }

    /// Decodes one request line.
    pub fn from_line(line: &str) -> Result<Request, ProtoError> {
        let v = json::parse(line).map_err(|e| ProtoError(e.to_string()))?;
        Request::from_json(&v)
    }

    fn from_json(v: &Value) -> Result<Request, ProtoError> {
        let op = v.get("op").and_then(Value::as_str).ok_or_else(|| missing("op"))?;
        let session = || -> Result<String, ProtoError> {
            v.get("session")
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| missing("session"))
        };
        match op {
            "create" => {
                let spec = match v.get("spec") {
                    None => SessionSpec::default(),
                    Some(s) => SessionSpec::from_json(s)?,
                };
                Ok(Request::Create { session: session()?, spec })
            }
            "step" => Ok(Request::Step {
                session: session()?,
                n: v.get("n").and_then(Value::as_u64).ok_or_else(|| missing("n"))?,
                id: match v.get("id") {
                    None | Some(Value::Null) => None,
                    Some(val) => {
                        Some(val.as_str().map(str::to_string).ok_or_else(|| missing("id"))?)
                    }
                },
            }),
            "query" => {
                let what = match v.get("what").and_then(Value::as_str).unwrap_or("report") {
                    "report" => Query::Report,
                    "observables" => Query::Observables,
                    "region" => {
                        let field = |key: &str| -> Result<usize, ProtoError> {
                            v.get(key).and_then(Value::as_usize).ok_or_else(|| missing(key))
                        };
                        Query::Region {
                            row0: field("row0")?,
                            col0: field("col0")?,
                            rows: field("rows")?,
                            cols: field("cols")?,
                        }
                    }
                    other => return Err(ProtoError(format!("unknown query `{other}`"))),
                };
                Ok(Request::QueryReq { session: session()?, what })
            }
            "checkpoint" => Ok(Request::Checkpoint { session: session()? }),
            "destroy" => Ok(Request::Destroy { session: session()? }),
            "stats" => Ok(Request::Stats {
                watch: match v.get("watch") {
                    None => 1,
                    Some(w) => w.as_u64().ok_or_else(|| missing("watch"))?.max(1),
                },
            }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(ProtoError(format!("unknown op `{other}`"))),
        }
    }
}

/// One session's merged report counters, as served by `query report`
/// and embedded per session in `stats`. Counters fold in everything
/// committed before the last eviction/restore cycle, so the figures
/// survive the session being swapped out.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportFrame {
    /// Session name.
    pub session: String,
    /// Current absolute generation.
    pub time: u64,
    /// Committed passes.
    pub passes: u64,
    /// Machine wall-clock ticks.
    pub machine_ticks: u64,
    /// Ticks at the halo-exchange barriers.
    pub halo_ticks: u64,
    /// Halo ticks hidden under interior compute (overlap credit).
    pub overlapped_ticks: u64,
    /// Halo ticks spent retransmitting (ARQ share).
    pub retransmit_ticks: u64,
    /// Halo-frame retransmissions answered by ARQ (ladder level 1),
    /// including frames of attempts that later rolled back — the
    /// level-1 term of the conservation set, so `detected ==
    /// retransmits + local_rollbacks + rollbacks + boards_retired`
    /// holds for every healthy session at any fault rate.
    pub retransmits: u64,
    /// Farm-wide rollbacks.
    pub rollbacks: u64,
    /// Single-board rollbacks.
    pub local_rollbacks: u64,
    /// Detected fault events (every ladder entry counts one).
    pub detected: u64,
    /// Boards retired by degraded re-partitioning.
    pub boards_retired: u64,
    /// Checkpoint blobs written (in-memory barriers and durable
    /// commits both count, per shard).
    pub checkpoints: u64,
    /// Useful site updates per second at the paper's 10 MHz clock.
    pub sites_per_sec: f64,
    /// Sustained halo demand, bits per machine tick.
    pub halo_bits_per_tick: f64,
}

/// One session's row in the `stats` frame.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionStat {
    /// Session name.
    pub session: String,
    /// `live`, `queued`, `evicted`, or `poisoned` (quarantined after
    /// an unrecoverable fault; refuses to step until destroyed).
    pub state: String,
    /// Current absolute generation (last committed, for evicted).
    pub time: u64,
    /// Committed passes (carried across evictions).
    pub passes: u64,
    /// Step requests served.
    pub steps: u64,
    /// The session's charge against the link budget, bits/tick.
    pub link_demand: f64,
}

/// The fleet-wide `stats` frame.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsFrame {
    /// Per-session rows, sorted by name.
    pub sessions: Vec<SessionStat>,
    /// Sessions currently resident (engine state in memory).
    pub live: u64,
    /// Sessions waiting for link budget.
    pub queued: u64,
    /// Sessions swapped out to the checkpoint store.
    pub evicted: u64,
    /// Sessions quarantined after an unrecoverable fault.
    pub poisoned: u64,
    /// Aggregate link capacity, bits/tick (`None` = unthrottled).
    pub link_capacity: Option<f64>,
    /// Admitted link demand, bits/tick.
    pub link_admitted: f64,
    /// Admitted demand over capacity (0 when unthrottled).
    pub utilization: f64,
    /// Requests served since startup.
    pub requests: u64,
    /// Step requests served since startup.
    pub steps_served: u64,
}

/// A daemon → client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Session created. `admitted = false` means it is queued behind
    /// the link budget and cannot be stepped yet.
    Created {
        /// Session name.
        session: String,
        /// Whether the scheduler admitted it immediately.
        admitted: bool,
    },
    /// Step committed.
    Stepped {
        /// Session name.
        session: String,
        /// Generation after the step.
        time: u64,
        /// Committed passes so far (carried across evictions).
        passes: u64,
    },
    /// `query report` result.
    Report(ReportFrame),
    /// `query observables` result.
    Observables {
        /// Session name.
        session: String,
        /// Generation measured.
        time: u64,
        /// Total particles.
        mass: u64,
        /// Momentum x-component (model basis).
        px: i64,
        /// Momentum y-component (model basis).
        py: i64,
        /// Obstacle sites.
        obstacles: u64,
    },
    /// `query region` result: raw site states, row-major. On the wire
    /// the sites travel as bit-planes in one hex string (`DESIGN.md`
    /// §15).
    Region {
        /// Session name.
        session: String,
        /// Generation sampled.
        time: u64,
        /// First row of the (clamped) window.
        row0: usize,
        /// First column of the (clamped) window.
        col0: usize,
        /// Window rows after clamping to the lattice.
        rows: usize,
        /// Window columns after clamping.
        cols: usize,
        /// Site states, `rows × cols`, row-major.
        cells: Vec<u8>,
    },
    /// Durable checkpoint committed.
    Checkpointed {
        /// Session name.
        session: String,
        /// Generation stamped on the snapshot.
        time: u64,
    },
    /// Session destroyed; `promoted` lists queued sessions the freed
    /// budget admitted.
    Destroyed {
        /// Session name.
        session: String,
        /// Sessions promoted from the queue, in admission order.
        promoted: Vec<String>,
    },
    /// One `stats` sample.
    Stats(StatsFrame),
    /// Shutdown acknowledged; the daemon exits after this line.
    Bye,
    /// The request failed; the connection stays usable.
    Error {
        /// What went wrong.
        message: String,
    },
}

/// Lowercase hex digits, indexed by nibble.
const HEX: &[u8; 16] = b"0123456789abcdef";

/// A region's sites as bit-planes: the plane count — the checkpoint
/// image's rule, [`planes_needed`] — and one hex string in the
/// [`pack_rows`] layout (each `cols`-site row starts a fresh 64-site
/// word; bit `j` of a row's word `w` is site `64w + j`), planes in
/// order 0, 1, …, each plane's words row by row, every word as 16
/// lowercase hex digits, most significant first. `cells` holds
/// `rows × cols` sites. Only the `planes` planes written are kept, as
/// [`decode_region`] unpacks them.
fn region_sites(cells: &[u8], cols: usize) -> (usize, String) {
    let planes = planes_needed(cells);
    let sites = |s: Shape| Grid::from_vec(s, cells[..s.len()].to_vec());
    let Ok(grid) = Shape::grid2(cells.len() / cols.max(1), cols).and_then(sites) else {
        return (planes, String::new());
    };
    let packed: [Vec<u64>; 8] =
        pack_rows(&grid, |_, _, _| Ok::<_, Infallible>(())).unwrap_or_else(|e| match e {});
    let mut hex = String::with_capacity(planes * packed[0].len() * 16);
    for word in packed[..planes].iter().flatten() {
        for nibble in (0..16).rev() {
            hex.push(char::from(HEX[(word >> (4 * nibble) & 0xF) as usize]));
        }
    }
    (planes, hex)
}

/// Inverse of [`region_sites`]. The hex length must be exactly what
/// `rows`, `cols` and `planes` imply — checked with overflow checks
/// before anything is allocated, so a frame can never size a region
/// larger than four sites per hex digit it carries. Non-hex digits
/// (uppercase included), `planes` outside 1..=8 and set padding bits
/// past a row's last site are each rejected.
fn decode_region(
    rows: usize,
    cols: usize,
    planes: usize,
    hex: &str,
) -> Result<Vec<u8>, ProtoError> {
    let bad = |detail: String| ProtoError(format!("region sites: {detail}"));
    if !(1..=8).contains(&planes) {
        return Err(bad(format!("{planes} planes for 8-bit sites")));
    }
    let overflow = || bad(format!("{rows}×{cols} at {planes} planes overflows"));
    let sites = rows.checked_mul(cols).ok_or_else(overflow)?;
    let wpr = cols.div_ceil(64);
    let plane_words = rows.checked_mul(wpr).ok_or_else(overflow)?;
    let expect = plane_words.checked_mul(16 * planes).ok_or_else(overflow)?;
    if hex.len() != expect {
        return Err(bad(format!(
            "{} hex digits, {rows}×{cols} at {planes} planes implies {expect}",
            hex.len()
        )));
    }
    let Ok(shape) = Shape::grid2(rows, cols) else { return Ok(vec![0; sites]) };
    let mut words: [Vec<u64>; 8] = std::array::from_fn(|_| vec![0; plane_words]);
    for (digits, word) in hex.as_bytes().chunks_exact(16).zip(words.iter_mut().flatten()) {
        *word = hex_word(digits).ok_or_else(|| bad("non-hex digit".into()))?;
    }
    for row in words.iter().flat_map(|plane| plane.chunks_exact(wpr)) {
        if row[wpr - 1] & !tail_mask(cols) != 0 {
            return Err(bad("padding bits set past a row's last site".into()));
        }
    }
    let mut cells = Grid::new(shape);
    unpack_rows(&words, cols, &mut cells);
    Ok(cells.into_vec())
}

/// Sixteen lowercase hex digits as a word, most significant first.
fn hex_word(digits: &[u8]) -> Option<u64> {
    digits.iter().try_fold(0u64, |acc, &d| {
        let nibble = match d {
            b'0'..=b'9' => d - b'0',
            b'a'..=b'f' => d - b'a' + 10,
            _ => return None,
        };
        Some(acc << 4 | u64::from(nibble))
    })
}

impl Response {
    /// Encodes the response as one JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        self.to_json().render()
    }

    fn to_json(&self) -> Value {
        let ok = |kind: &str, rest: Vec<(String, Value)>| {
            let mut pairs = vec![
                ("ok".to_string(), Value::Bool(true)),
                ("kind".to_string(), Value::Str(kind.to_string())),
            ];
            pairs.extend(rest);
            Value::Obj(pairs)
        };
        match self {
            Response::Created { session, admitted } => ok(
                "created",
                vec![
                    ("session".into(), Value::Str(session.clone())),
                    ("admitted".into(), Value::Bool(*admitted)),
                ],
            ),
            Response::Stepped { session, time, passes } => ok(
                "stepped",
                vec![
                    ("session".into(), Value::Str(session.clone())),
                    ("time".into(), Value::num_u64(*time)),
                    ("passes".into(), Value::num_u64(*passes)),
                ],
            ),
            Response::Report(r) => ok(
                "report",
                vec![
                    ("session".into(), Value::Str(r.session.clone())),
                    ("time".into(), Value::num_u64(r.time)),
                    ("passes".into(), Value::num_u64(r.passes)),
                    ("machine_ticks".into(), Value::num_u64(r.machine_ticks)),
                    ("halo_ticks".into(), Value::num_u64(r.halo_ticks)),
                    ("overlapped_ticks".into(), Value::num_u64(r.overlapped_ticks)),
                    ("retransmit_ticks".into(), Value::num_u64(r.retransmit_ticks)),
                    ("retransmits".into(), Value::num_u64(r.retransmits)),
                    ("rollbacks".into(), Value::num_u64(r.rollbacks)),
                    ("local_rollbacks".into(), Value::num_u64(r.local_rollbacks)),
                    ("detected".into(), Value::num_u64(r.detected)),
                    ("boards_retired".into(), Value::num_u64(r.boards_retired)),
                    ("checkpoints".into(), Value::num_u64(r.checkpoints)),
                    ("sites_per_sec".into(), Value::Num(r.sites_per_sec)),
                    ("halo_bits_per_tick".into(), Value::Num(r.halo_bits_per_tick)),
                ],
            ),
            Response::Observables { session, time, mass, px, py, obstacles } => ok(
                "observables",
                vec![
                    ("session".into(), Value::Str(session.clone())),
                    ("time".into(), Value::num_u64(*time)),
                    ("mass".into(), Value::num_u64(*mass)),
                    ("px".into(), Value::num_i64(*px)),
                    ("py".into(), Value::num_i64(*py)),
                    ("obstacles".into(), Value::num_u64(*obstacles)),
                ],
            ),
            Response::Region { session, time, row0, col0, rows, cols, cells } => {
                let (planes, sites) = region_sites(cells, *cols);
                ok(
                    "region",
                    vec![
                        ("session".into(), Value::Str(session.clone())),
                        ("time".into(), Value::num_u64(*time)),
                        ("row0".into(), Value::num_usize(*row0)),
                        ("col0".into(), Value::num_usize(*col0)),
                        ("rows".into(), Value::num_usize(*rows)),
                        ("cols".into(), Value::num_usize(*cols)),
                        ("planes".into(), Value::num_usize(planes)),
                        ("sites".into(), Value::Str(sites)),
                    ],
                )
            }
            Response::Checkpointed { session, time } => ok(
                "checkpointed",
                vec![
                    ("session".into(), Value::Str(session.clone())),
                    ("time".into(), Value::num_u64(*time)),
                ],
            ),
            Response::Destroyed { session, promoted } => ok(
                "destroyed",
                vec![
                    ("session".into(), Value::Str(session.clone())),
                    (
                        "promoted".into(),
                        Value::Arr(promoted.iter().map(|s| Value::Str(s.clone())).collect()),
                    ),
                ],
            ),
            Response::Stats(s) => {
                let sessions = s
                    .sessions
                    .iter()
                    .map(|row| {
                        Value::Obj(vec![
                            ("session".into(), Value::Str(row.session.clone())),
                            ("state".into(), Value::Str(row.state.clone())),
                            ("time".into(), Value::num_u64(row.time)),
                            ("passes".into(), Value::num_u64(row.passes)),
                            ("steps".into(), Value::num_u64(row.steps)),
                            ("link_demand".into(), Value::Num(row.link_demand)),
                        ])
                    })
                    .collect();
                ok(
                    "stats",
                    vec![
                        ("sessions".into(), Value::Arr(sessions)),
                        ("live".into(), Value::num_u64(s.live)),
                        ("queued".into(), Value::num_u64(s.queued)),
                        ("evicted".into(), Value::num_u64(s.evicted)),
                        ("poisoned".into(), Value::num_u64(s.poisoned)),
                        (
                            "link_capacity".into(),
                            match s.link_capacity {
                                Some(c) => Value::Num(c),
                                None => Value::Null,
                            },
                        ),
                        ("link_admitted".into(), Value::Num(s.link_admitted)),
                        ("utilization".into(), Value::Num(s.utilization)),
                        ("requests".into(), Value::num_u64(s.requests)),
                        ("steps_served".into(), Value::num_u64(s.steps_served)),
                    ],
                )
            }
            Response::Bye => ok("bye", vec![]),
            Response::Error { message } => Value::Obj(vec![
                ("ok".into(), Value::Bool(false)),
                ("error".into(), Value::Str(message.clone())),
            ]),
        }
    }

    /// Decodes one response line.
    pub fn from_line(line: &str) -> Result<Response, ProtoError> {
        let v = json::parse(line).map_err(|e| ProtoError(e.to_string()))?;
        Response::from_json(&v)
    }

    fn from_json(v: &Value) -> Result<Response, ProtoError> {
        let ok = v.get("ok").and_then(Value::as_bool).ok_or_else(|| missing("ok"))?;
        if !ok {
            let message = v
                .get("error")
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| missing("error"))?;
            return Ok(Response::Error { message });
        }
        let kind = v.get("kind").and_then(Value::as_str).ok_or_else(|| missing("kind"))?;
        let session = || -> Result<String, ProtoError> {
            v.get("session")
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| missing("session"))
        };
        let u64_field = |key: &str| -> Result<u64, ProtoError> {
            v.get(key).and_then(Value::as_u64).ok_or_else(|| missing(key))
        };
        let usize_field = |key: &str| -> Result<usize, ProtoError> {
            v.get(key).and_then(Value::as_usize).ok_or_else(|| missing(key))
        };
        let f64_field = |key: &str| -> Result<f64, ProtoError> {
            v.get(key).and_then(Value::as_f64).ok_or_else(|| missing(key))
        };
        match kind {
            "created" => Ok(Response::Created {
                session: session()?,
                admitted: v
                    .get("admitted")
                    .and_then(Value::as_bool)
                    .ok_or_else(|| missing("admitted"))?,
            }),
            "stepped" => Ok(Response::Stepped {
                session: session()?,
                time: u64_field("time")?,
                passes: u64_field("passes")?,
            }),
            "report" => Ok(Response::Report(ReportFrame {
                session: session()?,
                time: u64_field("time")?,
                passes: u64_field("passes")?,
                machine_ticks: u64_field("machine_ticks")?,
                halo_ticks: u64_field("halo_ticks")?,
                overlapped_ticks: u64_field("overlapped_ticks")?,
                retransmit_ticks: u64_field("retransmit_ticks")?,
                retransmits: u64_field("retransmits")?,
                rollbacks: u64_field("rollbacks")?,
                local_rollbacks: u64_field("local_rollbacks")?,
                detected: v.get("detected").and_then(Value::as_u64).unwrap_or(0),
                boards_retired: v.get("boards_retired").and_then(Value::as_u64).unwrap_or(0),
                checkpoints: u64_field("checkpoints")?,
                sites_per_sec: f64_field("sites_per_sec")?,
                halo_bits_per_tick: f64_field("halo_bits_per_tick")?,
            })),
            "observables" => Ok(Response::Observables {
                session: session()?,
                time: u64_field("time")?,
                mass: u64_field("mass")?,
                px: v.get("px").and_then(Value::as_i64).ok_or_else(|| missing("px"))?,
                py: v.get("py").and_then(Value::as_i64).ok_or_else(|| missing("py"))?,
                obstacles: u64_field("obstacles")?,
            }),
            "region" => {
                if v.get("cells").is_some() {
                    return Err(ProtoError(
                        "obsolete region shape: a `cells` number array; sites travel as \
                         `planes` + `sites` hex bit-planes"
                            .into(),
                    ));
                }
                let (rows, cols) = (usize_field("rows")?, usize_field("cols")?);
                let sites =
                    v.get("sites").and_then(Value::as_str).ok_or_else(|| missing("sites"))?;
                let cells = decode_region(rows, cols, usize_field("planes")?, sites)?;
                Ok(Response::Region {
                    session: session()?,
                    time: u64_field("time")?,
                    row0: usize_field("row0")?,
                    col0: usize_field("col0")?,
                    rows,
                    cols,
                    cells,
                })
            }
            "checkpointed" => {
                Ok(Response::Checkpointed { session: session()?, time: u64_field("time")? })
            }
            "destroyed" => {
                let promoted = v
                    .get("promoted")
                    .and_then(Value::as_arr)
                    .ok_or_else(|| missing("promoted"))?
                    .iter()
                    .map(|s| s.as_str().map(str::to_string))
                    .collect::<Option<Vec<String>>>()
                    .ok_or_else(|| missing("promoted"))?;
                Ok(Response::Destroyed { session: session()?, promoted })
            }
            "stats" => {
                let rows = v
                    .get("sessions")
                    .and_then(Value::as_arr)
                    .ok_or_else(|| missing("sessions"))?
                    .iter()
                    .map(|row| -> Result<SessionStat, ProtoError> {
                        Ok(SessionStat {
                            session: row
                                .get("session")
                                .and_then(Value::as_str)
                                .map(str::to_string)
                                .ok_or_else(|| missing("sessions[].session"))?,
                            state: row
                                .get("state")
                                .and_then(Value::as_str)
                                .map(str::to_string)
                                .ok_or_else(|| missing("sessions[].state"))?,
                            time: row
                                .get("time")
                                .and_then(Value::as_u64)
                                .ok_or_else(|| missing("sessions[].time"))?,
                            passes: row
                                .get("passes")
                                .and_then(Value::as_u64)
                                .ok_or_else(|| missing("sessions[].passes"))?,
                            steps: row
                                .get("steps")
                                .and_then(Value::as_u64)
                                .ok_or_else(|| missing("sessions[].steps"))?,
                            link_demand: row
                                .get("link_demand")
                                .and_then(Value::as_f64)
                                .ok_or_else(|| missing("sessions[].link_demand"))?,
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Response::Stats(StatsFrame {
                    sessions: rows,
                    live: u64_field("live")?,
                    queued: u64_field("queued")?,
                    evicted: u64_field("evicted")?,
                    poisoned: v.get("poisoned").and_then(Value::as_u64).unwrap_or(0),
                    link_capacity: match v.get("link_capacity") {
                        None | Some(Value::Null) => None,
                        Some(c) => Some(c.as_f64().ok_or_else(|| missing("link_capacity"))?),
                    },
                    link_admitted: f64_field("link_admitted")?,
                    utilization: f64_field("utilization")?,
                    requests: u64_field("requests")?,
                    steps_served: u64_field("steps_served")?,
                }))
            }
            "bye" => Ok(Response::Bye),
            other => Err(ProtoError(format!("unknown response kind `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let frames = [
            Request::Create { session: "a-1".into(), spec: SessionSpec::default() },
            Request::Create {
                session: "b".into(),
                spec: SessionSpec {
                    model: "hpp".into(),
                    link_bits: Some(48.5),
                    periodic: true,
                    overlap: true,
                    ..SessionSpec::default()
                },
            },
            Request::Create {
                session: "c".into(),
                spec: SessionSpec {
                    fault: Some(FaultSpec {
                        seed: Some(9),
                        link_rate: 0.01,
                        stuck_link: Some(1),
                        watchdog_ms: Some(250),
                        max_retired: 1,
                        fail_pass: Some(3),
                        fail_kind: "hang".into(),
                        ..FaultSpec::default()
                    }),
                    ..SessionSpec::default()
                },
            },
            Request::Step { session: "a-1".into(), n: 17, id: None },
            Request::Step { session: "a-1".into(), n: 17, id: Some("req-0007".into()) },
            Request::QueryReq { session: "a-1".into(), what: Query::Report },
            Request::QueryReq { session: "a-1".into(), what: Query::Observables },
            Request::QueryReq {
                session: "a-1".into(),
                what: Query::Region { row0: 1, col0: 2, rows: 3, cols: 4 },
            },
            Request::Checkpoint { session: "a-1".into() },
            Request::Destroy { session: "a-1".into() },
            Request::Stats { watch: 1 },
            Request::Stats { watch: 5 },
            Request::Shutdown,
        ];
        for f in frames {
            let line = f.to_line();
            assert_eq!(Request::from_line(&line).unwrap(), f, "{line}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let frames = [
            Response::Created { session: "s".into(), admitted: false },
            Response::Stepped { session: "s".into(), time: 100, passes: 50 },
            Response::Report(ReportFrame {
                session: "s".into(),
                time: 8,
                passes: 4,
                machine_ticks: 1234,
                halo_ticks: 56,
                overlapped_ticks: 7,
                retransmit_ticks: 0,
                retransmits: 0,
                rollbacks: 1,
                local_rollbacks: 2,
                detected: 3,
                boards_retired: 1,
                checkpoints: 12,
                sites_per_sec: 1.25e7,
                halo_bits_per_tick: 9.75,
            }),
            Response::Observables {
                session: "s".into(),
                time: 8,
                mass: 4096,
                px: -3,
                py: 12,
                obstacles: 0,
            },
            Response::Region {
                session: "s".into(),
                time: 8,
                row0: 0,
                col0: 1,
                rows: 2,
                cols: 3,
                cells: vec![0, 15, 63, 1, 2, 3],
            },
            Response::Checkpointed { session: "s".into(), time: 8 },
            Response::Destroyed { session: "s".into(), promoted: vec!["t".into(), "u".into()] },
            Response::Stats(StatsFrame {
                sessions: vec![SessionStat {
                    session: "s".into(),
                    state: "queued".into(),
                    time: 0,
                    passes: 0,
                    steps: 0,
                    link_demand: 10.5,
                }],
                live: 2,
                queued: 1,
                evicted: 3,
                poisoned: 1,
                link_capacity: Some(512.0),
                link_admitted: 21.0,
                utilization: 0.041015625,
                requests: 99,
                steps_served: 42,
            }),
            Response::Stats(StatsFrame {
                sessions: vec![],
                live: 0,
                queued: 0,
                evicted: 0,
                poisoned: 0,
                link_capacity: None,
                link_admitted: 0.0,
                utilization: 0.0,
                requests: 0,
                steps_served: 0,
            }),
            Response::Bye,
            Response::Error { message: "no such session `x`\nline two".into() },
        ];
        for f in frames {
            let line = f.to_line();
            assert_eq!(Response::from_line(&line).unwrap(), f, "{line}");
        }
    }

    #[test]
    fn spec_defaults_fill_absent_fields() {
        let spec =
            SessionSpec::from_json(&json::parse(r#"{"model":"hpp","rows":8}"#).unwrap()).unwrap();
        assert_eq!(spec.model, "hpp");
        assert_eq!(spec.rows, 8);
        assert_eq!(spec.cols, 96);
        assert_eq!(spec.shards, 4);
        assert_eq!(spec.density, DEFAULT_DENSITY);
        assert_eq!(spec.link_bits, None);
        // An empty create decodes to the full `lattice farm` defaults.
        let r = Request::from_line(r#"{"op":"create","session":"x"}"#).unwrap();
        assert_eq!(r, Request::Create { session: "x".into(), spec: SessionSpec::default() });
        // An empty fault block decodes to the ladder defaults.
        let spec = SessionSpec::from_json(&json::parse(r#"{"fault":{}}"#).unwrap()).unwrap();
        assert_eq!(spec.fault, Some(FaultSpec::default()));
        let spec = SessionSpec::from_json(
            &json::parse(r#"{"fault":{"link_rate":0.25,"arq_retries":0}}"#).unwrap(),
        )
        .unwrap();
        let fault = spec.fault.unwrap();
        assert_eq!(fault.link_rate, 0.25);
        assert_eq!(fault.arq_retries, 0);
        assert_eq!(fault.max_retries, FaultSpec::default().max_retries);
    }

    #[test]
    fn malformed_frames_are_errors_not_panics() {
        for bad in [
            "",
            "not json",
            "{}",
            r#"{"op":"nope"}"#,
            r#"{"op":"step","session":"s"}"#,
            r#"{"op":"step","session":"s","n":-1}"#,
            r#"{"op":"query","session":"s","what":"region","row0":0}"#,
            r#"{"op":"create","session":"s","spec":{"rows":"wide"}}"#,
            r#"{"op":"create","session":"s","spec":{"fault":{"link_rate":"wet"}}}"#,
            r#"{"op":"create","session":"s","spec":{"fault":{"stuck_link":-1}}}"#,
            r#"{"op":"step","session":"s","n":1,"id":7}"#,
            r#"{"ok":true}"#,
            r#"{"ok":true,"kind":"wat"}"#,
            r#"{"ok":false}"#,
        ] {
            assert!(Request::from_line(bad).is_err() || Response::from_line(bad).is_err(), "{bad}");
        }
    }
}
