//! The farm driver: `S` boards evolving one lattice in bulk-synchronous
//! lockstep.
//!
//! Each pass, every board receives its halo frames over the inter-board
//! links ([`crate::link::BoardLink`]: bandwidth-throttled, parity
//! checked), read straight from the committed lattice, then runs its
//! cycle-level engine — a WSA pipeline (§4) or an SPA slice array (§5)
//! — for `k` generations over the halo-augmented slab, on the step's
//! board crew ([`crate::crew`]): board 0 on the calling thread, every
//! other board on the helper that serves it for the whole step. The
//! board reads that slab a row at a time from the lattice, with the
//! received frames laid over it. Board 0 writes its owned sites
//! straight into its own rows of the next lattice; a helper writes its
//! owned window into a buffer the caller copies in, so no host gather
//! copies the lattice at the barrier. A slab
//! augmented with `k` true generation-`t` columns per interior side
//! evolves `k` generations with every owned column bit-exact (boundary
//! pollution travels one column per generation), so the farmed run
//! equals the single-engine reference *exactly*, for HPP and — via the
//! origin-aware stream framing the engines already speak — for
//! coordinate-dependent FHP, on both the null boundary and the torus.
//!
//! A WSA board whose rule supplies a block kernel
//! ([`Rule::evolve_block`]) skips the cycle loop whenever no fault in
//! the plan can fire on the engine chips it would drive
//! ([`FaultPlan::spares`]): halo-link weather leaves it on the fast
//! path. The board computes its block with the kernel and charges the
//! ticks and traffic the cycle engine would count
//! ([`Pipeline::kernel_cost`], DESIGN.md §19). The kernel packs its
//! bit-planes from the board's rows and unpacks only the owned window
//! into the next lattice. A run of passes whose lattices nothing reads
//! between them — no audit, fault plan, watchdog, encoding barrier,
//! overlap or local replay budget without a rollback behind it — goes
//! to each board as one job (`crate::resident`): the board keeps its
//! planes from pass to pass, trades its halo frames as plane words with
//! its neighbours, and the lattice is built once, at the run's end.
//! Every report field is the same either way; only host time moves.
//!
//! The price is redundant halo recompute (each exchanged column is
//! evolved by two boards) and link time at the barrier; the machine
//! report accounts both, which is what the analytical board model in
//! `lattice-vlsi` predicts and `tab_farm_scaling` cross-checks.
//!
//! Every entry point runs the one pass loop, [`FarmSession::step_audited`]:
//! [`LatticeFarm::run`] is a one-step session under a zero recovery
//! budget, [`LatticeFarm::run_with_recovery`] a one-step session under
//! the caller's, and [`LatticeFarm::session_owned`] hands the session to
//! the caller. A checkpoint barrier is encoded only when something can
//! read it: a durable sink, or a ladder level that restores it (a global
//! retry budget or a degrade budget).
//!
//! # The recovery ladder
//!
//! At machine scale the dominant cost of a transient upset is not the
//! flip but how far recovery propagates, so
//! [`LatticeFarm::run_with_recovery`] escalates through four levels,
//! each containing the fault at the layer that detected it:
//!
//! 1. **Link ARQ** — a parity failure on a halo frame retransmits just
//!    that frame ([`BoardLink::transmit_arq`]); the wire never rewinds,
//!    so the retry draws fresh transient weather.
//! 2. **Local rollback** — an engine/audit/watchdog failure on one
//!    board rewinds only that board to the top of the pass and replays
//!    its buffered inbound halos; neighbors stall, they don't rewind.
//! 3. **Global rollback** — when the local budget is exhausted (or the
//!    failure isn't localizable, like a machine-wide audit), all boards
//!    reload the last checkpoint barrier.
//! 4. **Degraded re-partitioning** — a board that exhausts the whole
//!    ladder is retired under a [`FarmDegradeConfig`]: the lattice is
//!    re-partitioned onto the survivors (`lattice_core::shard`), a
//!    fresh barrier is taken, and the run continues slower but exact.
//!
//! Every detection is answered by exactly one ladder action, so
//! `detected == retransmits + local_rollbacks + rollbacks +
//! boards_retired` on any successful run (see
//! [`lattice_engines_sim::RecoveryStats`]).

use crate::crew::{Answer, Crew};
use crate::link::{BoardLink, HaloWindow};
use crate::partition::{
    max_aug_width2d, partition2d, partition2d_checked, sweep_regions2d, Block, Region2d,
};
use crate::resident::{self, BoardRun, RunParams, Stop, Unrun};
use lattice_core::bits::Traffic;
use lattice_core::checkpoint::store::{ShardBlob, SnapshotSink};
use lattice_core::units::{
    u64_from_usize, usize_from_u64, Bits, BitsPerTick, Cells, Hz, Sites, SitesPerSec, SitesPerTick,
    Ticks,
};
use lattice_core::{checkpoint, Grid, LatticeError, RowSink, RowSource, Rule, Shape, State};
use lattice_engines_sim::{
    Component, EngineCost, EngineReport, FaultCtx, FaultPlan, FaultStats, Pipeline, RecoveryStats,
    RunOptions, SpaEngine, SpaRunOptions,
};
use std::ops::{Deref, Range};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which cycle-level engine every board runs over its slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardEngine {
    /// A wide-serial pipeline (§4): `width` PEs per stage, one stage per
    /// generation of the pass.
    Wsa {
        /// PEs per stage (`P`).
        width: usize,
    },
    /// The partitioned architecture (§5): serial slice-PEs side by side.
    /// `slice_width` must divide every board's *augmented* slab width;
    /// `1` (one column per PE, the fully partitioned corner) always
    /// does and is the natural farm choice.
    Spa {
        /// Columns per slice (`W`).
        slice_width: usize,
    },
}

/// How an injected worker fault misbehaves (test/experiment hook).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerFault {
    /// The worker stalls for this many milliseconds before computing —
    /// long enough past the watchdog deadline, the supervisor declares
    /// the board down and its late result is discarded.
    Hang {
        /// Stall length in milliseconds.
        millis: u64,
    },
    /// The worker dies without reporting (models a panic or a dropped
    /// result channel); detected even without a watchdog.
    Die,
}

/// Binds a [`WorkerFault`] to one board at one `(pass, attempt)` epoch,
/// so a single injected hang can be retried cleanly by the ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerFaultSpec {
    /// Physical board whose worker misbehaves.
    pub board: usize,
    /// Logical pass number the fault fires on.
    pub pass: u64,
    /// Board attempt epoch the fault fires on (`0` = first try; a local
    /// or global rollback bumps the epoch, clearing the fault exactly
    /// like re-running real flaky hardware).
    pub attempt: u64,
    /// The misbehavior.
    pub fault: WorkerFault,
}

/// A board-level engine farm over one lattice.
#[derive(Debug, Clone, Copy)]
pub struct LatticeFarm {
    /// Board grid shape `(R, C)`: the lattice is cut into `R` row bands
    /// × `C` column bands, one rectangular block per board. `(1, S)` —
    /// what [`LatticeFarm::new`] builds — is the columnar farm.
    pub grid: (usize, usize),
    /// The engine instantiated on every board.
    pub engine: ShardEngine,
    /// Generations per pass (`k`) — also the halo width each board
    /// imports per pass.
    pub depth: usize,
    /// The intra-rack halo link model: the horizontal (left/right)
    /// exchange, whose frames also carry the corner cells and, at
    /// `R = 1` on the torus, the on-board wrap rows.
    pub link: BoardLink,
    /// The inter-rack halo link model: the vertical (up/down) exchange
    /// between board-grid rows, typically throttled relative to
    /// [`LatticeFarm::link`] (QCDOC-style two-tier interconnect). Idle
    /// at `R = 1`.
    pub link_inter: BoardLink,
    /// Toroidal boundary. Coordinate-dependent rules (FHP) must then be
    /// built `with_wrap` for the lattice, exactly as with
    /// `lattice_engines_sim::halo::run_periodic`.
    pub periodic: bool,
    /// Optional injected worker misbehavior (hang/die), for exercising
    /// the watchdog path deterministically.
    pub worker_fault: Option<WorkerFaultSpec>,
    /// Overlap halo exchange with interior compute: each pass splits
    /// into a boundary sweep (the seam-adjacent columns) and an
    /// interior sweep; the boundary columns are computed first and
    /// their halo frames for pass `n + 1` ship over double-buffered
    /// links ([`HaloWindow`]) while pass `n`'s interior is still
    /// evolving. The next pass barriers on halo *arrival*, so its
    /// transfer time is hidden up to the previous interior sweep:
    /// per-pass machine time becomes `boundary + max(interior, halo)`
    /// instead of `compute + halo`. Results are bit-exact either way.
    pub overlap: bool,
}

/// Per-board cumulative statistics over a farm run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Physical board id (stable across degraded re-partitioning).
    pub shard: usize,
    /// First owned global row (0 for columnar farms).
    pub row0: usize,
    /// Owned rows (the full lattice height for columnar farms).
    pub rows: usize,
    /// First owned global column (final geometry, if re-partitioned).
    pub col0: usize,
    /// Owned columns (final geometry; a retired board keeps the last
    /// slab it owned).
    pub cols: usize,
    /// Site updates performed (halo recompute included).
    pub updates: Sites,
    /// Engine ticks summed over passes.
    pub ticks: Ticks,
    /// Bits imported over this board's halo links.
    pub halo_in_bits: Bits,
    /// Halo frames this board's link retransmitted during committed
    /// passes (ARQ, ladder level 1).
    pub retransmits: u64,
    /// Times this board alone was rewound and replayed (ladder
    /// level 2) — neighbors' counters stay put.
    pub local_rollbacks: u64,
    /// Whether degraded re-partitioning retired this board.
    pub retired: bool,
}

/// A machine-level run summary: the aggregated [`EngineReport`] plus the
/// farm-specific accounting (halo traffic and barrier time).
#[derive(Debug, Clone, PartialEq)]
pub struct FarmReport<S: State> {
    /// The merged machine report: `grid` is the stitched final lattice;
    /// `updates`/`ticks`/traffic/faults aggregate every board via
    /// [`EngineReport::merge`] per pass (parallel composition), then add
    /// across passes (sequential composition). `updates` counts the
    /// halo recompute; see [`FarmReport::useful_updates`].
    pub machine: EngineReport<S>,
    /// Passes through the farm.
    pub passes: u64,
    /// Boards the farm was configured with (retired boards included;
    /// see [`ShardStats::retired`]).
    pub shards: usize,
    /// Per-board breakdown, indexed by physical board id.
    pub per_shard: Vec<ShardStats>,
    /// Inter-board halo traffic (bits out of senders / into receivers),
    /// ARQ retransmissions included — retransmitted bits are real bits.
    pub halo_traffic: Traffic,
    /// Ticks the machine spent in halo exchange at the barriers (the
    /// slowest board's link time, summed over passes), including the
    /// [`FarmReport::retransmit_ticks`] share.
    pub halo_ticks: Ticks,
    /// The share of [`FarmReport::halo_ticks`] spent retransmitting
    /// halo frames — the ARQ term the `lattice-vlsi` farm model adds to
    /// its pass-tick prediction.
    pub retransmit_ticks: Ticks,
    /// The share of [`FarmReport::halo_ticks`] hidden under interior
    /// compute by overlapped exchange (zero when
    /// [`LatticeFarm::overlap`] is off): each pass's staged halo
    /// transfer runs concurrently with the *previous* pass's interior
    /// sweep, so only `min(interior, halo)` of it is free. Subtracted
    /// from the wall clock in [`FarmReport::machine_ticks`].
    pub overlapped_ticks: Ticks,
    /// Halo frames retransmitted during committed passes (frames of
    /// attempts that later rolled back are counted only in
    /// `RecoveryStats::retransmits`).
    pub retransmits: u64,
}

impl<S: State> FarmReport<S> {
    /// The final lattice.
    pub fn grid(&self) -> &Grid<S> {
        &self.machine.grid
    }

    /// Machine wall-clock ticks: compute plus the halo-exchange time
    /// that was actually exposed at the barriers — overlapped exchange
    /// hides [`FarmReport::overlapped_ticks`] of the link time under
    /// interior compute, so per pass the wall clock follows
    /// `boundary + max(interior, halo)` instead of `compute + halo`.
    pub fn machine_ticks(&self) -> Ticks {
        self.machine.ticks + self.halo_ticks.saturating_sub(self.overlapped_ticks)
    }

    /// Lattice-visible updates (`generations × sites`), excluding the
    /// redundant halo recompute counted in `machine.updates`.
    pub fn useful_updates(&self) -> Sites {
        Sites::new(u64_from_usize(self.machine.grid.len())) * self.machine.generations
    }

    /// Useful site updates per machine tick.
    pub fn updates_per_tick(&self) -> SitesPerTick {
        self.useful_updates() / self.machine_ticks()
    }

    /// Useful updates per second at engine clock `clock`.
    pub fn updates_per_second(&self, clock: Hz) -> SitesPerSec {
        self.updates_per_tick() * clock
    }

    /// Sustained inter-board bandwidth demand per machine tick.
    pub fn halo_bits_per_tick(&self) -> BitsPerTick {
        Bits::new(self.halo_traffic.bits_in) / self.machine_ticks()
    }

    /// Work amplification from halo recompute: total updates performed
    /// over useful updates (≥ 1; grows with shards and pass depth).
    pub fn redundancy(&self) -> f64 {
        let useful = self.useful_updates();
        if useful.is_zero() {
            1.0
        } else {
            self.machine.updates.ratio(useful)
        }
    }

    /// Fraction of machine time spent computing (vs halo exchange).
    pub fn compute_fraction(&self) -> f64 {
        if self.machine_ticks().is_zero() {
            1.0
        } else {
            self.machine.ticks.ratio(self.machine_ticks())
        }
    }

    /// Machine PE utilization: useful updates over total PE-ticks
    /// (stalls, fill, and halo recompute all count against it).
    pub fn utilization(&self) -> f64 {
        let pe_ticks = self.machine_ticks().to_f64()
            * f64::from(self.machine.stages)
            * f64::from(self.machine.width);
        if pe_ticks == 0.0 {
            0.0
        } else {
            self.useful_updates().to_f64() / pe_ticks
        }
    }
}

/// Degraded-mode policy: how many boards the farm may retire and
/// re-partition around before giving up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FarmDegradeConfig {
    /// Boards that may be retired over the whole run. Must be smaller
    /// than the shard count — the farm cannot retire its last board.
    pub max_retired: usize,
}

/// Recovery policy for [`LatticeFarm::run_with_recovery`]: the budgets
/// of the four-level escalation ladder.
#[derive(Debug, Clone, Copy)]
pub struct FarmRecoveryConfig {
    /// Farm-wide rollback-and-retry attempts per checkpoint window
    /// (ladder level 3) before degrading or giving up.
    pub max_retries: u32,
    /// Passes between checkpoint barriers (each barrier snapshots every
    /// shard's slab through the real checkpoint codec).
    pub checkpoint_every: u64,
    /// Halo-frame retransmissions per transmit (ladder level 1). `0`
    /// disables ARQ: every link parity failure escalates immediately.
    pub arq_retries: u32,
    /// Single-board rollback-and-replay attempts per board per
    /// checkpoint window (ladder level 2). `0` escalates straight to
    /// farm-wide rollback.
    pub local_retries: u32,
    /// Per-pass worker heartbeat deadline. A board that has not
    /// reported within the deadline is declared down
    /// ([`LatticeError::BoardDown`]) and handled by the ladder like any
    /// other localized failure. `None` waits forever (a dead worker is
    /// still detected when its result channel drops).
    pub watchdog: Option<Duration>,
    /// Degraded re-partitioning (ladder level 4); `None` means a board
    /// that exhausts the ladder fails the run, as the pre-ladder farm
    /// did.
    pub degrade: Option<FarmDegradeConfig>,
}

impl Default for FarmRecoveryConfig {
    fn default() -> Self {
        FarmRecoveryConfig {
            max_retries: 3,
            checkpoint_every: 1,
            arq_retries: 2,
            local_retries: 2,
            watchdog: None,
            degrade: None,
        }
    }
}

impl FarmRecoveryConfig {
    /// No budget at any level: the first detection fails the run, and
    /// no periodic barrier falls due. What [`LatticeFarm::run`] steps
    /// under.
    const NONE: Self = FarmRecoveryConfig {
        max_retries: 0,
        checkpoint_every: u64::MAX,
        arq_retries: 0,
        local_retries: 0,
        watchdog: None,
        degrade: None,
    };

    /// Whether a ladder level can restore a checkpoint barrier: global
    /// rollback (level 3) and retirement (level 4) reload it; ARQ and
    /// local replay never do.
    fn restores(&self) -> bool {
        self.max_retries > 0 || self.degrade.is_some()
    }
}

/// A fault-tolerant farm run: the report plus what recovery did.
#[derive(Debug, Clone)]
pub struct FarmFtRun<S: State> {
    /// The machine-level run summary (fault tallies are in
    /// `report.machine.faults`, retries included).
    pub report: FarmReport<S>,
    /// Recovery actions taken (checkpoints are counted per shard blob).
    pub recovery: RecoveryStats,
}

/// A board's halo exchange, buffered so local retries can replay it:
/// only the received frames, which the board lays over the committed
/// lattice as it reads its augmented block. The horizontal
/// (intra-rack) and vertical (inter-rack) frames cross *different
/// wires*, so their bits and retransmits are billed per tier;
/// `bits`/`retransmits` are the intra-rack figures (the only nonzero
/// ones for a columnar farm).
#[derive(Clone)]
struct ExchangeOutcome<S: State> {
    /// The received halo-column frame: each halo column over the full
    /// augmented height, in [`Augmented::halo_cols`] order. `None` when
    /// no fault can reach the wire: the frame then arrives as the
    /// lattice holds it, and the board reads those sites in place.
    cols: Option<Vec<S>>,
    /// The received halo-row frame: each halo row over the owned
    /// width, in [`Augmented::halo_rows`] order; `None` as for `cols`.
    rows: Option<Vec<S>>,
    bits: Bits,
    retransmits: u32,
    /// Bits over the inter-rack (vertical) tier; zero at `R = 1`.
    bits_inter: Bits,
    /// Retransmits on the inter-rack tier; zero at `R = 1`.
    retransmits_inter: u32,
    traffic: Traffic,
    /// Whether this frame was shipped ahead during the previous pass's
    /// interior sweep (taken from a [`HaloWindow`]) — the condition for
    /// crediting its transfer time as overlapped.
    staged: bool,
}

/// The sender-ahead frame a board stages into its neighbor-facing
/// [`HaloWindow`] during a pass's interior sweep: either the delivered
/// exchange, or the link error its ARQ budget could not clear (which
/// must surface at the *arrival* barrier it belongs to, not the pass
/// that shipped it).
type StagedHalo<S> = HaloWindow<Result<ExchangeOutcome<S>, LatticeError>>;

/// What one board has produced so far within the current pass. The
/// cache state encodes what a retry must redo: a link failure leaves
/// `exchange` empty (re-exchange), an engine/audit failure leaves
/// `exchange` buffered but `costs` empty (replay the buffered halos).
/// `costs` holds one engine cost per sweep region, in
/// [`sweep_regions2d`] order (a single entry when overlap is off).
struct BoardCache<S: State> {
    exchange: Option<ExchangeOutcome<S>>,
    costs: Option<Vec<EngineCost>>,
}

/// One pass's work so far: every board's cache, and the next lattice,
/// into whose owned rows each board writes its result. A local
/// rollback rewrites only the failed board's rows; a global rollback
/// drops the whole cache.
struct PassCache<S: State> {
    boards: Vec<BoardCache<S>>,
    next: Vec<S>,
}

impl<S: State> PassCache<S> {
    fn new(boards: usize, next: Vec<S>) -> Self {
        PassCache {
            boards: (0..boards).map(|_| BoardCache { exchange: None, costs: None }).collect(),
            next,
        }
    }
}

/// `buf` resized to `n` sites, for a writer that overwrites every one
/// of them. In tests the old contents are poisoned first, so the
/// bit-exactness oracles catch any site a pass leaves unwritten.
pub(crate) fn recycle<S: State>(mut buf: Vec<S>, n: usize) -> Vec<S> {
    buf.resize(n, S::default());
    #[cfg(test)]
    buf.fill(S::from_word(u64::MAX));
    buf
}

/// The committed lattice as a job holds it: the caller's own until a
/// session's first pass commits, shared with the board crew after.
pub(crate) enum Committed<'a, S: State> {
    Borrowed(&'a Grid<S>),
    Shared(Arc<Grid<S>>),
}

impl<S: State> Clone for Committed<'_, S> {
    fn clone(&self) -> Self {
        match self {
            Committed::Borrowed(g) => Committed::Borrowed(g),
            Committed::Shared(g) => Committed::Shared(Arc::clone(g)),
        }
    }
}

impl<S: State> Deref for Committed<'_, S> {
    type Target = Grid<S>;

    fn deref(&self) -> &Grid<S> {
        match self {
            Committed::Borrowed(g) => g,
            Committed::Shared(g) => g,
        }
    }
}

impl<S: State> Committed<'_, S> {
    /// The lattice's buffer, if no one else holds it any more.
    fn reclaim(self) -> Option<Vec<S>> {
        match self {
            Committed::Borrowed(_) => None,
            Committed::Shared(g) => Arc::try_unwrap(g).ok().map(Grid::into_vec),
        }
    }

    fn into_grid(self) -> Grid<S> {
        match self {
            Committed::Borrowed(g) => g.clone(),
            Committed::Shared(g) => Arc::try_unwrap(g).unwrap_or_else(|g| Grid::clone(&g)),
        }
    }
}

/// A board's halo-augmented block over the committed lattice, read in
/// place: augmented site `(r, c)` is lattice site
/// `((row_start + r) mod rows, (col_start + c) mod cols)`. On the torus
/// the indexes wrap; null-boundary halos are clamped at the lattice
/// edges, so there they never do.
#[derive(Clone, Copy)]
pub(crate) struct Augmented<'a, S: State> {
    lattice: &'a Grid<S>,
    block: &'a Block,
    /// On-board vertical wrap rows per side.
    wrap: usize,
    row_start: usize,
    col_start: usize,
}

impl<'a, S: State> Augmented<'a, S> {
    pub(crate) fn new(lattice: &'a Grid<S>, block: &'a Block, wrap: usize) -> Self {
        let (rows, cols) = (lattice.shape().rows(), lattice.shape().cols());
        Augmented {
            lattice,
            block,
            wrap,
            row_start: (block.row0 + rows - (wrap + block.halo_up) % rows) % rows,
            col_start: (block.col0 + cols - block.halo_left % cols) % cols,
        }
    }

    /// Augmented rows.
    fn rows(&self) -> usize {
        self.block.aug_height(self.wrap)
    }

    /// The first owned augmented row.
    fn top(&self) -> usize {
        self.wrap + self.block.halo_up
    }

    /// The lattice row under augmented row `r`.
    fn lattice_row(&self, r: usize) -> &'a [S] {
        let shape = self.lattice.shape();
        let cols = shape.cols();
        &self.lattice.as_slice()[wrapped(self.row_start + r, shape.rows()) * cols..][..cols]
    }

    /// The halo columns, in frame order: they span the full augmented
    /// height, so corners and the torus's on-board wrap rows ride them.
    fn halo_cols(&self) -> impl Iterator<Item = usize> {
        let b = self.block;
        (0..b.halo_left).chain(b.halo_left + b.width..b.aug_width())
    }

    /// The halo rows, in frame order: they span only the owned width.
    fn halo_rows(&self) -> impl Iterator<Item = usize> {
        let (b, top) = (self.block, self.top());
        (top - b.halo_up..top).chain(top + b.rows..top + b.rows + b.halo_down)
    }

    /// Copies augmented row `r` from column `a0` on into `row`: at most
    /// three lattice segments on the torus (left halo, body, right
    /// halo), one under the null boundary.
    pub(crate) fn copy_row(&self, r: usize, a0: usize, mut row: &mut [S]) {
        let src = self.lattice_row(r);
        let mut c = wrapped(self.col_start + a0, src.len());
        while !row.is_empty() {
            let take = row.len().min(src.len() - c);
            let (head, rest) = row.split_at_mut(take);
            head.copy_from_slice(&src[c..c + take]);
            (row, c) = (rest, 0);
        }
    }

    /// Sites in the halo-column frame.
    fn column_sites(&self) -> usize {
        (self.block.halo_left + self.block.halo_right) * self.rows()
    }

    /// Sites in the halo-row frame.
    fn row_sites(&self) -> usize {
        (self.block.halo_up + self.block.halo_down) * self.block.width
    }

    /// The halo-column frame as the neighbors send it, read a lattice
    /// row at a time.
    fn column_frame(&self) -> Vec<S> {
        let (rows, cols) = (self.rows(), self.lattice.shape().cols());
        let at: Vec<usize> = self.halo_cols().map(|c| (self.col_start + c) % cols).collect();
        let mut frame = vec![S::default(); at.len() * rows];
        for r in 0..rows {
            let src = self.lattice_row(r);
            for (j, &c) in at.iter().enumerate() {
                frame[j * rows + r] = src[c];
            }
        }
        frame
    }

    /// The halo-row frame as the neighbors send it.
    fn row_frame(&self) -> Vec<S> {
        let owned = self.block.col0..self.block.col_end();
        self.halo_rows().flat_map(|r| self.lattice_row(r)[owned.clone()].iter().copied()).collect()
    }
}

/// Moves one `n`-site halo frame over `link` into board `b` with ARQ,
/// returning the received frame, its bits and the retransmissions it
/// took. A wire no fault can reach would deliver the frame as sent, so
/// it is billed — `n · D` bits each way, `n` stream positions — without
/// being read or moved, and the frame comes back `None`: the board
/// reads those sites in place.
#[allow(clippy::too_many_arguments)]
fn ship<S: State>(
    link: &BoardLink,
    n: usize,
    frame: impl FnOnce() -> Vec<S>,
    b: usize,
    faults: Option<(FaultCtx<'_>, usize)>,
    pos: &mut u64,
    traffic: &mut Traffic,
    arq_retries: u32,
    recovery: &mut RecoveryStats,
) -> Result<(Option<Vec<S>>, Bits, u32), LatticeError> {
    let bits = Bits::for_items(n, <S as State>::BITS);
    let live = faults.filter(|&(ctx, chip)| ctx.stream(Component::Link, chip, 0).is_live());
    if live.is_none() {
        traffic.record_out(u128::from(u64_from_usize(n)), S::BITS);
        traffic.record_in(u128::from(u64_from_usize(n)), S::BITS);
        *pos += u64_from_usize(n);
        return Ok((None, bits, 0));
    }
    let mut retransmits = 0u32;
    let received =
        link.transmit_arq(&frame(), b, live, pos, traffic, arq_retries, &mut retransmits);
    // Every retransmission is one detection the ARQ level already
    // answered; a final failure is the one unanswered detection that
    // escalates to the caller's ladder.
    recovery.detected += u64::from(retransmits);
    recovery.retransmits += u64::from(retransmits);
    Ok((Some(received?), bits, retransmits))
}

/// `i mod n`, without a division for the common `i < n`.
fn wrapped(i: usize, n: usize) -> usize {
    if i < n {
        i
    } else {
        i % n
    }
}

/// One sweep region of a board's augmented block as its engine reads
/// it: each row copied from the committed lattice, with the received
/// halo frames laid over it — so a frame that was corrupted on the wire
/// but passed parity reaches the engine as it arrived.
struct RegionRows<'a, S: State> {
    aug: Augmented<'a, S>,
    ex: &'a ExchangeOutcome<S>,
    region: &'a Region2d,
    shape: Shape,
}

impl<S: State> RowSource<S> for RegionRows<'_, S> {
    fn shape(&self) -> Shape {
        self.shape
    }

    fn fill_row(&self, r: usize, row: &mut [S]) {
        let (b, region) = (self.aug.block, self.region);
        let ar = region.r0 + r;
        let span = region.a0..region.a0 + region.width;
        self.aug.copy_row(ar, region.a0, row);
        if let Some(cols) = &self.ex.cols {
            let aug_rows = self.aug.rows();
            for (j, c) in self.aug.halo_cols().enumerate() {
                if span.contains(&c) {
                    row[c - region.a0] = cols[j * aug_rows + ar];
                }
            }
        }
        let Some(rows) = &self.ex.rows else { return };
        if let Some(j) = self.aug.halo_rows().position(|h| h == ar) {
            let lo = b.halo_left.max(span.start);
            let hi = (b.halo_left + b.width).min(span.end);
            if lo < hi {
                let from = &rows[j * b.width + lo - b.halo_left..][..hi - lo];
                row[lo - region.a0..hi - region.a0].copy_from_slice(from);
            }
        }
    }
}

/// One sweep region's owned window, written straight into the board's
/// rows of the next lattice: region row `r` is owned row
/// `r + region.r0 − top`, region column `c` owned column
/// `c + region.a0 − halo_left`.
pub(crate) struct OwnedRows<'s, 'n, S: State> {
    pub(crate) segs: &'s mut [&'n mut [S]],
    pub(crate) region: &'s Region2d,
    pub(crate) top: usize,
    pub(crate) left: usize,
}

impl<S: State> RowSink<S> for OwnedRows<'_, '_, S> {
    fn window(&self) -> (Range<usize>, Range<usize>) {
        let (g, top, left) = (self.region, self.top, self.left);
        (
            top + g.own_r_lo - g.r0..top + g.own_r_hi - g.r0,
            left + g.own_lo - g.a0..left + g.own_hi - g.a0,
        )
    }

    fn row_mut(&mut self, r: usize) -> &mut [S] {
        let g = self.region;
        &mut self.segs[r + g.r0 - self.top][g.own_lo..g.own_hi]
    }
}

/// Copies the window `sink` keeps out of `grid`, a block of the sink's
/// shape.
fn keep_window<S: State>(grid: &Grid<S>, sink: &mut dyn RowSink<S>) {
    let cols = grid.shape().cols();
    let (rows, window) = sink.window();
    for r in rows {
        sink.row_mut(r).copy_from_slice(&grid.as_slice()[r * cols..][window.clone()]);
    }
}

/// Splits `next` (a lattice `cols` sites wide) into every block's owned
/// rows: entry `i` holds block `i`'s rows top to bottom, `width` sites
/// each. The blocks tile the lattice, so each site goes to one block.
pub(crate) fn owned_rows<'n, S: State>(
    next: &'n mut [S],
    cols: usize,
    blocks: &[Block],
) -> Vec<Vec<&'n mut [S]>> {
    let mut owned: Vec<Vec<&mut [S]>> = blocks.iter().map(|b| Vec::with_capacity(b.rows)).collect();
    let mut by_col: Vec<&Block> = blocks.iter().collect();
    by_col.sort_by_key(|b| b.col0);
    for (r, row) in next.chunks_exact_mut(cols).enumerate() {
        let (mut rest, mut at) = (row, 0);
        for b in by_col.iter().filter(|b| (b.row0..b.row_end()).contains(&r)) {
            let (seg, tail) = std::mem::take(&mut rest)[b.col0 - at..].split_at_mut(b.width);
            owned[b.index].push(seg);
            (rest, at) = (tail, b.col_end());
        }
    }
    owned
}

/// The `rows × width` rectangle of `grid` whose top-left site is
/// `(r0, c0)`, copied row by row.
fn crop<S: State>(
    grid: &Grid<S>,
    (r0, c0): (usize, usize),
    (rows, width): (usize, usize),
) -> Result<Grid<S>, LatticeError> {
    let cols = grid.shape().cols();
    let mut data = Vec::with_capacity(rows * width);
    for row in grid.as_slice().chunks_exact(cols).skip(r0).take(rows) {
        data.extend_from_slice(&row[c0..c0 + width]);
    }
    Grid::from_vec(Shape::grid2(rows, width)?, data)
}

/// Copies the window `rows × span` of `owned`, block `blk`'s owned
/// sites (`blk.width` to a row), into their place in `dst`, a lattice
/// `cols` sites wide, one row segment at a time.
pub(crate) fn paste_window<S: State>(
    dst: &mut [S],
    cols: usize,
    blk: &Block,
    owned: &[S],
    (rows, span): (Range<usize>, Range<usize>),
) {
    for r in rows {
        let (d, o) = ((blk.row0 + r) * cols + blk.col0, r * blk.width);
        dst[d + span.start..d + span.end].copy_from_slice(&owned[o + span.start..o + span.end]);
    }
}

/// Sequential composition of one board's sweep regions within a pass:
/// the regions run back to back on the same silicon, so ticks, updates,
/// and traffic add, while pipeline geometry (`stages`, `width`) and
/// capacity figures stay the board's maxima and `generations` stays the
/// pass depth. The dual of [`EngineReport::merge`], which composes
/// *concurrent* engines (ticks max, stages add).
fn fold_regions(mut costs: Vec<EngineCost>) -> EngineCost {
    let mut folded = costs.remove(0);
    for r in costs {
        folded.generations = folded.generations.max(r.generations);
        folded.updates += r.updates;
        folded.ticks += r.ticks;
        folded.memory_traffic.merge(r.memory_traffic);
        folded.pin_traffic.merge(r.pin_traffic);
        folded.side_traffic.merge(r.side_traffic);
        folded.offchip_sr_traffic.merge(r.offchip_sr_traffic);
        folded.sr_cells_per_stage = folded.sr_cells_per_stage.max(r.sr_cells_per_stage);
        folded.stages = folded.stages.max(r.stages);
        folded.width = folded.width.max(r.width);
        folded.faults.merge(r.faults);
    }
    folded
}

/// Converts a missing cache entry — a supervisor-logic invariant, not a
/// hardware fault — into a localized [`BoardFailure`] instead of a
/// panic, so a supervisor bug degrades into the recovery ladder rather
/// than tearing the farm down.
fn cached<T>(entry: Option<T>, slab: usize, what: &str) -> Result<T, BoardFailure> {
    entry.ok_or_else(|| BoardFailure {
        slab: Some(slab),
        error: LatticeError::Corrupted {
            site: format!("board cache, slab {slab}"),
            detail: format!("{what} missing from the pass cache"),
        },
    })
}

/// A failure inside one pass attempt, localized when possible.
pub(crate) struct BoardFailure {
    /// Slab index the failure is localized to; `None` for machine-wide
    /// failures (the global audit), which skip ladder level 2.
    pub(crate) slab: Option<usize>,
    pub(crate) error: LatticeError,
}

/// What the recovery ladder did about a failure: replay the failed
/// board alone (level 2), or rewind every board to the barrier (levels
/// 3 and 4).
enum Rung {
    Replay,
    Rewind,
}

/// Machine-wide audit callback: `(lattice before, lattice after)` a pass.
type MachineAudit<'f, S> = dyn FnMut(&Grid<S>, &Grid<S>) -> Result<(), LatticeError> + 'f;

/// Per-board audit callback: `(physical board, aug before, aug after)`.
pub type ShardAudit<'f, S> = dyn FnMut(usize, &Grid<S>, &Grid<S>) -> Result<(), LatticeError> + 'f;

/// Geometry and policy shared by every board of one pass attempt.
struct PassParams<'a> {
    k: usize,
    t_now: u64,
    /// End of the whole run — overlap mode needs it to know whether a
    /// next pass exists (and how deep it is) when shipping ahead.
    t_end: u64,
    pass: u64,
    blocks: &'a [Block],
    /// Block index → physical board id (identity until boards retire).
    phys: &'a [usize],
    stride: usize,
    link_chip_base: usize,
    /// Per physical board attempt epochs.
    attempts: &'a [u64],
    arq_retries: u32,
    watchdog: Option<Duration>,
    /// The committed previous pass's interior-sweep time: the window
    /// this pass's (staged) halo transfer was hidden under. Zero when
    /// the previous pass failed, rolled back, or did not stage.
    overlap_credit: Ticks,
}

/// What one board's worker hands back: one engine cost per sweep
/// region, and, when a per-board audit is attached, each region's
/// augmented block before and after.
pub(crate) struct BoardWork<S: State> {
    costs: Vec<EngineCost>,
    audited: Vec<(Grid<S>, Grid<S>)>,
}

impl<S: State> BoardWork<S> {
    /// Room for `regions` regions' results, allocated up front.
    fn with_capacity(regions: usize, audited: bool) -> Self {
        BoardWork {
            costs: Vec::with_capacity(regions),
            audited: Vec::with_capacity(if audited { regions } else { 0 }),
        }
    }
}

/// A board's compute outcome: absent until its worker reports.
type BoardResult<S> = Option<Result<BoardWork<S>, LatticeError>>;

/// One board's work order for a pass: the committed lattice, the
/// board's block and a copy of its buffered exchange, so the order can
/// cross to a crew helper.
pub(crate) struct BoardJob<'a, S: State> {
    lattice: Committed<'a, S>,
    block: Block,
    /// On-board vertical wrap rows per side.
    wrap: usize,
    ex: ExchangeOutcome<S>,
    /// Sweep regions in execution order (boundary first); one full
    /// region when overlap is off.
    regions: Vec<Region2d>,
    ctx: Option<FaultCtx<'a>>,
    origin: (usize, usize),
    chip0: usize,
    phys: usize,
    pass: u64,
    attempt: u64,
    k: usize,
    t0: u64,
    /// Whether a per-board audit wants the augmented blocks back.
    audited: bool,
    /// The board's result vectors, allocated by the supervisor with the
    /// rest of the job; see [`Done::Board`].
    work: BoardWork<S>,
}

/// What a crew helper is handed: one board's pass or resident run,
/// with the buffer it writes the board's owned window into, or one
/// slab's checkpoint encode at a barrier.
pub(crate) enum Job<'a, S: State> {
    Board(Box<BoardJob<'a, S>>, Vec<S>),
    Run(Box<BoardRun<'a, S>>, Vec<S>),
    Save(Committed<'a, S>, Block, u64),
}

/// A helper's answer: the board's work (or how its run ended) and its
/// filled window buffer, or the slab's encoded blob.
///
/// A board's answer also hands its job back, so the supervisor frees
/// the small allocations it made for it (the box, the regions, the
/// frame copies, the result vectors), and the helper frees only what it
/// allocated itself. The allocator caches small freed blocks per
/// thread, whichever thread allocated them: a helper freeing the
/// supervisor's blocks would hand them to its own engine's per-tick
/// state, in cache lines the supervisor's engine writes on the other
/// core. On farm-fine that false sharing cost about a fifth of the
/// throughput (DESIGN.md §19, "The board crew").
pub(crate) enum Done<'a, S: State> {
    Board(Result<BoardWork<S>, LatticeError>, Vec<S>, Box<BoardJob<'a, S>>),
    Run(Result<(), Stop>, Vec<S>, Box<BoardRun<'a, S>>),
    Save(Result<Vec<u8>, LatticeError>),
}

/// What every helper of a step runs on the jobs it is handed.
pub(crate) type Work<'a, S> = dyn Fn(Job<'a, S>) -> Option<Done<'a, S>> + Sync + 'a;

/// The board crew of one [`FarmSession::step`], with the buffers its
/// passes recycle. The supervisor runs block 0 of every pass and the
/// first slab of every barrier itself; helper `h` takes block `h + 1`.
pub(crate) struct StepCrew<'scope, 'env, S: State> {
    pub(crate) crew: Crew<'scope, 'env, Work<'env, S>, Job<'env, S>, Done<'env, S>>,
    /// Helper `h`'s window buffer while it is not out on a job.
    pub(crate) windows: Vec<Vec<S>>,
    /// A lattice buffer nothing reads any more: the one the last commit
    /// or rewind replaced, reused as the next pass's lattice.
    pub(crate) spare: Option<Vec<S>>,
    /// The resident runs' mailboxes, four per block, kept for the step.
    pub(crate) links: Arc<[resident::Mailbox]>,
    /// The next resident run's first mailbox tag: tags never repeat
    /// within a step.
    pub(crate) tags: u64,
    /// Whether a resident run may still be tried: a rule with no kernel
    /// for some block sends the rest of the step down the per-pass path.
    resident: bool,
}

impl<'env, S: State> StepCrew<'_, 'env, S> {
    /// The next pass's lattice buffer: the spare when there is one.
    pub(crate) fn next_lattice(&mut self, n: usize) -> Vec<S> {
        recycle(self.spare.take().unwrap_or_default(), n)
    }

    /// Hands block `i ≥ 1`'s job, built around the helper's window
    /// buffer, to its helper; returns the ticket.
    pub(crate) fn dispatch(&mut self, i: usize, job: impl FnOnce(Vec<S>) -> Job<'env, S>) -> u64 {
        let h = i - 1;
        if self.windows.len() <= h {
            self.windows.resize_with(h + 1, Vec::new);
        }
        let window = std::mem::take(&mut self.windows[h]);
        self.crew.dispatch(h, job(window))
    }

    /// [`save_shard_checkpoints`] with slab `i ≥ 1` encoded by helper
    /// `i − 1` while the supervisor encodes slab 0.
    fn save(
        &mut self,
        lattice: &Committed<'env, S>,
        blocks: &[Block],
        t: u64,
    ) -> Result<Vec<Vec<u8>>, LatticeError> {
        let tickets: Vec<u64> = (1..blocks.len())
            .map(|i| self.crew.dispatch(i - 1, Job::Save(lattice.clone(), blocks[i], t)))
            .collect();
        let first = blocks.first().map(|blk| save_block(lattice, blk, t));
        let rest = self.crew.collect(&tickets, None);
        first
            .into_iter()
            .chain(rest.into_iter().map(|answer| match answer {
                Answer::Done(Done::Save(blob)) => blob,
                _ => Err(LatticeError::Corrupted {
                    site: "farm".into(),
                    detail: "a farm thread panicked".into(),
                }),
            }))
            .collect()
    }
}

/// One pass's bill, before aggregation. `costs` holds the per-board
/// *folded* cost (regions composed sequentially).
struct PassOutcome {
    costs: Vec<EngineCost>,
    halo_traffic: Traffic,
    halo_ticks: Ticks,
    retransmit_ticks: Ticks,
    halo_bits_per_board: Vec<Bits>,
    retransmits_per_board: Vec<u32>,
    /// Slowest board's boundary-sweep time (zero when overlap is off:
    /// the whole sweep is interior).
    boundary_ticks: Ticks,
    /// Slowest board's interior-sweep time — the window the *next*
    /// pass's halo transfer can hide under.
    interior_ticks: Ticks,
    /// The share of this pass's `halo_ticks` that was hidden under the
    /// previous pass's interior sweep: `min(credit, halo_ticks)` when
    /// every frame arrived staged, zero otherwise.
    overlapped_ticks: Ticks,
}

/// Cross-pass accumulators for the machine report. `Clone` so a live
/// [`FarmSession`] can snapshot a mid-run [`FarmReport`] without
/// disturbing the accumulators.
#[derive(Clone)]
struct Totals {
    updates: Sites,
    compute_ticks: Ticks,
    generations: u64,
    memory: Traffic,
    pins: Traffic,
    side: Traffic,
    offchip: Traffic,
    sr: Cells,
    stages: u32,
    width: u32,
    halo_traffic: Traffic,
    halo_ticks: Ticks,
    retransmit_ticks: Ticks,
    overlapped_ticks: Ticks,
    retransmits: u64,
    per_shard: Vec<ShardStats>,
}

impl Totals {
    fn new(blocks: &[Block]) -> Self {
        Totals {
            updates: Sites::ZERO,
            compute_ticks: Ticks::ZERO,
            generations: 0,
            memory: Traffic::new(),
            pins: Traffic::new(),
            side: Traffic::new(),
            offchip: Traffic::new(),
            sr: Cells::ZERO,
            stages: 0,
            width: 0,
            halo_traffic: Traffic::new(),
            halo_ticks: Ticks::ZERO,
            retransmit_ticks: Ticks::ZERO,
            overlapped_ticks: Ticks::ZERO,
            retransmits: 0,
            per_shard: blocks
                .iter()
                .map(|b| ShardStats {
                    shard: b.index,
                    row0: b.row0,
                    rows: b.rows,
                    col0: b.col0,
                    cols: b.width,
                    updates: Sites::ZERO,
                    ticks: Ticks::ZERO,
                    halo_in_bits: Bits::ZERO,
                    retransmits: 0,
                    local_rollbacks: 0,
                    retired: false,
                })
                .collect(),
        }
    }

    /// Folds one pass in: shard reports compose in parallel (via
    /// [`EngineReport::merge`]), passes compose sequentially (ticks and
    /// updates add). The pass's compute time is the boundary barrier
    /// plus the interior barrier — each phase waits on its slowest
    /// board — which reduces to the slowest board's full sweep when
    /// overlap is off. `phys` maps slab index → physical board.
    ///
    /// A link so slow that the machine's tick count (compute plus halo)
    /// no longer fits in a `u64` is a configuration the report cannot
    /// describe: the pass is refused with
    /// [`LatticeError::InvalidConfig`] and nothing is folded in.
    fn absorb(&mut self, out: &PassOutcome, k: u64, phys: &[usize]) -> Result<(), LatticeError> {
        let ticks = (self.compute_ticks.checked_add(out.boundary_ticks + out.interior_ticks))
            .zip(self.halo_ticks.checked_add(out.halo_ticks))
            .filter(|(compute, halo)| compute.checked_add(*halo).is_some());
        let Some((compute_ticks, halo_ticks)) = ticks else {
            return Err(LatticeError::InvalidConfig(
                "the halo links are too slow: the machine's tick count overflows a u64".into(),
            ));
        };
        // The boards' parallel composition, field by field as
        // `EngineReport::merge` folds it (counters add, capacities take
        // the maximum, chips add up across boards), without copying a
        // board lattice.
        let mut pass_stages = 0u32;
        for r in &out.costs {
            self.updates += r.updates;
            self.memory.merge(r.memory_traffic);
            self.pins.merge(r.pin_traffic);
            self.side.merge(r.side_traffic);
            self.offchip.merge(r.offchip_sr_traffic);
            self.sr = self.sr.max(r.sr_cells_per_stage);
            self.width = self.width.max(r.width);
            pass_stages += r.stages;
        }
        self.compute_ticks = compute_ticks;
        self.generations += k;
        self.stages = self.stages.max(pass_stages);
        self.halo_traffic.merge(out.halo_traffic);
        self.halo_ticks = halo_ticks;
        self.retransmit_ticks += out.retransmit_ticks;
        self.overlapped_ticks += out.overlapped_ticks;
        for (i, report) in out.costs.iter().enumerate() {
            let stats = &mut self.per_shard[phys[i]];
            stats.updates += report.updates;
            stats.ticks += report.ticks;
            stats.halo_in_bits += out.halo_bits_per_board[i];
            stats.retransmits += u64::from(out.retransmits_per_board[i]);
            self.retransmits += u64::from(out.retransmits_per_board[i]);
        }
        Ok(())
    }

    /// Re-records the block geometry after a degraded re-partitioning.
    fn regeom(&mut self, blocks: &[Block], phys: &[usize]) {
        for (i, b) in blocks.iter().enumerate() {
            self.per_shard[phys[i]].row0 = b.row0;
            self.per_shard[phys[i]].rows = b.rows;
            self.per_shard[phys[i]].col0 = b.col0;
            self.per_shard[phys[i]].cols = b.width;
        }
    }

    fn finish<S: State>(
        self,
        grid: Grid<S>,
        passes: u64,
        shards: usize,
        faults: FaultStats,
    ) -> FarmReport<S> {
        FarmReport {
            machine: EngineReport {
                grid,
                generations: self.generations,
                updates: self.updates,
                ticks: self.compute_ticks,
                memory_traffic: self.memory,
                pin_traffic: self.pins,
                side_traffic: self.side,
                offchip_sr_traffic: self.offchip,
                sr_cells_per_stage: self.sr,
                stages: self.stages,
                width: self.width,
                faults,
            },
            passes,
            shards,
            per_shard: self.per_shard,
            halo_traffic: self.halo_traffic,
            halo_ticks: self.halo_ticks,
            retransmit_ticks: self.retransmit_ticks,
            overlapped_ticks: self.overlapped_ticks,
            retransmits: self.retransmits,
        }
    }
}

/// One block's slab of `grid` at generation `t`, through the
/// checkpoint codec.
fn save_block<S: State>(grid: &Grid<S>, blk: &Block, t: u64) -> Result<Vec<u8>, LatticeError> {
    let sg = crop(grid, (blk.row0, blk.col0), (blk.rows, blk.width))?;
    Ok(checkpoint::save(&sg, Ticks::new(t)))
}

fn save_shard_checkpoints<S: State>(
    grid: &Grid<S>,
    blocks: &[Block],
    t: u64,
) -> Result<Vec<Vec<u8>>, LatticeError> {
    blocks.iter().map(|blk| save_block(grid, blk, t)).collect()
}

fn load_shard_checkpoints<S: State>(
    blobs: &[Vec<u8>],
    blocks: &[Block],
    shape: Shape,
) -> Result<(Grid<S>, u64), LatticeError> {
    let mut grid = Grid::new(shape);
    let mut time: Option<Ticks> = None;
    for (blob, blk) in blobs.iter().zip(blocks) {
        let (sg, t) = checkpoint::load::<S>(blob)?;
        if *time.get_or_insert(t) != t {
            return Err(LatticeError::Corrupted {
                site: format!("shard {} checkpoint", blk.index),
                detail: "shard checkpoints disagree on generation".into(),
            });
        }
        if sg.shape() != Shape::grid2(blk.rows, blk.width)? {
            return Err(LatticeError::Corrupted {
                site: format!("shard {} checkpoint", blk.index),
                detail: "shard checkpoint does not match its block's shape".into(),
            });
        }
        let owned = (0..blk.rows, 0..blk.width);
        paste_window(grid.as_mut_slice(), shape.cols(), blk, sg.as_slice(), owned);
    }
    Ok((grid, time.unwrap_or(Ticks::ZERO).get()))
}

/// One board's pass: each sweep region read from the committed lattice
/// with the board's received frames laid over it, evolved `k`
/// generations, and its owned window written into `owned`, the board's
/// rows of the next lattice. A WSA board whose chips no fault can reach
/// runs the rule's block kernel ([`Rule::block_kernel`]), built from the
/// region's rows. Every other board — SPA, chips a fault can reach,
/// rules or blocks without a kernel — and every audited board builds
/// each region's augmented block, runs it, and copies the owned window
/// out; an audited board hands those blocks back for the audit.
fn run_board<R: Rule>(
    rule: &R,
    engine: ShardEngine,
    job: &BoardJob<'_, R::S>,
    owned: &mut [&mut [R::S]],
    mut work: BoardWork<R::S>,
) -> Result<BoardWork<R::S>, LatticeError> {
    let (k, t0, audited) = (job.k, job.t0, job.audited);
    let aug = Augmented::new(&job.lattice, &job.block, job.wrap);
    let chips: Vec<usize> = (job.chip0..job.chip0 + k).collect();
    // A board whose chips no fault can reach takes the rule's block
    // kernel when it has one for the block; the counts are the cycle
    // engine's.
    let kernel = match engine {
        ShardEngine::Wsa { width } if job.ctx.is_none_or(|c| c.plan.spares(&chips)) => {
            Some(Pipeline::wide(width, k))
        }
        _ => None,
    };
    for region in &job.regions {
        let src = RegionRows {
            aug,
            ex: &job.ex,
            region,
            shape: Shape::grid2(region.height, region.width)?,
        };
        let mut sink = OwnedRows { segs: owned, region, top: aug.top(), left: job.block.halo_left };
        let origin = (job.origin.0.wrapping_add(region.r0), job.origin.1.wrapping_add(region.a0));
        let cost = kernel.filter(|_| !audited).and_then(|p| p.kernel_cost::<R::S>(src.shape));
        let planes = cost.and_then(|_| rule.block_kernel(&src, t0, origin));
        if let (Some(cost), Some(mut planes)) = (cost, planes) {
            planes.run(u64_from_usize(k));
            planes.unpack(&mut sink);
            work.costs.push(cost);
            continue;
        }
        let before = Grid::from_rows(&src);
        let fast = kernel.filter(|_| audited).and_then(|pipe| {
            let mut after = Grid::new(src.shape);
            pipe.run_kernel(rule, &before, &mut after, t0, origin).map(|cost| cost.with_grid(after))
        });
        let report = match (fast, engine) {
            (Some(report), _) => report,
            (None, ShardEngine::Wsa { width }) => {
                let opts = RunOptions {
                    origin,
                    faults: job.ctx,
                    chip_ids: Some(&chips),
                    offchip_from: None,
                };
                Pipeline::wide(width, k).run_opts(rule, &before, t0, opts)?
            }
            (None, ShardEngine::Spa { slice_width }) => {
                let opts = SpaRunOptions { origin, faults: job.ctx, chip_offset: job.chip0 };
                SpaEngine::new(slice_width, k).run_opts(rule, &before, t0, opts)?
            }
        };
        keep_window(&report.grid, &mut sink);
        work.costs.push(report.cost());
        if audited {
            work.audited.push((before, report.grid));
        }
    }
    Ok(work)
}

/// One board's pass as its worker runs it, injected misbehavior
/// included: `None` when the worker dies before reporting, by an
/// injected [`WorkerFault::Die`] or a panic, which is contained here.
fn work_board<R: Rule>(
    rule: &R,
    engine: ShardEngine,
    fault: Option<WorkerFaultSpec>,
    job: &mut BoardJob<'_, R::S>,
    owned: &mut [&mut [R::S]],
) -> Option<Result<BoardWork<R::S>, LatticeError>> {
    let work = std::mem::replace(&mut job.work, BoardWork::with_capacity(0, false));
    let due = fault.filter(|f| (f.board, f.pass, f.attempt) == (job.phys, job.pass, job.attempt));
    catch_unwind(AssertUnwindSafe(|| {
        match due.map(|f| f.fault) {
            Some(WorkerFault::Hang { millis }) => {
                // Fault *injection*, not lattice state: a hang stalls the
                // worker but the recovery outcome is decided by the
                // watchdog, not by how long this sleeps.
                // lattice-lint: allow(determinism)
                std::thread::sleep(Duration::from_millis(millis))
            }
            Some(WorkerFault::Die) => return None,
            None => {}
        }
        Some(run_board(rule, engine, job, owned, work))
    }))
    .ok()
    .flatten()
}

/// A crew helper's side of a [`Job`]. A board's job goes back with the
/// answer (see [`Done::Board`]).
fn help<'a, R: Rule>(
    rule: &R,
    engine: ShardEngine,
    fault: Option<WorkerFaultSpec>,
    job: Job<'a, R::S>,
) -> Option<Done<'a, R::S>> {
    match job {
        Job::Board(mut job, window) => {
            let width = job.block.width;
            let mut window = recycle(window, job.block.rows * width);
            let mut owned: Vec<&mut [R::S]> = window.chunks_exact_mut(width).collect();
            let work = work_board(rule, engine, fault, &mut job, &mut owned)?;
            drop(owned);
            Some(Done::Board(work, window, job))
        }
        Job::Run(job, window) => Some(resident::help(rule, job, window)),
        Job::Save(lattice, block, t) => Some(Done::Save(save_block(&lattice, &block, t))),
    }
}

impl LatticeFarm {
    /// A farm of `shards` boards — the single-row grid `(1, shards)` —
    /// running `engine` at `depth` generations per pass, with
    /// unthrottled links and the null boundary.
    pub fn new(shards: usize, engine: ShardEngine, depth: usize) -> Self {
        LatticeFarm {
            grid: (1, shards),
            engine,
            depth,
            link: BoardLink::unthrottled(),
            link_inter: BoardLink::unthrottled(),
            periodic: false,
            worker_fault: None,
            overlap: false,
        }
    }

    /// Reshapes the farm onto an `R × C` board grid of `R · C` boards:
    /// each board owns a rectangular block, exchanging halo columns over
    /// the intra-rack tier and halo rows over the inter-rack tier.
    /// `(1, shards)` is the columnar farm.
    pub fn with_grid(mut self, grid_rows: usize, grid_cols: usize) -> Self {
        self.grid = (grid_rows, grid_cols);
        self
    }

    /// Boards in the farm, `R · C` (retired boards included).
    pub fn shards(&self) -> usize {
        self.grid.0 * self.grid.1
    }

    /// Replaces the inter-rack (vertical) link model only, leaving the
    /// intra-rack tier as configured — the two-tier QCDOC shape where
    /// rack-to-rack wires are narrower than backplane wires.
    pub fn with_tier_link(mut self, link_inter: BoardLink) -> Self {
        self.link_inter = link_inter;
        self
    }

    /// Enables (or disables) overlapped halo exchange: boundary sweeps
    /// first, next-pass frames shipped during the interior sweep over
    /// double-buffered links, barrier on arrival. Bit-exact either way;
    /// only the tick accounting changes. SPA boards require
    /// `slice_width == 1` under overlap (the sweep regions are not
    /// generally slice-aligned).
    pub fn with_overlap(mut self, overlap: bool) -> Self {
        self.overlap = overlap;
        self
    }

    /// Replaces the inter-board link model on *both* tiers (a uniform
    /// wire); follow with [`LatticeFarm::with_tier_link`] to throttle
    /// the inter-rack tier separately.
    pub fn with_link(mut self, link: BoardLink) -> Self {
        self.link = link;
        self.link_inter = link;
        self
    }

    /// Selects the toroidal boundary.
    pub fn with_periodic(mut self, periodic: bool) -> Self {
        self.periodic = periodic;
        self
    }

    /// Injects a worker misbehavior (hang/die) at one board and epoch —
    /// the deterministic way to exercise the watchdog.
    pub fn with_worker_fault(mut self, spec: WorkerFaultSpec) -> Self {
        self.worker_fault = Some(spec);
        self
    }

    fn validate<S: State>(&self, grid: &Grid<S>) -> Result<(), LatticeError> {
        if grid.shape().rank() != 2 {
            return Err(LatticeError::InvalidConfig("a farm shards a 2-D lattice".into()));
        }
        if self.depth == 0 {
            return Err(LatticeError::InvalidConfig("farm pass depth must be ≥ 1".into()));
        }
        if self.grid.0 == 0 || self.grid.1 == 0 {
            return Err(LatticeError::InvalidConfig(
                "a board grid needs ≥ 1 row and column".into(),
            ));
        }
        match self.engine {
            ShardEngine::Wsa { width: 0 } => {
                return Err(LatticeError::InvalidConfig("WSA boards need width ≥ 1".into()));
            }
            ShardEngine::Spa { slice_width: 0 } => {
                return Err(LatticeError::InvalidConfig("SPA boards need slice width ≥ 1".into()));
            }
            ShardEngine::Spa { slice_width } if self.overlap && slice_width != 1 => {
                return Err(LatticeError::InvalidConfig(
                    "overlapped exchange needs SPA slice width 1: boundary and interior \
                     sweep regions are not generally slice-aligned"
                        .into(),
                ));
            }
            _ => {}
        }
        Ok(())
    }

    /// Board-grid shape at `shards` live boards: the configured grid at
    /// full strength, a columnar `(1, shards)` layout once degraded
    /// re-partitioning has retired boards (level 4 is gated to
    /// single-row grids, so the reshape is always columnar).
    fn grid_at(&self, shards: usize) -> (usize, usize) {
        if shards == self.shards() {
            self.grid
        } else {
            (1, shards)
        }
    }

    /// On-board vertical wrap depth at pass depth `k`: a single-row
    /// board grid keeps the torus's vertical wrap on board (exactly the
    /// columnar farm's augmented rows); a multi-row grid imports wrap
    /// rows as ordinary halo rows over the inter-rack links instead.
    fn wrap_at(&self, grid_rows: usize, k: usize) -> usize {
        if self.periodic && grid_rows == 1 {
            k
        } else {
            0
        }
    }

    /// The block layout at `shards` live boards and pass depth `k`.
    fn blocks_at(
        &self,
        rows: usize,
        cols: usize,
        shards: usize,
        k: usize,
    ) -> Result<Vec<Block>, LatticeError> {
        let (gr, gc) = self.grid_at(shards);
        partition2d(rows, cols, gr, gc, k, self.periodic)
    }

    /// Physical chips per board at `shards` boards: board `b` owns chip
    /// ids `[b·stride, (b+1)·stride)`, stable across passes (the final
    /// shallow pass uses a prefix), so stuck-at faults follow silicon.
    fn chip_stride_at(
        &self,
        rows: usize,
        cols: usize,
        shards: usize,
    ) -> Result<usize, LatticeError> {
        Ok(match self.engine {
            ShardEngine::Wsa { .. } => self.depth,
            ShardEngine::Spa { slice_width } => {
                let (gr, gc) = self.grid_at(shards);
                let max_aug = max_aug_width2d(rows, cols, gr, gc, self.depth, self.periodic)?;
                self.depth * max_aug.div_ceil(slice_width)
            }
        })
    }

    /// The chip stride sized for every shard count the farm can reach:
    /// degraded re-partitioning widens slabs, and chip ids must not
    /// move when it does, or stuck-at faults would jump between boards.
    fn chip_stride_range(
        &self,
        rows: usize,
        cols: usize,
        smin: usize,
    ) -> Result<usize, LatticeError> {
        let mut stride = 0usize;
        for s in smin..=self.shards() {
            stride = stride.max(self.chip_stride_at(rows, cols, s)?);
        }
        Ok(stride)
    }

    /// Moves one board's halo frames across its links (with ARQ),
    /// reading them straight from the lattice `aug` sits on: halo
    /// *columns* — the full augmented height, corners included — on
    /// the intra-rack tier, halo *rows* (owned width only, so corner
    /// sites are billed once) on the inter-rack tier. Only the received
    /// frames are kept. Shared by the arrival-barrier exchange and the
    /// overlap mode's ship-ahead staging — the same code path, so the
    /// two can never disagree on frame contents, parity, or the links'
    /// fault-stream positions.
    #[allow(clippy::too_many_arguments)]
    fn exchange_board<S: State>(
        &self,
        aug: Augmented<'_, S>,
        b: usize,
        ctx: Option<FaultCtx<'_>>,
        link_chip_base: usize,
        pos: &mut u64,
        pos_inter: &mut u64,
        arq_retries: u32,
        recovery: &mut RecoveryStats,
        staged: bool,
    ) -> Result<ExchangeOutcome<S>, LatticeError> {
        let mut traffic = Traffic::new();
        // Halo columns cross the intra-rack tier; owned columns stay on
        // board.
        let (cols, bits, retransmits) = ship(
            &self.link,
            aug.column_sites(),
            || aug.column_frame(),
            b,
            ctx.map(|ctx| (ctx, link_chip_base + b)),
            pos,
            &mut traffic,
            arq_retries,
            recovery,
        )?;
        // Halo rows (owned width only — the corners already crossed in
        // the column frames) cross the inter-rack tier. A single-row
        // board grid has no vertical seams, so this tier stays idle and
        // the columnar farm's byte-for-byte behavior is preserved.
        let (rows, bits_inter, retransmits_inter) = match aug.row_sites() {
            0 => (None, Bits::ZERO, 0),
            n => ship(
                &self.link_inter,
                n,
                || aug.row_frame(),
                b,
                ctx.map(|ctx| (ctx, link_chip_base + self.shards() + b)),
                pos_inter,
                &mut traffic,
                arq_retries,
                recovery,
            )?,
        };
        Ok(ExchangeOutcome {
            cols,
            rows,
            bits,
            bits_inter,
            retransmits,
            retransmits_inter,
            traffic,
            staged,
        })
    }

    /// One attempt at a bulk-synchronous superstep: halo *arrival* (a
    /// staged frame from the previous pass's ship-ahead, or a barrier
    /// exchange with ARQ) for every board lacking a buffered frame,
    /// concurrent compute (with watchdog) for every board lacking a
    /// cost — block 0 on this thread, straight into its rows of the
    /// next lattice, every other block on its crew helper, whose owned
    /// window is then copied in; boundary sweep regions first — then
    /// (in overlap mode) the next pass's frames ship while the interior
    /// regions evolve, and the per-board audit, if attached, checks each
    /// fresh board. Clean per-board work is cached in `cache`, so
    /// retrying after a localized failure redoes only the failed
    /// board's work — that containment *is* ladder level 2.
    #[allow(clippy::too_many_arguments)]
    fn attempt_pass<'env, R: Rule>(
        &self,
        rule: &R,
        grid: &Committed<'env, R::S>,
        pp: &PassParams<'_>,
        plan: Option<&'env FaultPlan>,
        halo_pos: &mut [u64],
        halo_pos_inter: &mut [u64],
        cache: &mut PassCache<R::S>,
        windows: &mut [StagedHalo<R::S>],
        recovery: &mut RecoveryStats,
        mut shard_audit: Option<&mut ShardAudit<'_, R::S>>,
        crew: &mut StepCrew<'_, 'env, R::S>,
    ) -> Result<(Grid<R::S>, PassOutcome), BoardFailure> {
        let shape = grid.shape();
        let (rows, cols) = (shape.rows(), shape.cols());
        let grid_rows = if pp.blocks.is_empty() {
            1
        } else {
            pp.blocks.iter().map(|b| b.grid_row).max().unwrap_or(0) + 1
        };
        let wrap = self.wrap_at(grid_rows, pp.k);

        // Phase 1 — halo arrival for boards without a buffered frame:
        // claim the staged (shipped-ahead) frame if one is in the
        // window, otherwise exchange at the barrier, serialized.
        for block in pp.blocks {
            let i = block.index;
            if cache.boards[i].exchange.is_some() {
                continue;
            }
            let b = pp.phys[i];
            let fail = |error: LatticeError| BoardFailure { slab: Some(i), error };
            let staged = windows[b].take(pp.pass).map_err(fail)?;
            let ex = match staged {
                Some(frame) => frame.map_err(fail)?,
                None => {
                    let ctx = plan.map(|p| {
                        FaultCtx::for_shard(p, u64_from_usize(b), pp.pass, pp.attempts[b])
                    });
                    self.exchange_board(
                        Augmented::new(grid, block, wrap),
                        b,
                        ctx,
                        pp.link_chip_base,
                        &mut halo_pos[b],
                        &mut halo_pos_inter[b],
                        pp.arq_retries,
                        recovery,
                        false,
                    )
                    .map_err(fail)?
                }
            };
            cache.boards[i].exchange = Some(ex);
        }

        // Phase 2 — boards without a cost compute concurrently, one
        // engine sub-run per sweep region (boundary regions first):
        // helpers first, so they start while this thread runs block 0.
        if cache.next.len() != shape.len() {
            cache.next = recycle(std::mem::take(&mut cache.next), shape.len());
        }
        let mut own = None;
        let mut handed = Vec::with_capacity(pp.blocks.len());
        for block in pp.blocks {
            let i = block.index;
            if cache.boards[i].costs.is_some() {
                continue;
            }
            let b = pp.phys[i];
            let ex = cached(cache.boards[i].exchange.as_ref(), i, "halo exchange")?;
            let regions = sweep_regions2d(block, pp.k, self.overlap, wrap);
            let audited = shard_audit.is_some();
            let work = BoardWork::with_capacity(regions.len(), audited);
            let job = BoardJob {
                lattice: grid.clone(),
                block: *block,
                wrap,
                ex: ex.clone(),
                work,
                regions,
                ctx: plan
                    .map(|p| FaultCtx::for_shard(p, u64_from_usize(b), pp.pass, pp.attempts[b])),
                origin: (
                    block.row0.wrapping_sub(wrap + block.halo_up),
                    block.col0.wrapping_sub(block.halo_left),
                ),
                chip0: b * pp.stride,
                phys: b,
                pass: pp.pass,
                attempt: pp.attempts[b],
                k: pp.k,
                t0: pp.t_now,
                audited,
            };
            if i == 0 {
                own = Some(job);
            } else {
                handed.push((i, crew.dispatch(i, |w| Job::Board(Box::new(job), w))));
            }
        }
        let mut results: Vec<BoardResult<R::S>> = (0..pp.blocks.len()).map(|_| None).collect();
        // The watchdog clock bounds *wall time to detection*; which
        // boards are retired (and every lattice bit) is decided by the
        // deterministic retry ladder.
        // lattice-lint: allow(determinism)
        let deadline = pp.watchdog.map(|d| Instant::now() + d);
        let mut timed_out = false;
        if let Some(mut job) = own {
            let mut owned = owned_rows(&mut cache.next, cols, &pp.blocks[..1]);
            let work = work_board(rule, self.engine, self.worker_fault, &mut job, &mut owned[0]);
            // A board that reports after the deadline has missed it,
            // whichever thread it ran on.
            // lattice-lint: allow(determinism)
            if deadline.is_some_and(|dl| Instant::now() >= dl) {
                timed_out = true;
            } else {
                results[0] = work;
            }
        }
        let tickets: Vec<u64> = handed.iter().map(|&(_, t)| t).collect();
        for (&(i, _), answer) in handed.iter().zip(crew.crew.collect(&tickets, deadline)) {
            match answer {
                Answer::Done(Done::Board(work, window, _job)) => {
                    let b = &pp.blocks[i];
                    if work.is_ok() {
                        paste_window(&mut cache.next, cols, b, &window, (0..b.rows, 0..b.width));
                    }
                    crew.windows[i - 1] = window;
                    results[i] = Some(work);
                }
                Answer::Missed => timed_out = true,
                Answer::Died | Answer::Done(_) => {}
            }
        }

        // Accept every clean board (neighbors must not redo work when
        // one board fails), audit each fresh one region by region when
        // an audit is attached, and surface the first failure in slab
        // order.
        let mut failure: Option<BoardFailure> = None;
        for block in pp.blocks {
            let i = block.index;
            if cache.boards[i].costs.is_some() {
                continue;
            }
            let b = pp.phys[i];
            match results[i].take() {
                Some(Ok(work)) => {
                    let verdict = match shard_audit.as_deref_mut() {
                        Some(audit) => work
                            .audited
                            .iter()
                            .try_for_each(|(before, after)| audit(b, before, after)),
                        None => Ok(()),
                    };
                    match verdict {
                        Ok(()) => cache.boards[i].costs = Some(work.costs),
                        Err(e) => {
                            failure.get_or_insert(BoardFailure { slab: Some(i), error: e });
                        }
                    }
                }
                Some(Err(e)) => {
                    failure.get_or_insert(BoardFailure { slab: Some(i), error: e });
                }
                None => {
                    let cause = if timed_out {
                        "missed the watchdog deadline"
                    } else {
                        "worker died before reporting"
                    };
                    failure.get_or_insert(BoardFailure {
                        slab: Some(i),
                        error: LatticeError::BoardDown { shard: b, cause: cause.into() },
                    });
                }
            }
        }
        if let Some(f) = failure {
            return Err(f);
        }

        // Phase 3 — settle the bill.
        let mut costs = Vec::with_capacity(pp.blocks.len());
        for block in pp.blocks {
            costs.push(cached(
                cache.boards[block.index].costs.take(),
                block.index,
                "engine costs",
            )?);
        }
        let mut boards = Vec::with_capacity(pp.blocks.len());
        for (block, costs) in pp.blocks.iter().zip(costs) {
            let ex =
                cached(cache.boards[block.index].exchange.as_ref(), block.index, "halo exchange")?;
            boards.push((block, ex, costs));
        }
        let bill = self.settle(boards, pp.k, wrap, pp.overlap_credit);
        let next = Grid::from_vec(shape, std::mem::take(&mut cache.next))
            .map_err(|e| BoardFailure { slab: None, error: e })?;

        // Ship ahead: with another pass coming, read the next pass's
        // halo frames from the next lattice — their contents are fully
        // determined by the boundary sweeps — move them over the links
        // now (this is the transfer the next pass's `overlap_credit`
        // hides), and stage them in the double-buffer windows for the
        // arrival barrier to claim. A frame whose ARQ budget exhausts is
        // staged as the error itself: it must surface at the barrier it
        // belongs to.
        if self.overlap && pp.t_now + u64_from_usize(pp.k) < pp.t_end {
            let t_next = pp.t_now + u64_from_usize(pp.k);
            let k_next = self.depth.min(usize_from_u64(pp.t_end - t_next));
            let blocks_next = self
                .blocks_at(rows, cols, pp.blocks.len(), k_next)
                .map_err(|e| BoardFailure { slab: None, error: e })?;
            let wrap_next = self.wrap_at(grid_rows, k_next);
            for block in &blocks_next {
                let i = block.index;
                let b = pp.phys[i];
                let ctx = plan.map(|p| {
                    FaultCtx::for_shard(p, u64_from_usize(b), pp.pass + 1, pp.attempts[b])
                });
                let frame = self.exchange_board(
                    Augmented::new(&next, block, wrap_next),
                    b,
                    ctx,
                    pp.link_chip_base,
                    &mut halo_pos[b],
                    &mut halo_pos_inter[b],
                    pp.arq_retries,
                    recovery,
                    true,
                );
                windows[b]
                    .stage(pp.pass + 1, frame)
                    .map_err(|e| BoardFailure { slab: Some(i), error: e })?;
            }
        }
        Ok((next, bill))
    }

    /// Settles one pass's bill: the barrier's link time (the slowest
    /// board, retransmissions included), and the compute time split into
    /// the boundary and interior barriers. `boards` holds each block
    /// with its exchange and its per-region engine costs, in block order.
    fn settle<S: State>(
        &self,
        boards: Vec<(&Block, &ExchangeOutcome<S>, Vec<EngineCost>)>,
        k: usize,
        wrap: usize,
        overlap_credit: Ticks,
    ) -> PassOutcome {
        let mut halo_traffic = Traffic::new();
        let mut halo_ticks = Ticks::ZERO;
        let mut base_ticks = Ticks::ZERO;
        let mut boundary_ticks = Ticks::ZERO;
        let mut interior_ticks = Ticks::ZERO;
        let mut all_staged = true;
        let mut halo_bits_per_board = Vec::with_capacity(boards.len());
        let mut retransmits_per_board = Vec::with_capacity(boards.len());
        let mut costs = Vec::with_capacity(boards.len());
        for (block, ex, region_costs) in boards {
            halo_traffic.merge(ex.traffic);
            // The two tiers are separate wires, so a board's halo wait
            // is the slower tier, retransmissions included; the barrier
            // then waits for the slowest board.
            let base = self.link.transfer_ticks(ex.bits);
            let base_v = self.link_inter.transfer_ticks(ex.bits_inter);
            // Saturating: a wait past `u64::MAX` ticks stays there, and
            // `Totals::absorb` refuses the pass.
            let full = |t: Ticks, retransmits: u32| {
                Ticks::new(t.get().saturating_mul(1 + u64::from(retransmits)))
            };
            let board_full = full(base, ex.retransmits).max(full(base_v, ex.retransmits_inter));
            halo_ticks = halo_ticks.max(board_full);
            base_ticks = base_ticks.max(base.max(base_v));
            all_staged &= ex.staged;
            halo_bits_per_board.push(ex.bits + ex.bits_inter);
            retransmits_per_board.push(ex.retransmits + ex.retransmits_inter);
            let regions = sweep_regions2d(block, k, self.overlap, wrap);
            let mut board_boundary = Ticks::ZERO;
            let mut board_interior = Ticks::ZERO;
            for (region, cost) in regions.iter().zip(&region_costs) {
                if region.boundary {
                    board_boundary += cost.ticks;
                } else {
                    board_interior += cost.ticks;
                }
            }
            boundary_ticks = boundary_ticks.max(board_boundary);
            interior_ticks = interior_ticks.max(board_interior);
            costs.push(fold_regions(region_costs));
        }
        // A staged transfer ran concurrently with the previous pass's
        // interior sweep, so up to that much of it is already paid for.
        let overlapped_ticks =
            if all_staged { halo_ticks.min(overlap_credit) } else { Ticks::ZERO };
        PassOutcome {
            costs,
            halo_traffic,
            halo_ticks,
            retransmit_ticks: halo_ticks - base_ticks,
            halo_bits_per_board,
            retransmits_per_board,
            boundary_ticks,
            interior_ticks,
            overlapped_ticks,
        }
    }

    /// Runs `generations` of `rule` over `grid` starting at generation
    /// `t0`, in passes of the configured depth (the final pass may be
    /// shallower): a one-step session under a zero recovery budget, so
    /// it borrows `grid`, takes no checkpoint barrier, and fails on the
    /// first detection. Nothing reads the lattice between its passes, so
    /// kernel boards run them as one resident run.
    ///
    /// Bit-exactness contract: equals the reference
    /// `lattice_core::evolve` under the farm's boundary.
    pub fn run<R: Rule>(
        &self,
        rule: &R,
        grid: &Grid<R::S>,
        t0: u64,
        generations: u64,
    ) -> Result<FarmReport<R::S>, LatticeError> {
        let none = FarmRecoveryConfig::NONE;
        let mut session =
            self.session_inner(Committed::Borrowed(grid), t0, PlanRef::None, &none, None)?;
        session.step(rule, generations)?;
        Ok(session.finish()?.report)
    }

    /// [`LatticeFarm::run`] hardened against hardware faults through the
    /// four-level escalation ladder (see the module docs): link ARQ,
    /// then single-board rollback-and-replay, then farm-wide rollback
    /// to the last checkpoint barrier, then degraded re-partitioning —
    /// each level bounded by its [`FarmRecoveryConfig`] budget, and
    /// every recovered run bit-exact against the fault-free reference.
    ///
    /// `audit` checks the whole machine lattice each pass (e.g. a
    /// conservation law); its failures cannot be localized to a board,
    /// so they skip straight to ladder level 3. For per-board checks
    /// use [`LatticeFarm::run_with_recovery_audited`].
    #[allow(clippy::too_many_arguments)]
    pub fn run_with_recovery<R: Rule>(
        &self,
        rule: &R,
        grid: &Grid<R::S>,
        t0: u64,
        generations: u64,
        plan: Option<&FaultPlan>,
        cfg: &FarmRecoveryConfig,
        audit: impl FnMut(&Grid<R::S>, &Grid<R::S>) -> Result<(), LatticeError>,
    ) -> Result<FarmFtRun<R::S>, LatticeError> {
        self.run_with_recovery_audited(rule, grid, t0, generations, plan, cfg, audit, None, None)
    }

    /// [`LatticeFarm::run_with_recovery`] with an additional per-board
    /// audit and optional persistence.
    ///
    /// `shard_audit(board, aug_before, aug_after)`, when attached,
    /// checks one board's halo-augmented block across its `k`
    /// generations; only then does a board build those blocks. Because its
    /// verdict names the board, a violation is handled by ladder level 2
    /// — that board alone rolls back and replays its buffered halos —
    /// which is how silent (parity-invisible) PE corruption gets
    /// localized recovery instead of a farm-wide rollback.
    ///
    /// With a `sink` attached, level 0 of the ladder is persistence:
    /// every checkpoint barrier (initial, periodic, post-re-partition,
    /// and final state) is also pushed to `sink` as a shard-consistent
    /// durable snapshot — one [`ShardBlob`] per block, stamped with the
    /// block's first owned row and column so a resume can reassemble the
    /// lattice even after degraded re-partitioning changed the layout. A
    /// killed farm resumes bit-exact: reassemble the newest snapshot and
    /// call this again with the restored lattice and generation as
    /// `grid`/`t0` (FHP chirality hashes absolute coordinates, so the
    /// stamp matters). A sink failure fails the run; callers wanting
    /// best-effort persistence (e.g. the chaos soak) wrap the sink.
    #[allow(clippy::too_many_arguments)]
    pub fn run_with_recovery_audited<R: Rule>(
        &self,
        rule: &R,
        grid: &Grid<R::S>,
        t0: u64,
        generations: u64,
        plan: Option<&FaultPlan>,
        cfg: &FarmRecoveryConfig,
        audit: impl FnMut(&Grid<R::S>, &Grid<R::S>) -> Result<(), LatticeError>,
        shard_audit: Option<&mut ShardAudit<'_, R::S>>,
        mut sink: Option<&mut dyn SnapshotSink>,
    ) -> Result<FarmFtRun<R::S>, LatticeError> {
        let plan = plan.map_or(PlanRef::None, PlanRef::Borrowed);
        let mut session =
            self.session_inner(Committed::Borrowed(grid), t0, plan, cfg, sink.as_deref_mut())?;
        session.step_audited(rule, generations, audit, shard_audit, sink.as_deref_mut())?;
        // Durably record the final state, so a completed run resumes as
        // a no-op instead of replaying from the last barrier.
        if let Some(s) = sink {
            session.checkpoint(Some(s))?;
        }
        session.finish()
    }

    /// Opens a re-entrant run: the full recovery-ladder state of
    /// [`LatticeFarm::run_with_recovery`] captured in a [`FarmSession`]
    /// that advances in chunks ([`FarmSession::step`]) instead of
    /// running to completion. The session owns a copy of `grid` and the
    /// fault plan, so it is `'static`: a long-lived host multiplexing
    /// many sessions (the `lattice-serve` daemon, whose per-session
    /// plans are built from each session's spec) has no frame for a
    /// borrow to live in. The initial checkpoint barrier is taken here
    /// (and pushed to `sink` if one is attached) under the same rule as
    /// the one-shot entry points.
    pub fn session_owned<S: State>(
        &self,
        grid: &Grid<S>,
        t0: u64,
        plan: Option<Arc<FaultPlan>>,
        cfg: &FarmRecoveryConfig,
        sink: Option<&mut (dyn SnapshotSink + '_)>,
    ) -> Result<FarmSession<'static, S>, LatticeError> {
        let plan = plan.map_or(PlanRef::None, PlanRef::Owned);
        self.session_inner(Committed::Shared(Arc::new(grid.clone())), t0, plan, cfg, sink)
    }

    /// The physical chip id of board `b`'s *intra-rack* halo link under
    /// this farm's chip numbering, for a `rows`×`cols` lattice with a
    /// degrade budget of `max_retired` boards — the id a [`Fault`]
    /// targeting [`Component::Link`](lattice_engines_sim::Component::Link)
    /// must carry to afflict exactly that board's link. The board's
    /// inter-rack link (idle on single-row grids) occupies the second
    /// bank of link ids, [`LatticeFarm::link_chip_inter`].
    pub fn link_chip(
        &self,
        rows: usize,
        cols: usize,
        max_retired: usize,
        b: usize,
    ) -> Result<usize, LatticeError> {
        let shards = self.shards();
        if b >= shards {
            return Err(LatticeError::InvalidConfig(format!(
                "board {b} out of range for {shards} shard(s)"
            )));
        }
        if max_retired >= shards {
            return Err(LatticeError::InvalidConfig(
                "degrade budget must leave at least one board".into(),
            ));
        }
        let stride = self.chip_stride_range(rows, cols, shards - max_retired)?;
        Ok(shards * stride + b)
    }

    /// The physical chip id of board `b`'s *inter-rack* (vertical-tier)
    /// halo link: one full bank of link ids past the intra-rack bank,
    /// so the two tiers of the same board draw independent fault
    /// weather.
    pub fn link_chip_inter(
        &self,
        rows: usize,
        cols: usize,
        max_retired: usize,
        b: usize,
    ) -> Result<usize, LatticeError> {
        Ok(self.link_chip(rows, cols, max_retired, b)? + self.shards())
    }

    fn session_inner<'p, S: State>(
        &self,
        grid: Committed<'p, S>,
        t0: u64,
        plan: PlanRef<'p>,
        cfg: &FarmRecoveryConfig,
        mut sink: Option<&mut (dyn SnapshotSink + '_)>,
    ) -> Result<FarmSession<'p, S>, LatticeError> {
        self.validate(&grid)?;
        if cfg.checkpoint_every == 0 {
            return Err(LatticeError::InvalidConfig("checkpoint interval must be ≥ 1".into()));
        }
        let shards = self.shards();
        let max_retired = cfg.degrade.map_or(0, |d| d.max_retired);
        if max_retired >= shards {
            return Err(LatticeError::InvalidConfig(
                "degrade budget must leave at least one board".into(),
            ));
        }
        if max_retired > 0 && self.grid.0 > 1 {
            return Err(LatticeError::InvalidConfig(
                "degraded re-partitioning is columnar: a degrade budget needs a \
                 single-row board grid"
                    .into(),
            ));
        }
        let fault_base = plan.get().map(|p| p.stats()).unwrap_or_default();
        let shape = grid.shape();
        let (rows, cols) = (shape.rows(), shape.cols());
        let stride = self.chip_stride_range(rows, cols, shards - max_retired)?;
        let (gr, gc) = self.grid;
        let ckpt_slabs = partition2d_checked(rows, cols, gr, gc, self.depth, self.periodic)?;
        let mut session = FarmSession {
            farm: *self,
            cfg: *cfg,
            plan,
            fault_base,
            shape,
            rows,
            cols,
            stride,
            link_chip_base: shards * stride,
            phys: (0..shards).collect(),
            totals: Totals::new(&ckpt_slabs),
            ckpt_slabs,
            recovery: RecoveryStats::default(),
            halo_pos: vec![0u64; shards],
            halo_pos_inter: vec![0u64; shards],
            windows: (0..shards).map(|_| HaloWindow::new()).collect(),
            credit: Ticks::ZERO,
            attempts: vec![0u64; shards],
            local_left: vec![cfg.local_retries; shards],
            retries_left: cfg.max_retries,
            retired_left: max_retired,
            current: grid,
            t_now: t0,
            passes: 0,
            passes_since_ckpt: 0,
            ckpt: Vec::new(),
        };
        session.barrier(&mut sink, false, None)?;
        Ok(session)
    }
}

/// How a [`FarmSession`] holds its fault plan: borrowed from the
/// caller (the one-shot entry points), owned by the session
/// ([`LatticeFarm::session_owned`]), or absent.
#[derive(Clone)]
enum PlanRef<'p> {
    None,
    Borrowed(&'p FaultPlan),
    Owned(Arc<FaultPlan>),
}

impl PlanRef<'_> {
    fn get(&self) -> Option<&FaultPlan> {
        match self {
            PlanRef::None => None,
            PlanRef::Borrowed(p) => Some(p),
            PlanRef::Owned(p) => Some(p),
        }
    }
}

/// A re-entrant farm run: the recovery ladder's entire cross-pass state
/// — lattice, checkpoint barrier, retry budgets, fault-stream and
/// attempt epochs, overlap windows, accounting — held between
/// [`FarmSession::step`] calls, so a caller (the `lattice-serve`
/// daemon's worker pool, most importantly) can interleave many runs by
/// advancing each a bounded number of generations at a time.
///
/// This is the farm's only pass loop: [`LatticeFarm::run`] and
/// [`LatticeFarm::run_with_recovery`] are one-`step` sessions over the
/// caller's lattice, borrowed until the first pass commits, and
/// [`LatticeFarm::session_owned`] opens one over a copy.
///
/// Bit-exactness contract: any chunking of `generations` into `step`
/// calls produces the same lattice as one [`LatticeFarm::run_with_recovery`]
/// call. Only the overlap *accounting* can differ: ship-ahead staging
/// never crosses a `step` boundary, so a chunk seam behaves like pass
/// 0's cold start — the first pass of the next chunk exchanges at the
/// barrier, serialized, and earns no `overlapped_ticks` credit.
///
/// Checkpoint barriers (opening, periodic, post-re-partition) are
/// encoded only when something can read them: a sink attached to the
/// call, or a global retry or degrade budget that restores them. The
/// window still closes every `checkpoint_every` passes either way,
/// re-arming the retry budgets. An explicit [`FarmSession::checkpoint`]
/// always encodes one.
///
/// A `step` that returns an error has exhausted the recovery ladder
/// mid-pass; the session's lattice is the last committed state (a
/// resident run commits only at its end, so a run that failed leaves
/// the lattice it started from), but its retry budgets are spent — the
/// session should be checkpointed (to salvage the state) or discarded,
/// not stepped again.
pub struct FarmSession<'p, S: State> {
    farm: LatticeFarm,
    cfg: FarmRecoveryConfig,
    plan: PlanRef<'p>,
    fault_base: FaultStats,
    shape: Shape,
    rows: usize,
    cols: usize,
    stride: usize,
    link_chip_base: usize,
    /// Slab index → physical board id (identity until boards retire).
    phys: Vec<usize>,
    /// Block geometry of the current checkpoint barrier.
    ckpt_slabs: Vec<Block>,
    totals: Totals,
    recovery: RecoveryStats,
    /// Per-board link fault-stream positions (absolute wire positions,
    /// so chunking cannot change which bits the weather flips).
    halo_pos: Vec<u64>,
    /// Same, for the inter-rack tier's separate wires.
    halo_pos_inter: Vec<u64>,
    windows: Vec<StagedHalo<S>>,
    credit: Ticks,
    /// Per physical board attempt epochs.
    attempts: Vec<u64>,
    local_left: Vec<u32>,
    retries_left: u32,
    retired_left: usize,
    /// The last committed lattice: the caller's own until the first
    /// pass commits when the session borrows it.
    current: Committed<'p, S>,
    t_now: u64,
    /// Committed passes (re-commits after a rollback included), which
    /// is also the logical pass number (fault-epoch key) of the next.
    passes: u64,
    passes_since_ckpt: u64,
    /// The in-memory checkpoint barrier (one codec blob per slab);
    /// empty until a barrier is encoded.
    ckpt: Vec<Vec<u8>>,
}

impl<'p, S: State> FarmSession<'p, S> {
    /// The current generation (absolute — resuming FHP needs it).
    pub fn time(&self) -> u64 {
        self.t_now
    }

    /// Committed passes so far (re-commits after a rollback included).
    pub fn passes(&self) -> u64 {
        self.passes
    }

    /// The last committed lattice: after a failed step, the one the
    /// failed pass or resident run started from.
    pub fn grid(&self) -> Result<&Grid<S>, LatticeError> {
        Ok(&self.current)
    }

    /// Recovery actions taken so far.
    pub fn recovery(&self) -> RecoveryStats {
        self.recovery
    }

    /// A mid-run snapshot of the machine report: the accounting of
    /// every committed pass so far, with the current lattice. The
    /// session keeps running — this is what the daemon's `stats`
    /// endpoint serves between steps.
    pub fn report(&self) -> Result<FarmReport<S>, LatticeError> {
        let faults = self.plan.get().map(|p| p.stats().since(self.fault_base)).unwrap_or_default();
        Ok(self.totals.clone().finish(
            Grid::clone(&self.current),
            self.passes,
            self.farm.shards(),
            faults,
        ))
    }

    /// Takes a fresh checkpoint barrier *now* (pushed to `sink` when one
    /// is attached) and re-arms the retry budgets, exactly like the
    /// periodic barrier inside a run. This is the daemon's durable
    /// commit after a step, and its eviction write: a session restored
    /// from the sink's newest snapshot (via `reassemble` + a new
    /// session at the recorded generation) is bit-exact.
    pub fn checkpoint(
        &mut self,
        mut sink: Option<&mut (dyn SnapshotSink + '_)>,
    ) -> Result<(), LatticeError> {
        self.barrier(&mut sink, true, None)
    }

    /// Closes the checkpoint window: re-arms the retry budgets and,
    /// when `force`d or something can read it (a sink, or a ladder
    /// level that restores it), snapshots every block through the real
    /// checkpoint codec, bills the recovery accounting, and pushes the
    /// shard blobs to the sink as one shard-consistent snapshot. Within
    /// a step the slabs are encoded on the step's `crew`.
    fn barrier<'env>(
        &mut self,
        sink: &mut Option<&mut (dyn SnapshotSink + '_)>,
        force: bool,
        crew: Option<&mut StepCrew<'_, 'env, S>>,
    ) -> Result<(), LatticeError>
    where
        'p: 'env,
    {
        if force || sink.is_some() || self.cfg.restores() {
            let blobs = match crew {
                Some(crew) => crew.save(&self.current, &self.ckpt_slabs, self.t_now)?,
                None => save_shard_checkpoints(&self.current, &self.ckpt_slabs, self.t_now)?,
            };
            self.recovery.checkpoints += u64_from_usize(blobs.len());
            self.recovery.checkpoint_bytes +=
                blobs.iter().map(|b| u64_from_usize(b.len())).sum::<u64>();
            if let Some(s) = sink.as_deref_mut() {
                let shards: Vec<ShardBlob> = blobs
                    .iter()
                    .zip(&self.ckpt_slabs)
                    .map(|(blob, blk)| ShardBlob {
                        col0: u64_from_usize(blk.col0),
                        row0: u64_from_usize(blk.row0),
                        blob: blob.clone(),
                    })
                    .collect();
                s.persist(Ticks::new(self.t_now), &shards)?;
            }
            self.ckpt = blobs;
        }
        self.passes_since_ckpt = 0;
        self.retries_left = self.cfg.max_retries;
        self.local_left.fill(self.cfg.local_retries);
        Ok(())
    }

    /// Advances the run `n` generations through the recovery ladder.
    ///
    /// With no audit to read each pass, a step on WSA boards without a
    /// fault plan, injected worker fault, watchdog, overlap or a local
    /// replay budget that no rollback backs hands each board its passes
    /// as one resident run, and builds the lattice only where something
    /// reads it (DESIGN.md §19, "Resident runs").
    pub fn step<R: Rule<S = S>>(&mut self, rule: &R, n: u64) -> Result<(), LatticeError> {
        self.step_inner(rule, n, None, None, None)
    }

    /// [`FarmSession::step`] with the machine-wide and per-board audits
    /// of [`LatticeFarm::run_with_recovery_audited`], and an optional
    /// durable `sink` receiving every checkpoint barrier the chunk
    /// crosses. A rollback may legally rewind behind the chunk's start
    /// (the barrier is wherever `checkpoint_every` last put it); the
    /// chunk still ends at the same absolute generation.
    pub fn step_audited<R: Rule<S = S>>(
        &mut self,
        rule: &R,
        n: u64,
        mut audit: impl FnMut(&Grid<S>, &Grid<S>) -> Result<(), LatticeError>,
        shard_audit: Option<&mut ShardAudit<'_, S>>,
        sink: Option<&mut (dyn SnapshotSink + '_)>,
    ) -> Result<(), LatticeError> {
        self.step_inner(rule, n, Some(&mut audit), shard_audit, sink)
    }

    /// The one step both entry points take, the machine audit an
    /// `Option` so a step can say it has none.
    ///
    /// The step's board crew lives exactly as long as this call: one
    /// helper thread per board past the first, spawned by its first job
    /// and joined before the call returns (DESIGN.md §19, "The board crew").
    fn step_inner<R: Rule<S = S>>(
        &mut self,
        rule: &R,
        n: u64,
        audit: Option<&mut MachineAudit<'_, S>>,
        shard_audit: Option<&mut ShardAudit<'_, S>>,
        mut sink: Option<&mut (dyn SnapshotSink + '_)>,
    ) -> Result<(), LatticeError> {
        if n == 0 {
            return Ok(());
        }
        let plan = self.plan.clone();
        let plan = plan.get();
        let (engine, fault) = (self.farm.engine, self.farm.worker_fault);
        let work: &Work<'_, S> = &move |job| help(rule, engine, fault, job);
        std::thread::scope(|scope| {
            let mut crew = StepCrew {
                crew: Crew::new(scope, work),
                windows: Vec::new(),
                spare: None,
                links: Arc::new([]),
                tags: 0,
                resident: true,
            };
            self.run_passes(rule, self.t_now + n, plan, &mut crew, audit, shard_audit, &mut sink)
        })
    }

    /// How many `k`-deep passes from the current generation one
    /// resident run takes: every pass whose lattice nothing reads, and
    /// the pass after the last of them, which builds it; zero when the
    /// first pass's lattice is read. A pass's lattice is read when the
    /// pass is the step's last (or the next is shallower, with other
    /// blocks), when a barrier after it encodes, when an audit reads
    /// every pass, under overlap (the ship-ahead reads it), on SPA boards
    /// (cycle engines read whole blocks), when a fault plan, an injected
    /// worker fault or a watchdog could make a ladder level replay a
    /// board from it, and when local replay (level 2) is budgeted with
    /// no restoring level behind it: a run cannot replay one board
    /// alone, so only a rewind can still save it.
    fn resident_passes(&self, k: usize, t_end: u64, audited: bool, plan: bool, sink: bool) -> u64 {
        let (farm, cfg) = (&self.farm, &self.cfg);
        let quiet = matches!(farm.engine, ShardEngine::Wsa { .. })
            && !farm.overlap
            && !audited
            && !plan
            && farm.worker_fault.is_none()
            && cfg.watchdog.is_none()
            && (cfg.local_retries == 0 || cfg.restores());
        let (k, encodes) = (u64_from_usize(k), sink || cfg.restores());
        let (mut since, mut t, mut kept) = (self.passes_since_ckpt, self.t_now, 0);
        while quiet && t_end - t >= 2 * k && !(encodes && since + 1 >= cfg.checkpoint_every) {
            (since, t, kept) = ((since + 1) % cfg.checkpoint_every, t + k, kept + 1);
        }
        if kept == 0 {
            0
        } else {
            kept + 1
        }
    }

    /// The pass loop of one step, on the step's crew.
    #[allow(clippy::too_many_arguments)]
    fn run_passes<'env, R: Rule<S = S>>(
        &mut self,
        rule: &R,
        t_end: u64,
        plan: Option<&'env FaultPlan>,
        crew: &mut StepCrew<'_, 'env, S>,
        mut audit: Option<&mut MachineAudit<'_, S>>,
        mut shard_audit: Option<&mut ShardAudit<'_, S>>,
        sink: &mut Option<&mut (dyn SnapshotSink + '_)>,
    ) -> Result<(), LatticeError>
    where
        'p: 'env,
    {
        let audited = audit.is_some() || shard_audit.is_some();
        'run: while self.t_now < t_end {
            if self.passes_since_ckpt >= self.cfg.checkpoint_every {
                self.barrier(sink, false, Some(crew))?;
            }
            let k = self.farm.depth.min(usize_from_u64(t_end - self.t_now));
            let blocks = self.farm.blocks_at(self.rows, self.cols, self.phys.len(), k)?;
            let run = self.resident_passes(k, t_end, audited, plan.is_some(), sink.is_some());
            if run > 0 && crew.resident {
                match self.run_resident(rule, k, run, &blocks, crew, sink)? {
                    None => continue 'run,
                    Some(Unrun::Declined) => crew.resident = false,
                    Some(Unrun::Failed(fail)) => {
                        self.escalate(fail, false, crew, sink)?;
                        continue 'run;
                    }
                }
            }
            let mut cache = PassCache::new(blocks.len(), crew.next_lattice(self.shape.len()));
            loop {
                let pp = PassParams {
                    k,
                    t_now: self.t_now,
                    t_end,
                    pass: self.passes,
                    blocks: &blocks,
                    phys: &self.phys,
                    stride: self.stride,
                    link_chip_base: self.link_chip_base,
                    attempts: &self.attempts,
                    arq_retries: self.cfg.arq_retries,
                    watchdog: self.cfg.watchdog,
                    overlap_credit: self.credit,
                };
                let res = self
                    .farm
                    .attempt_pass(
                        rule,
                        &self.current,
                        &pp,
                        plan,
                        &mut self.halo_pos,
                        &mut self.halo_pos_inter,
                        &mut cache,
                        &mut self.windows,
                        &mut self.recovery,
                        shard_audit.as_deref_mut(),
                        crew,
                    )
                    .and_then(|(grid, out)| {
                        match audit.as_deref_mut().map(|a| a(&self.current, &grid)) {
                            Some(Err(e)) => Err(BoardFailure { slab: None, error: e }),
                            _ => Ok((grid, out)),
                        }
                    });
                match res {
                    Ok((grid, out)) => {
                        self.totals.absorb(&out, u64_from_usize(k), &self.phys)?;
                        self.credit = out.interior_ticks;
                        self.commit(grid, k, crew);
                        continue 'run;
                    }
                    Err(fail) => match self.escalate(fail, true, crew, sink)? {
                        Rung::Replay => continue,
                        Rung::Rewind => continue 'run,
                    },
                }
            }
        }
        Ok(())
    }

    /// Commits `grid` as the lattice one `k`-deep pass further on.
    fn commit<'env>(&mut self, grid: Grid<S>, k: usize, crew: &mut StepCrew<'_, 'env, S>)
    where
        'p: 'env,
    {
        let next = Committed::Shared(Arc::new(grid));
        crew.spare = std::mem::replace(&mut self.current, next).reclaim();
        self.t_now += u64_from_usize(k);
        self.passes += 1;
        self.passes_since_ckpt += 1;
    }

    /// Runs the `n` passes of depth `k` from the current generation as
    /// one resident run and commits it: the bill of every pass, from
    /// geometry, absorbed in pass order, and the lattice once. `None`
    /// when it committed; nothing is committed when it did not. The
    /// bill is drawn up first, so a run whose ticks overflow is refused
    /// before it runs.
    fn run_resident<'env, R: Rule<S = S>>(
        &mut self,
        rule: &R,
        k: usize,
        n: u64,
        blocks: &[Block],
        crew: &mut StepCrew<'_, 'env, S>,
        sink: &mut Option<&mut (dyn SnapshotSink + '_)>,
    ) -> Result<Option<Unrun>, LatticeError>
    where
        'p: 'env,
    {
        let ShardEngine::Wsa { width } = self.farm.engine else { return Ok(Some(Unrun::Declined)) };
        let grid = self.farm.grid_at(blocks.len());
        let wrap = self.farm.wrap_at(grid.0, k);
        let mut totals = self.totals.clone();
        let (mut pos, mut pos_inter) = (self.halo_pos.clone(), self.halo_pos_inter.clone());
        // Every pass of the run has the same blocks and depth, and none
        // is staged, so every pass bills the same; each still moves the
        // links' stream positions.
        let mut bill: Option<PassOutcome> = None;
        for _ in 0..n {
            let mut exs = Vec::with_capacity(blocks.len());
            for block in blocks {
                let (aug, b) = (Augmented::new(&self.current, block, wrap), self.phys[block.index]);
                exs.push(self.farm.exchange_board(
                    aug,
                    b,
                    None,
                    self.link_chip_base,
                    &mut pos[b],
                    &mut pos_inter[b],
                    self.cfg.arq_retries,
                    &mut self.recovery,
                    false,
                )?);
            }
            if bill.is_none() {
                let mut costs = Vec::with_capacity(blocks.len());
                for block in blocks {
                    let shape = Shape::grid2(block.aug_height(wrap), block.aug_width())?;
                    let Some(cost) = Pipeline::wide(width, k).kernel_cost::<S>(shape) else {
                        return Ok(Some(Unrun::Declined));
                    };
                    costs.push(vec![cost]);
                }
                let boards = blocks.iter().zip(&exs).zip(costs).map(|((b, ex), c)| (b, ex, c));
                bill = Some(self.farm.settle(boards.collect(), k, wrap, self.credit));
            }
            if let Some(out) = &bill {
                totals.absorb(out, u64_from_usize(k), &self.phys)?;
            }
        }
        let periodic = self.farm.periodic;
        let rp =
            RunParams { blocks, phys: &self.phys, grid, periodic, k, t0: self.t_now, passes: n };
        let next = match resident::run(rule, &self.current, &rp, crew) {
            Ok(next) => Grid::from_vec(self.shape, next)?,
            Err(unrun) => return Ok(Some(unrun)),
        };
        (self.totals, self.halo_pos, self.halo_pos_inter) = (totals, pos, pos_inter);
        self.credit = bill.map_or(Ticks::ZERO, |out| out.interior_ticks);
        for _ in 1..n {
            self.t_now += u64_from_usize(k);
            self.passes += 1;
            self.passes_since_ckpt += 1;
            // A barrier that falls due inside the run does not encode
            // (`resident_passes`): it only closes the window.
            if self.passes_since_ckpt >= self.cfg.checkpoint_every {
                self.barrier(sink, false, Some(crew))?;
            }
        }
        self.commit(next, k, crew);
        Ok(None)
    }

    /// Answers a failed pass attempt or resident run with the ladder's
    /// next level: `Ok(Rung::Replay)` to replay the failed board alone,
    /// `Ok(Rung::Rewind)` once every board has reloaded the barrier, the
    /// failure's error when no level is left. A resident run is not
    /// `replayable`: it committed nothing a board could replay from.
    fn escalate<'env>(
        &mut self,
        fail: BoardFailure,
        replayable: bool,
        crew: &mut StepCrew<'_, 'env, S>,
        sink: &mut Option<&mut (dyn SnapshotSink + '_)>,
    ) -> Result<Rung, LatticeError>
    where
        'p: 'env,
    {
        self.recovery.detected += 1;
        // Any failure voids the overlap window: staged frames carry a
        // pre-rollback attempt epoch and a possibly pre-rollback
        // lattice, so the retry re-exchanges at the barrier, serialized,
        // and earns no overlap credit.
        for w in self.windows.iter_mut() {
            w.invalidate();
        }
        self.credit = Ticks::ZERO;
        // Level 2 — roll back just the failed board and replay its
        // buffered halos; the cache keeps every other board's clean work.
        if let Some(i) = fail.slab.filter(|_| replayable) {
            let b = self.phys[i];
            if self.local_left[b] > 0 {
                self.local_left[b] -= 1;
                self.recovery.local_rollbacks += 1;
                self.totals.per_shard[b].local_rollbacks += 1;
                self.attempts[b] += 1;
                return Ok(Rung::Replay);
            }
        }
        // Level 3 — the pre-ladder behavior: every board reloads the
        // last barrier, every epoch re-seeds.
        if self.retries_left > 0 {
            self.retries_left -= 1;
            self.recovery.rollbacks += 1;
            crew.spare = self.rewind()?;
            return Ok(Rung::Rewind);
        }
        // Level 4 — retire the board that exhausted its ladder and
        // re-partition its slab onto the survivors.
        if let Some(i) = fail.slab {
            if self.retired_left > 0 && self.phys.len() > 1 {
                self.retired_left -= 1;
                self.recovery.boards_retired += 1;
                let b = self.phys.remove(i);
                self.totals.per_shard[b].retired = true;
                crew.spare = self.rewind()?;
                // Only reachable on single-row grids (`session_inner`
                // gates the degrade budget), so the reshape is columnar.
                self.ckpt_slabs = partition2d(
                    self.rows,
                    self.cols,
                    1,
                    self.phys.len(),
                    self.farm.depth,
                    self.farm.periodic,
                )?;
                self.totals.regeom(&self.ckpt_slabs, &self.phys);
                self.barrier(sink, false, Some(crew))?;
                return Ok(Rung::Rewind);
            }
        }
        Err(fail.error)
    }

    /// Rewinds every board to the in-memory barrier (ladder levels 3
    /// and 4) and re-seeds every board's attempt epoch; returns the
    /// discarded lattice's buffer when nothing else holds it.
    fn rewind(&mut self) -> Result<Option<Vec<S>>, LatticeError> {
        let (g, t) = load_shard_checkpoints::<S>(&self.ckpt, &self.ckpt_slabs, self.shape)?;
        let discarded = std::mem::replace(&mut self.current, Committed::Shared(Arc::new(g)));
        self.t_now = t;
        self.passes_since_ckpt = 0;
        for a in self.attempts.iter_mut() {
            *a += 1;
        }
        Ok(discarded.reclaim())
    }

    /// Closes the session: the final machine report and recovery tally,
    /// identical to what the one-shot entry points return.
    pub fn finish(self) -> Result<FarmFtRun<S>, LatticeError> {
        let faults = self.plan.get().map(|p| p.stats().since(self.fault_base)).unwrap_or_default();
        Ok(FarmFtRun {
            report: self.totals.finish(
                self.current.into_grid(),
                self.passes,
                self.farm.shards(),
                faults,
            ),
            recovery: self.recovery,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crew;
    use lattice_core::checkpoint::store::{CheckpointStore, MemBackend};
    use lattice_core::units::f64_from_u64;
    use lattice_core::BlockKernel;
    use lattice_core::{evolve, Boundary};
    use lattice_engines_sim::{Component, Fault, FaultKind};
    use lattice_gas::hpp::HppDir;
    use lattice_gas::{init, FhpRule, FhpVariant, HppRule};
    use std::sync::atomic::Ordering;

    fn hpp_world(rows: usize, cols: usize, seed: u64) -> (Grid<u8>, HppRule) {
        let shape = Shape::grid2(rows, cols).unwrap();
        (init::random_hpp(shape, 0.4, seed).unwrap(), HppRule::new())
    }

    #[test]
    fn farmed_hpp_is_bit_exact_for_every_shard_count() {
        let (g, rule) = hpp_world(12, 22, 3);
        let reference = evolve(&g, &rule, Boundary::null(), 0, 5);
        for shards in 1..=6 {
            let farm = LatticeFarm::new(shards, ShardEngine::Wsa { width: 2 }, 2);
            let report = farm.run(&rule, &g, 0, 5).unwrap();
            assert_eq!(report.grid(), &reference, "S={shards}");
            assert_eq!(report.passes, 3, "depth-2 passes over 5 generations");
            assert_eq!(report.machine.generations, 5);
        }
    }

    /// HPP that counts how often a board builds its block kernel.
    struct CountingKernel {
        hpp: HppRule,
        calls: std::sync::atomic::AtomicUsize,
    }

    impl Rule for CountingKernel {
        type S = u8;
        fn update(&self, w: &lattice_core::Window<u8>) -> u8 {
            self.hpp.update(w)
        }
        fn block_kernel(
            &self,
            src: &dyn RowSource<u8>,
            t0: u64,
            origin: (usize, usize),
        ) -> Option<Box<dyn BlockKernel<u8>>> {
            self.calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.hpp.block_kernel(src, t0, origin)
        }
    }

    #[test]
    fn spared_wsa_boards_reach_the_block_kernel_through_a_reference() {
        let (g, hpp) = hpp_world(12, 22, 5);
        let reference = evolve(&g, &hpp, Boundary::null(), 0, 5);
        let rule = CountingKernel { hpp, calls: Default::default() };
        let calls = || rule.calls.swap(0, std::sync::atomic::Ordering::Relaxed);
        // 3 boards of depth 2 over 5 generations: passes of depth 2, 2
        // and a shallow 1; board 1 drives chips 2 and 3 (2 alone on the
        // shallow pass).
        let farm = LatticeFarm::new(3, ShardEngine::Wsa { width: 2 }, 2);
        // `&&rule`: the call goes through `impl Rule for &R`, which must
        // forward the hook or every board silently runs cycle by cycle.
        let report = farm.run(&&rule, &g, 0, 5).unwrap();
        assert_eq!(report.grid(), &reference);
        // Each board builds its planes from the lattice twice: for pass
        // 1, whose planes pass 2 runs on, and for the shallow pass 3,
        // whose blocks differ.
        assert_eq!(calls(), 2 * 3, "one kernel build per board per lattice read");
        // Four full-depth passes build once and stay resident.
        let long = farm.run(&&rule, &g, 0, 8).unwrap();
        assert_eq!(long.grid(), &evolve(&g, &rule.hpp, Boundary::null(), 0, 8));
        assert_eq!(long.passes, 4);
        assert_eq!(calls(), 3, "the planes stay resident through a reference");
        // Overlap: one call per sweep region.
        let overlapped = farm.with_overlap(true).run(&&rule, &g, 0, 5).unwrap();
        assert_eq!(overlapped.grid(), &reference);
        assert!(calls() > 3 * 3);

        // Under a fault plan and an audit every pass reads the lattice:
        // one kernel build per board per pass.
        let cfg = FarmRecoveryConfig::default();
        let run = |plan: &FaultPlan| {
            farm.run_with_recovery(&&rule, &g, 0, 5, Some(plan), &cfg, |_, _| Ok(())).unwrap()
        };
        let engine_fault = |component, chip| Fault {
            component,
            chip,
            cell: None,
            kind: FaultKind::Transient { bit: 0, rate: 0.0 },
        };
        // A plan no engine chip can see keeps every board on the kernel:
        // an empty plan, and weather on the halo links alone.
        assert_eq!(run(&FaultPlan::new(1)).report, report);
        assert_eq!(calls(), 3 * 3, "an empty plan spares every board");
        let link_chip = farm.link_chip(12, 22, 0, 1).unwrap();
        let link_plan = FaultPlan::new(7).with_fault(Fault {
            component: Component::Link,
            chip: Some(link_chip),
            cell: None,
            kind: FaultKind::Transient { bit: 1, rate: 0.02 },
        });
        let ft = run(&link_plan);
        assert_eq!(ft.report.grid(), &reference);
        assert!(ft.recovery.retransmits > 0, "the link weather must fire");
        assert_eq!(ft.recovery.detected, ft.recovery.retransmits, "ARQ answers every detection");
        assert_eq!(calls(), 3 * 3, "link weather spares every engine chip");
        // A fault on one of board 1's engine chips sends that board, and
        // only it, through the cycle engine on the passes that drive the
        // chip: chip 2 on all three, chip 3 on the two full-depth ones.
        for (chip, kernel_calls) in [(2, 2 * 3), (3, 2 * 3 + 1)] {
            let plan = FaultPlan::new(1).with_fault(engine_fault(Component::SrCell, Some(chip)));
            assert_eq!(run(&plan).report, report, "chip {chip}");
            assert_eq!(calls(), kernel_calls, "SrCell fault on chip {chip}");
        }
        // A fault on every chip reaches every board.
        let everywhere = FaultPlan::new(1).with_fault(engine_fault(Component::PeOutput, None));
        assert_eq!(run(&everywhere).report, report);
        assert_eq!(calls(), 0, "a chip-less fault reaches every board");
        // SPA boards never take the kernel.
        let spa = LatticeFarm::new(3, ShardEngine::Spa { slice_width: 1 }, 2);
        assert_eq!(spa.run(&&rule, &g, 0, 5).unwrap().grid(), &reference);
        assert_eq!(calls(), 0);
    }

    #[test]
    fn audits_read_every_committed_pass() {
        // A 2×2 torus grid, 7 generations at k = 2: four passes, the
        // last shallow. Each audit is called once per committed pass
        // (the per-board one once per board), with the whole lattice,
        // or the board's augmented block, before and after the pass.
        let (g, rule) = hpp_world(12, 24, 6);
        let farm = LatticeFarm::new(1, ShardEngine::Wsa { width: 2 }, 2)
            .with_grid(2, 2)
            .with_periodic(true);
        let mut machine = Vec::new();
        let mut boards = Vec::new();
        let mut shard = |b: usize, before: &Grid<u8>, after: &Grid<u8>| {
            boards.push((b, before.clone(), after.clone()));
            Ok(())
        };
        let audit = |before: &Grid<u8>, after: &Grid<u8>| {
            machine.push((before.clone(), after.clone()));
            Ok(())
        };
        let none = FarmRecoveryConfig::NONE;
        let ft = farm
            .run_with_recovery_audited(&rule, &g, 0, 7, None, &none, audit, Some(&mut shard), None)
            .unwrap();
        let at = |t: u64| evolve(&g, &rule, Boundary::Periodic, 0, t);
        assert_eq!(ft.report.grid(), &at(7));
        let passes = [(0u64, 2usize), (2, 2), (4, 2), (6, 1)];
        assert_eq!(machine.len(), passes.len());
        for ((before, after), (t, k)) in machine.iter().zip(passes) {
            assert_eq!((before, after), (&at(t), &at(t + k as u64)), "pass at {t}");
        }
        assert_eq!(boards.len(), 4 * passes.len());
        for (j, (b, before, after)) in boards.iter().enumerate() {
            let (t, k) = passes[j / 4];
            let blocks = partition2d(12, 24, 2, 2, k, true).unwrap();
            let lattice = at(t);
            let aug = Augmented::new(&lattice, &blocks[j % 4], 0);
            let shape = Shape::grid2(aug.rows(), blocks[j % 4].aug_width()).unwrap();
            let mut want = Grid::new(shape);
            for (r, row) in want.as_mut_slice().chunks_exact_mut(shape.cols()).enumerate() {
                aug.copy_row(r, 0, row);
            }
            assert_eq!((*b, before), (j % 4, &want), "board {j}");
            assert_eq!(after, &evolve(before, &rule, Boundary::null(), t, k as u64));
        }
    }

    #[test]
    fn resident_boards_import_every_halo_site() {
        // Resident boards take their halos from their neighbours' plane
        // frames; every halo site is poisoned before the hops and every
        // unwritten lattice site before the run, so a site either one
        // misses fails the reference. A one-wide board axis on the
        // torus wraps inside the board's own kernel.
        for (gr, gc) in [(1usize, 1usize), (1, 2), (2, 1), (2, 2), (3, 1)] {
            for periodic in [false, true] {
                for k in 1..=3usize {
                    let (rows, cols) = (gr * (k + 2) + 1, gc * (k + 1) + 67);
                    let boundary = if periodic { Boundary::Periodic } else { Boundary::null() };
                    let farm = LatticeFarm::new(1, ShardEngine::Wsa { width: 1 }, k)
                        .with_grid(gr, gc)
                        .with_periodic(periodic);
                    let case = format!("{gr}×{gc} periodic={periodic} k={k}");
                    let (hpp, rule) = hpp_world(rows, cols, k as u64);
                    let report = farm.run(&rule, &hpp, 1, 3 * k as u64 + 1).unwrap();
                    let want = evolve(&hpp, &rule, boundary, 1, 3 * k as u64 + 1);
                    assert_eq!(report.grid(), &want, "HPP {case}");
                    let rows = rows + rows % 2;
                    let even = Shape::grid2(rows, cols).unwrap();
                    let fhp = init::random_fhp(even, FhpVariant::I, 0.4, 5, periodic).unwrap();
                    let mut frule = FhpRule::new(FhpVariant::I, 7);
                    if periodic {
                        frule = frule.with_wrap(rows, cols);
                    }
                    let report = farm.run(&frule, &fhp, 2, 3 * k as u64).unwrap();
                    let want = evolve(&fhp, &frule, boundary, 2, 3 * k as u64);
                    assert_eq!(report.grid(), &want, "FHP-I {case}");
                }
            }
        }
    }

    /// HPP without its block kernel: every board runs the cycle engine.
    struct NoKernel(HppRule);

    impl Rule for NoKernel {
        type S = u8;
        fn update(&self, w: &lattice_core::Window<u8>) -> u8 {
            self.0.update(w)
        }
    }

    #[test]
    fn a_frame_that_differs_from_the_lattice_reaches_the_kernel() {
        let (g, hpp) = hpp_world(12, 24, 9);
        let shape = g.shape();
        // A 2×2 board grid on the torus at k = 2: board 0 imports halo
        // columns and halo rows, and every index wraps.
        let (k, wrap) = (2, 0);
        let farm = LatticeFarm::new(1, ShardEngine::Wsa { width: 2 }, k)
            .with_grid(2, 2)
            .with_periodic(true);
        let blocks = partition2d(12, 24, 2, 2, k, true).unwrap();
        let block = &blocks[0];
        let aug = Augmented::new(&g, block, wrap);
        // Weather that never fires still makes every wire live, so the
        // frames are read and moved.
        let plan = FaultPlan::new(3).with_fault(Fault {
            component: Component::Link,
            chip: None,
            cell: None,
            kind: FaultKind::Transient { bit: 0, rate: 0.0 },
        });
        let exchange = |ctx| {
            let (mut pos, mut pos_v, mut rec) = (0, 0, RecoveryStats::default());
            farm.exchange_board(aug, 0, ctx, 0, &mut pos, &mut pos_v, 0, &mut rec, false).unwrap()
        };
        let quiet = exchange(None);
        assert_eq!((quiet.cols.as_ref(), quiet.rows.as_ref()), (None, None));
        let clean = exchange(Some(FaultCtx::new(&plan)));
        assert_eq!(clean.cols.as_ref(), Some(&aug.column_frame()));
        assert_eq!(clean.rows.as_ref(), Some(&aug.row_frame()));
        assert_eq!(
            (clean.bits, clean.bits_inter, clean.traffic),
            (quiet.bits, quiet.bits_inter, quiet.traffic)
        );
        // What corruption that passed parity would deliver: east movers
        // flipped along the halo column next to the owned block, or south
        // movers along the halo row above it.
        let (mut doctored_col, mut doctored_row) =
            (exchange(Some(FaultCtx::new(&plan))), exchange(Some(FaultCtx::new(&plan))));
        let aug_rows = aug.rows();
        if let (Some(cols), Some(rows)) = (doctored_col.cols.as_mut(), doctored_row.rows.as_mut()) {
            let col = (block.halo_left - 1) * aug_rows + aug.top();
            cols[col..col + block.rows].iter_mut().for_each(|s| *s ^= HppDir::E.bit());
            let row = (block.halo_up - 1) * block.width;
            rows[row..row + block.width].iter_mut().for_each(|s| *s ^= HppDir::S.bit());
        }
        let engine = farm.engine;
        // Board 0's owned block after one pass of `rule` on `ex`, and
        // its per-region costs.
        let board = |rule: &dyn Rule<S = u8>, ex: &ExchangeOutcome<u8>, overlap: bool| {
            let regions = sweep_regions2d(block, k, overlap, wrap);
            let job = BoardJob {
                lattice: Committed::Borrowed(&g),
                block: *block,
                wrap,
                ex: ex.clone(),
                work: BoardWork::with_capacity(regions.len(), false),
                regions,
                ctx: None,
                origin: (
                    block.row0.wrapping_sub(wrap + block.halo_up),
                    block.col0.wrapping_sub(block.halo_left),
                ),
                chip0: 0,
                phys: 0,
                pass: 0,
                attempt: 0,
                k,
                t0: 0,
                audited: false,
            };
            let mut next = vec![0xAAu8; shape.len()];
            let owned = &mut owned_rows(&mut next, 24, &blocks)[0];
            let work = BoardWork::with_capacity(job.regions.len(), false);
            let costs = run_board(&rule, engine, &job, owned, work).unwrap().costs;
            let next = Grid::from_vec(shape, next).unwrap();
            (crop(&next, (block.row0, block.col0), (block.rows, block.width)).unwrap(), costs)
        };
        let fast = CountingKernel { hpp: HppRule::new(), calls: Default::default() };
        let cycle = NoKernel(HppRule::new());
        for (overlap, doctored) in
            [false, true].into_iter().flat_map(|o| [(o, &doctored_col), (o, &doctored_row)])
        {
            let regions = sweep_regions2d(block, k, overlap, wrap).len();
            fast.calls.store(0, std::sync::atomic::Ordering::Relaxed);
            let (fast_block, fast_costs) = board(&fast, doctored, overlap);
            assert_eq!(
                fast.calls.swap(0, std::sync::atomic::Ordering::Relaxed),
                regions,
                "the doctored frame went through the kernel"
            );
            let (cycle_block, cycle_costs) = board(&cycle, doctored, overlap);
            assert_eq!(fast_block, cycle_block, "overlap {overlap}");
            assert_eq!(fast_costs, cycle_costs, "overlap {overlap}");
            let (clean_block, _) = board(&fast, &clean, overlap);
            assert_ne!(fast_block, clean_block, "the doctored site reached the owned block");
            assert_eq!(board(&fast, &quiet, overlap).0, clean_block, "a quiet wire reads in place");
            // The lattice is the frame's source when nothing differs.
            let reference = evolve(&g, &hpp, Boundary::Periodic, 0, k as u64);
            assert_eq!(
                clean_block,
                crop(&reference, (block.row0, block.col0), (block.rows, block.width)).unwrap()
            );
        }
    }

    #[test]
    fn a_shard_checkpoint_of_the_wrong_shape_is_rejected() {
        let (g, _) = hpp_world(6, 10, 2);
        let blocks = partition2d(6, 10, 1, 2, 1, false).unwrap();
        let mut blobs = save_shard_checkpoints(&g, &blocks, 4).unwrap();
        let (back, t) = load_shard_checkpoints::<u8>(&blobs, &blocks, g.shape()).unwrap();
        assert_eq!((back, t), (g.clone(), 4));
        // A self-consistent blob for a block one column too narrow.
        let narrow = Grid::<u8>::new(Shape::grid2(6, 4).unwrap());
        blobs[1] = checkpoint::save(&narrow, Ticks::new(4));
        assert!(matches!(
            load_shard_checkpoints::<u8>(&blobs, &blocks, g.shape()),
            Err(LatticeError::Corrupted { .. })
        ));
    }

    #[test]
    fn farmed_fhp_seams_respect_global_coordinates() {
        // FHP chirality hashes (row, col, t): a seam between boards must
        // not shift the frame.
        let shape = Shape::grid2(10, 21).unwrap();
        let g = init::random_fhp(shape, FhpVariant::III, 0.35, 9, false).unwrap();
        let rule = FhpRule::new(FhpVariant::III, 4);
        let reference = evolve(&g, &rule, Boundary::null(), 7, 4);
        for shards in [2usize, 3, 4] {
            let farm = LatticeFarm::new(shards, ShardEngine::Wsa { width: 1 }, 2);
            let report = farm.run(&rule, &g, 7, 4).unwrap();
            assert_eq!(report.grid(), &reference, "S={shards}");
        }
    }

    #[test]
    fn spa_boards_match_wsa_boards() {
        let (g, rule) = hpp_world(9, 17, 5);
        let reference = evolve(&g, &rule, Boundary::null(), 0, 4);
        let farm = LatticeFarm::new(3, ShardEngine::Spa { slice_width: 1 }, 2);
        let report = farm.run(&rule, &g, 0, 4).unwrap();
        assert_eq!(report.grid(), &reference);
        assert!(report.machine.side_traffic.total() > 0, "SPA side channels in use");
    }

    #[test]
    fn periodic_farm_matches_torus_reference() {
        let (rows, cols) = (8usize, 18usize);
        let shape = Shape::grid2(rows, cols).unwrap();
        let hpp = init::random_hpp(shape, 0.45, 7).unwrap();
        let rule = HppRule::new();
        let reference = evolve(&hpp, &rule, Boundary::Periodic, 0, 5);
        let farm = LatticeFarm::new(3, ShardEngine::Wsa { width: 2 }, 2).with_periodic(true);
        let report = farm.run(&rule, &hpp, 0, 5).unwrap();
        assert_eq!(report.grid(), &reference, "HPP torus");

        // FHP on the torus: wrapped rule, even rows.
        let fhp = init::random_fhp(shape, FhpVariant::I, 0.4, 2, true).unwrap();
        let frule = FhpRule::new(FhpVariant::I, 11).with_wrap(rows, cols);
        let freference = evolve(&fhp, &frule, Boundary::Periodic, 0, 4);
        let freport = farm.run(&frule, &fhp, 0, 4).unwrap();
        assert_eq!(freport.grid(), &freference, "FHP torus");
    }

    #[test]
    fn periodic_farm_matches_torus_reference_for_rest_particle_variants() {
        // Regression: FHP-III's chirality-selected rotations can move
        // the rest bit between states of an invariant class, so the
        // rest-branch chirality hash must wrap its center coordinates
        // exactly like the arrival branch — an engine computing the
        // torus's origin-shifted halo sites sees out-of-range centers.
        // (FHP-I has no rest bit and FHP-II's chirality choices never
        // move it, which is why only FHP-III caught this.)
        let (rows, cols) = (12usize, 30usize);
        let shape = Shape::grid2(rows, cols).unwrap();
        for (variant, shards) in
            [(FhpVariant::II, 3), (FhpVariant::III, 1), (FhpVariant::III, 3), (FhpVariant::III, 5)]
        {
            let fhp = init::random_fhp(shape, variant, 0.3, 42, true).unwrap();
            let rule = FhpRule::new(variant, 42).with_wrap(rows, cols);
            let reference = evolve(&fhp, &rule, Boundary::Periodic, 0, 10);
            let farm =
                LatticeFarm::new(shards, ShardEngine::Wsa { width: 2 }, 2).with_periodic(true);
            let report = farm.run(&rule, &fhp, 0, 10).unwrap();
            assert_eq!(report.grid(), &reference, "{variant:?} torus, {shards} shards");
        }
    }

    #[test]
    fn halo_accounting_matches_geometry() {
        let (g, rule) = hpp_world(16, 24, 1);
        let farm = LatticeFarm::new(4, ShardEngine::Wsa { width: 2 }, 2);
        let report = farm.run(&rule, &g, 0, 4).unwrap();
        // Shard widths 6 each, halos clamp only at the lattice edges, so
        // per pass the four boards import (0+2) + (2+2) + (2+2) + (2+0)
        // = 12 columns of 16 rows at 8 bits; 2 passes.
        assert_eq!(report.halo_traffic.bits_in, 2 * 12 * 16 * 8);
        assert_eq!(report.halo_traffic.bits_in, report.halo_traffic.bits_out);
        assert!(report.redundancy() > 1.0, "halo recompute counted");
        assert_eq!(report.halo_ticks, Ticks::ZERO, "unthrottled links are free");
        assert_eq!(report.retransmit_ticks, Ticks::ZERO);
        assert_eq!(report.retransmits, 0);
        assert!((report.compute_fraction() - 1.0).abs() < 1e-12);
        let per_board: Vec<u128> = report.per_shard.iter().map(|s| s.halo_in_bits.get()).collect();
        assert_eq!(per_board, vec![2 * 2 * 16 * 8, 4 * 2 * 16 * 8, 4 * 2 * 16 * 8, 2 * 2 * 16 * 8]);
    }

    #[test]
    fn throttled_links_cost_time_but_never_results() {
        // Every tick expectation here is re-derived from the analytical
        // `lattice_vlsi::FarmModel` at the same geometry — not a magic
        // constant — so the model and the simulation are held to agree
        // in both exchange modes.
        let (g, rule) = hpp_world(16, 32, 8);
        let model =
            lattice_vlsi::FarmModel::new(lattice_vlsi::Technology::paper_1987(), 16, 32, 2, 2)
                .with_link(BitsPerTick::new(4.0));
        let free = LatticeFarm::new(4, ShardEngine::Wsa { width: 2 }, 2);
        let slow = free.with_link(BoardLink::new(4.0));
        let a = free.run(&rule, &g, 0, 6).unwrap();
        let b = slow.run(&rule, &g, 0, 6).unwrap();
        assert_eq!(a.grid(), b.grid(), "bandwidth changes speed, never results");
        assert!(b.halo_ticks > Ticks::ZERO);
        assert_eq!(a.machine.ticks, b.machine.ticks, "compute time unchanged");
        assert!(b.machine_ticks() > a.machine_ticks());
        assert!(b.updates_per_tick() < a.updates_per_tick());
        assert!(b.compute_fraction() < 1.0);
        // Serialized agreement: the link-side prediction is exact (the
        // farm and the model divide the same bits by the same
        // capacity); the compute side is the model's pipeline formula,
        // good to a couple of fill-latency sites per pass.
        let close = |measured: Ticks, predicted: f64| {
            let err = (measured.to_f64() / predicted - 1.0).abs();
            assert!(err < 0.02, "{measured} vs predicted {predicted}: off by {err}");
        };
        let passes = b.passes;
        let bg = slow.grid;
        assert_eq!(b.halo_ticks, Ticks::new(passes * model.halo_ticks2(bg).get()));
        let p = f64_from_u64(passes);
        close(b.machine.ticks, p * model.compute_ticks2(bg).to_f64());
        close(b.machine_ticks(), p * model.pass_ticks2(bg).to_f64());

        // Overlapped agreement: same bits on the same wire, but the
        // wall clock follows boundary + max(interior, halo) — except
        // the first pass, which has no previous interior to hide under
        // and exposes one `min(interior, halo)` of cold-start credit.
        let omodel = model.with_overlap(true);
        let c = slow.with_overlap(true).run(&rule, &g, 0, 6).unwrap();
        assert_eq!(c.grid(), a.grid(), "overlap changes timing, never results");
        assert_eq!(c.halo_ticks, b.halo_ticks, "the wire moves the same frames");
        let (ob, oi) = (omodel.boundary_compute_ticks2(bg), omodel.interior_compute_ticks2(bg));
        close(c.machine.ticks, p * (ob + oi).to_f64());
        let cold_start = oi.min(omodel.halo_ticks2(bg));
        close(c.overlapped_ticks, (p - 1.0) * cold_start.to_f64());
        close(c.machine_ticks(), p * omodel.pass_ticks2(bg).to_f64() + cold_start.to_f64());
    }

    #[test]
    fn overlapped_exchange_is_bit_exact_and_cheaper_on_wide_slabs() {
        // Wide slabs: the boundary sweeps are a small fraction of the
        // pass, so hiding a starved link's transfer behind the interior
        // sweep beats the serialized barrier outright.
        let (g, rule) = hpp_world(16, 96, 11);
        let reference = evolve(&g, &rule, Boundary::null(), 0, 8);
        let serial =
            LatticeFarm::new(4, ShardEngine::Wsa { width: 2 }, 2).with_link(BoardLink::new(4.0));
        let overlap = serial.with_overlap(true);
        let s = serial.run(&rule, &g, 0, 8).unwrap();
        let o = overlap.run(&rule, &g, 0, 8).unwrap();
        assert_eq!(s.grid(), &reference);
        assert_eq!(o.grid(), &reference, "overlap is bit-exact");
        assert!(o.overlapped_ticks > Ticks::ZERO, "the transfer actually hid");
        assert!(o.overlapped_ticks <= o.halo_ticks, "cannot hide more than the wire spent");
        assert!(
            o.machine_ticks() < s.machine_ticks(),
            "overlap must win here: {} !< {}",
            o.machine_ticks(),
            s.machine_ticks()
        );
        // Unthrottled links have nothing to hide: overlap still
        // bit-exact, zero ticks overlapped, and the split sweeps cost
        // their extra pipeline refills.
        let free = LatticeFarm::new(4, ShardEngine::Wsa { width: 2 }, 2).with_overlap(true);
        let f = free.run(&rule, &g, 0, 8).unwrap();
        assert_eq!(f.grid(), &reference);
        assert_eq!(f.overlapped_ticks, Ticks::ZERO);
        assert_eq!(f.machine_ticks(), f.machine.ticks);
    }

    #[test]
    fn overlapped_fhp_and_torus_respect_global_coordinates() {
        // FHP chirality hashes (row, col, t): the boundary/interior
        // region split must present every sub-sweep at its true global
        // origin, on the null boundary and across the torus wrap.
        let shape = Shape::grid2(10, 21).unwrap();
        let g = init::random_fhp(shape, FhpVariant::III, 0.35, 9, false).unwrap();
        let rule = FhpRule::new(FhpVariant::III, 4);
        let reference = evolve(&g, &rule, Boundary::null(), 7, 4);
        for shards in [2usize, 3, 4] {
            let farm =
                LatticeFarm::new(shards, ShardEngine::Wsa { width: 1 }, 2).with_overlap(true);
            let report = farm.run(&rule, &g, 7, 4).unwrap();
            assert_eq!(report.grid(), &reference, "S={shards}");
        }

        let (rows, cols) = (8usize, 18usize);
        let tshape = Shape::grid2(rows, cols).unwrap();
        let fhp = init::random_fhp(tshape, FhpVariant::I, 0.4, 2, true).unwrap();
        let frule = FhpRule::new(FhpVariant::I, 11).with_wrap(rows, cols);
        let freference = evolve(&fhp, &frule, Boundary::Periodic, 0, 4);
        let farm = LatticeFarm::new(3, ShardEngine::Wsa { width: 2 }, 2)
            .with_periodic(true)
            .with_overlap(true);
        let freport = farm.run(&frule, &fhp, 0, 4).unwrap();
        assert_eq!(freport.grid(), &freference, "FHP torus under overlap");
    }

    #[test]
    fn overlapped_spa_boards_need_unit_slices() {
        let (g, rule) = hpp_world(9, 17, 5);
        // Wider slices are not region-aligned; the farm refuses rather
        // than silently serializing.
        let err = LatticeFarm::new(3, ShardEngine::Spa { slice_width: 2 }, 2)
            .with_overlap(true)
            .run(&rule, &g, 0, 4)
            .unwrap_err();
        assert!(err.to_string().contains("slice width 1"), "{err}");
        // Unit slices overlap fine and stay bit-exact.
        let reference = evolve(&g, &rule, Boundary::null(), 0, 4);
        let report = LatticeFarm::new(3, ShardEngine::Spa { slice_width: 1 }, 2)
            .with_overlap(true)
            .run(&rule, &g, 0, 4)
            .unwrap();
        assert_eq!(report.grid(), &reference);
    }

    #[test]
    fn slabs_narrower_than_the_halo_are_rejected_up_front() {
        // 8 cols / 4 boards leaves 2-column slabs; a depth-3 pass needs
        // 3-column halo frames no board can source. The farm rejects
        // the partition with a structured error instead of stitching a
        // degenerate exchange.
        let (g, rule) = hpp_world(6, 8, 0);
        let err =
            LatticeFarm::new(4, ShardEngine::Wsa { width: 1 }, 3).run(&rule, &g, 0, 3).unwrap_err();
        assert!(matches!(err, LatticeError::InvalidConfig(_)), "{err}");
        assert!(err.to_string().contains("reach through"), "{err}");
        // One generation shallower the same split is legal.
        assert!(LatticeFarm::new(4, ShardEngine::Wsa { width: 1 }, 2).run(&rule, &g, 0, 3).is_ok());
    }

    #[test]
    fn overlapped_link_faults_are_contained_by_arq() {
        // The recovery ladder under overlap: staged ship-ahead frames
        // ride the same ARQ, and a run whose faults are all absorbed at
        // level 1 commits every staged frame — so the committed-pass
        // retransmit tally still matches the ladder's.
        let (g, rule) = hpp_world(12, 20, 4);
        let farm = LatticeFarm::new(2, ShardEngine::Wsa { width: 1 }, 2).with_overlap(true);
        let stride = 2; // depth
        let link_chip = 2 * stride + 1; // board 1's halo link
        let plan = FaultPlan::new(13).with_fault(Fault {
            component: Component::Link,
            chip: Some(link_chip),
            cell: None,
            kind: FaultKind::Transient { bit: 1, rate: 2e-3 },
        });
        let reference = evolve(&g, &rule, Boundary::null(), 0, 600);
        let ft = farm
            .run_with_recovery(
                &rule,
                &g,
                0,
                600,
                Some(&plan),
                &FarmRecoveryConfig { max_retries: 20, ..Default::default() },
                |_, _| Ok(()),
            )
            .unwrap();
        assert_eq!(ft.report.grid(), &reference, "recovered overlap run is bit-exact");
        assert!(ft.recovery.detected >= 1, "the flip rate must fire within 600 generations");
        assert_eq!(ft.recovery.rollbacks, 0, "ARQ contains transient link faults at level 1");
        assert_eq!(ft.recovery.local_rollbacks, 0);
        assert_eq!(ft.recovery.detected, ft.recovery.retransmits);
        assert_eq!(ft.report.retransmits, ft.recovery.retransmits, "every staged frame committed");
    }

    #[test]
    fn link_fault_is_detected_and_recovered_to_bit_exact() {
        let (g, rule) = hpp_world(12, 20, 4);
        let farm = LatticeFarm::new(2, ShardEngine::Wsa { width: 1 }, 2);
        let stride = 2; // depth
        let link_chip = 2 * stride + 1; // board 1's halo link
        let plan = FaultPlan::new(13).with_fault(Fault {
            component: Component::Link,
            chip: Some(link_chip),
            cell: None,
            kind: FaultKind::Transient { bit: 1, rate: 2e-3 },
        });
        // Without a recovery budget the parity check eventually aborts
        // the run.
        let none = FarmRecoveryConfig::NONE;
        let bare = farm.run_with_recovery(&rule, &g, 0, 600, Some(&plan), &none, |_, _| Ok(()));
        let err = bare.expect_err("a 2e-3 flip rate must fire within 600 generations");
        assert!(err.to_string().contains("board 1 halo link"), "{err}");

        // With the ladder, the same weather is absorbed at the link:
        // corrupted frames retransmit and no board ever rolls back.
        let reference = evolve(&g, &rule, Boundary::null(), 0, 600);
        let ft = farm
            .run_with_recovery(
                &rule,
                &g,
                0,
                600,
                Some(&plan),
                &FarmRecoveryConfig { max_retries: 20, ..Default::default() },
                |_, _| Ok(()),
            )
            .unwrap();
        assert_eq!(ft.report.grid(), &reference);
        assert!(ft.recovery.detected >= 1, "the flip rate must fire within 600 generations");
        assert_eq!(ft.recovery.rollbacks, 0, "ARQ contains transient link faults at level 1");
        assert_eq!(ft.recovery.local_rollbacks, 0);
        assert_eq!(ft.recovery.boards_retired, 0);
        assert_eq!(ft.recovery.detected, ft.recovery.retransmits);
        assert_eq!(ft.report.retransmits, ft.recovery.retransmits, "every pass committed");
        assert!(ft.report.per_shard[1].retransmits >= 1);
        assert!(ft.report.machine.faults.link >= 1);
    }

    #[test]
    fn a_stuck_link_climbs_the_whole_ladder_and_degrades() {
        let (g, rule) = hpp_world(12, 18, 4);
        let reference = evolve(&g, &rule, Boundary::null(), 0, 6);
        let farm = LatticeFarm::new(2, ShardEngine::Wsa { width: 1 }, 2);
        let stride = 2; // depth, for every reachable shard count
        let link_chip = 2 * stride + 1; // board 1's halo link
        let plan = FaultPlan::new(5).with_fault(Fault {
            component: Component::Link,
            chip: Some(link_chip),
            cell: None,
            kind: FaultKind::StuckAt { bit: 0, value: true },
        });
        let cfg = FarmRecoveryConfig {
            max_retries: 1,
            checkpoint_every: 1,
            arq_retries: 1,
            local_retries: 1,
            watchdog: None,
            degrade: Some(FarmDegradeConfig { max_retired: 1 }),
        };
        let ft = farm.run_with_recovery(&rule, &g, 0, 6, Some(&plan), &cfg, |_, _| Ok(())).unwrap();
        assert_eq!(ft.report.grid(), &reference, "the degraded farm stays bit-exact");
        let r = &ft.recovery;
        // The ladder climbs in order: 1 retransmission per exchange
        // attempt (all corrupted — the link is stuck), then a local
        // rollback, then a global rollback, then retirement. Three
        // failed exchanges happen on the way up.
        assert_eq!(r.retransmits, 3);
        assert_eq!(r.local_rollbacks, 1);
        assert_eq!(r.rollbacks, 1);
        assert_eq!(r.boards_retired, 1);
        assert_eq!(
            r.detected,
            r.retransmits + r.local_rollbacks + r.rollbacks + r.boards_retired,
            "every detection is answered by exactly one ladder action"
        );
        assert!(ft.report.per_shard[1].retired);
        assert!(!ft.report.per_shard[0].retired);
        assert_eq!(ft.report.per_shard[1].local_rollbacks, 1);
        assert_eq!(ft.report.per_shard[0].local_rollbacks, 0);
        assert_eq!(ft.report.per_shard[0].cols, 18, "the survivor owns the whole lattice");
        assert_eq!(ft.report.shards, 2, "configured board count is preserved in the report");
        assert_eq!(ft.report.retransmits, 0, "no committed pass used the stuck link");
    }

    #[test]
    fn a_hung_worker_trips_the_watchdog_and_rolls_back_locally() {
        let (g, rule) = hpp_world(8, 12, 2);
        let reference = evolve(&g, &rule, Boundary::null(), 0, 2);
        let farm = LatticeFarm::new(2, ShardEngine::Wsa { width: 1 }, 1).with_worker_fault(
            WorkerFaultSpec {
                board: 1,
                pass: 0,
                attempt: 0,
                fault: WorkerFault::Hang { millis: 1000 },
            },
        );
        let cfg =
            FarmRecoveryConfig { watchdog: Some(Duration::from_millis(100)), ..Default::default() };
        let ft = farm.run_with_recovery(&rule, &g, 0, 2, None, &cfg, |_, _| Ok(())).unwrap();
        assert_eq!(ft.report.grid(), &reference, "the replayed pass is bit-exact");
        assert_eq!(ft.recovery.detected, 1);
        assert_eq!(ft.recovery.local_rollbacks, 1, "a hung board is a localized failure");
        assert_eq!(ft.recovery.rollbacks, 0, "its neighbor never rewinds");
        assert_eq!(ft.report.per_shard[1].local_rollbacks, 1);
        assert_eq!(ft.report.per_shard[0].local_rollbacks, 0);
    }

    #[test]
    fn a_dead_worker_is_detected_without_a_watchdog() {
        let (g, rule) = hpp_world(8, 12, 3);
        let reference = evolve(&g, &rule, Boundary::null(), 0, 3);
        let farm = LatticeFarm::new(3, ShardEngine::Wsa { width: 1 }, 1).with_worker_fault(
            WorkerFaultSpec { board: 0, pass: 1, attempt: 0, fault: WorkerFault::Die },
        );
        let ft = farm
            .run_with_recovery(&rule, &g, 0, 3, None, &FarmRecoveryConfig::default(), |_, _| Ok(()))
            .unwrap();
        assert_eq!(ft.report.grid(), &reference);
        assert_eq!(ft.recovery.detected, 1);
        assert_eq!(ft.recovery.local_rollbacks, 1, "a dropped result channel is localized");
        assert_eq!(ft.recovery.rollbacks, 0);
        assert_eq!(ft.report.per_shard[0].local_rollbacks, 1);
    }

    #[test]
    fn recovery_checkpoints_per_shard_and_counts_bytes() {
        let (g, rule) = hpp_world(10, 15, 2);
        let reference = evolve(&g, &rule, Boundary::null(), 0, 4);
        let farm = LatticeFarm::new(3, ShardEngine::Wsa { width: 1 }, 1);
        let ft = farm
            .run_with_recovery(&rule, &g, 0, 4, None, &FarmRecoveryConfig::default(), |_, _| Ok(()))
            .unwrap();
        assert_eq!(ft.report.grid(), &reference);
        // Initial barrier + one per pass before passes 2..4: 4 barriers
        // × 3 shards.
        assert_eq!(ft.recovery.checkpoints, 4 * 3);
        assert!(ft.recovery.checkpoint_bytes > 0);
        assert_eq!(ft.recovery.rollbacks, 0);
    }

    #[test]
    fn audit_failures_roll_the_whole_farm_back() {
        let (g, rule) = hpp_world(10, 16, 6);
        let reference = evolve(&g, &rule, Boundary::null(), 0, 3);
        let farm = LatticeFarm::new(2, ShardEngine::Wsa { width: 1 }, 1);
        let mut failures = 2;
        let ft = farm
            .run_with_recovery(
                &rule,
                &g,
                0,
                3,
                None,
                &FarmRecoveryConfig::default(),
                move |_, _| {
                    if failures > 0 {
                        failures -= 1;
                        Err(LatticeError::Corrupted {
                            site: "audit".into(),
                            detail: "synthetic".into(),
                        })
                    } else {
                        Ok(())
                    }
                },
            )
            .unwrap();
        assert_eq!(ft.report.grid(), &reference);
        assert_eq!(ft.recovery.detected, 2);
        // A machine-wide audit cannot name a board, so it skips the
        // local level entirely.
        assert_eq!(ft.recovery.rollbacks, 2);
        assert_eq!(ft.recovery.local_rollbacks, 0);
    }

    #[test]
    fn a_failed_shard_audit_rolls_back_one_board_only() {
        let (g, rule) = hpp_world(10, 16, 6);
        let reference = evolve(&g, &rule, Boundary::null(), 0, 3);
        let farm = LatticeFarm::new(2, ShardEngine::Wsa { width: 1 }, 1);
        let mut failures = 2;
        let ft = farm
            .run_with_recovery_audited(
                &rule,
                &g,
                0,
                3,
                None,
                &FarmRecoveryConfig { local_retries: 2, ..Default::default() },
                |_, _| Ok(()),
                Some(&mut |board, _, _| {
                    if board == 1 && failures > 0 {
                        failures -= 1;
                        Err(LatticeError::Corrupted {
                            site: "board 1 audit".into(),
                            detail: "synthetic".into(),
                        })
                    } else {
                        Ok(())
                    }
                }),
                None,
            )
            .unwrap();
        assert_eq!(ft.report.grid(), &reference);
        assert_eq!(ft.recovery.detected, 2);
        assert_eq!(ft.recovery.local_rollbacks, 2, "a per-board audit names its board");
        assert_eq!(ft.recovery.rollbacks, 0, "board 0 never rewinds");
        assert_eq!(ft.report.per_shard[1].local_rollbacks, 2);
        assert_eq!(ft.report.per_shard[0].local_rollbacks, 0);
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let (g, rule) = hpp_world(4, 8, 0);
        assert!(LatticeFarm::new(0, ShardEngine::Wsa { width: 1 }, 1)
            .run(&rule, &g, 0, 1)
            .is_err());
        assert!(LatticeFarm::new(9, ShardEngine::Wsa { width: 1 }, 1)
            .run(&rule, &g, 0, 1)
            .is_err());
        assert!(LatticeFarm::new(1, ShardEngine::Wsa { width: 0 }, 1)
            .run(&rule, &g, 0, 1)
            .is_err());
        assert!(LatticeFarm::new(1, ShardEngine::Wsa { width: 1 }, 0)
            .run(&rule, &g, 0, 1)
            .is_err());
        assert!(LatticeFarm::new(1, ShardEngine::Spa { slice_width: 0 }, 1)
            .run(&rule, &g, 0, 1)
            .is_err());
        let line = Grid::<u8>::new(lattice_core::Shape::line(8).unwrap());
        assert!(LatticeFarm::new(1, ShardEngine::Wsa { width: 1 }, 1)
            .run(&rule, &line, 0, 1)
            .is_err());
        // A degrade budget that could retire the whole farm is invalid,
        // as is a zero checkpoint interval.
        let farm = LatticeFarm::new(2, ShardEngine::Wsa { width: 1 }, 1);
        let bad_degrade = FarmRecoveryConfig {
            degrade: Some(FarmDegradeConfig { max_retired: 2 }),
            ..Default::default()
        };
        assert!(farm
            .run_with_recovery(&rule, &g, 0, 1, None, &bad_degrade, |_, _| Ok(()))
            .is_err());
        let bad_ckpt = FarmRecoveryConfig { checkpoint_every: 0, ..Default::default() };
        assert!(farm.run_with_recovery(&rule, &g, 0, 1, None, &bad_ckpt, |_, _| Ok(())).is_err());
    }

    #[test]
    fn zero_generations_is_a_no_op_report() {
        let (g, rule) = hpp_world(6, 9, 1);
        let farm = LatticeFarm::new(2, ShardEngine::Wsa { width: 1 }, 2);
        let report = farm.run(&rule, &g, 5, 0).unwrap();
        assert_eq!(report.grid(), &g);
        assert_eq!(report.passes, 0);
        assert_eq!(report.machine_ticks(), Ticks::ZERO);
        assert_eq!(report.updates_per_tick(), SitesPerTick::ZERO);
    }

    #[test]
    fn session_chunked_stepping_is_bit_exact() {
        // Any chunking of the run into `step` calls — including chunks
        // that end mid-pass-depth — produces the same lattice as the
        // one-shot entry point, in both exchange modes.
        let (g, rule) = hpp_world(12, 30, 7);
        let cfg = FarmRecoveryConfig::default();
        for &overlap in &[false, true] {
            let farm = LatticeFarm::new(3, ShardEngine::Wsa { width: 2 }, 3)
                .with_link(BoardLink::new(8.0))
                .with_overlap(overlap);
            let one = farm.run_with_recovery(&rule, &g, 0, 17, None, &cfg, |_, _| Ok(())).unwrap();
            let mut sess = farm.session_owned(&g, 0, None, &cfg, None).unwrap();
            for n in [1u64, 4, 2, 7, 0, 3] {
                sess.step(&rule, n).unwrap();
            }
            assert_eq!(sess.time(), 17, "overlap={overlap}");
            let mid = sess.report().unwrap();
            assert_eq!(mid.grid(), one.report.grid(), "mid-run snapshot sees the lattice");
            let ft = sess.finish().unwrap();
            assert_eq!(ft.report.grid(), one.report.grid(), "overlap={overlap}");
            assert_eq!(ft.report.machine.generations, one.report.machine.generations);
            // A chunk that ends mid-depth closes with a shallower pass,
            // so the chunked run takes more passes (and pays their fill
            // and halo bills) — the lattice is identical regardless.
            assert!(ft.report.passes > one.report.passes, "uneven chunks add shallow passes");
        }
    }

    #[test]
    fn session_single_step_matches_one_shot_exactly() {
        // One `step` covering the whole run IS the one-shot path — the
        // entire report, overlap credit included, must be identical.
        let (g, rule) = hpp_world(12, 30, 9);
        let cfg = FarmRecoveryConfig::default();
        let farm = LatticeFarm::new(3, ShardEngine::Wsa { width: 2 }, 2)
            .with_link(BoardLink::new(4.0))
            .with_overlap(true);
        let one = farm.run_with_recovery(&rule, &g, 0, 10, None, &cfg, |_, _| Ok(())).unwrap();
        let mut sess = farm.session_owned(&g, 0, None, &cfg, None).unwrap();
        sess.step(&rule, 10).unwrap();
        let ft = sess.finish().unwrap();
        assert_eq!(ft.report.grid(), one.report.grid());
        assert_eq!(ft.report.overlapped_ticks, one.report.overlapped_ticks);
        assert_eq!(ft.report.halo_ticks, one.report.halo_ticks);
        assert_eq!(ft.recovery, one.recovery);
    }

    #[test]
    fn session_chunked_recovery_is_bit_exact_under_link_faults() {
        // The ladder works across chunk boundaries: the same transient
        // link weather (keyed by absolute wire position, so chunking
        // cannot move it) is absorbed by ARQ, and the chunked lattice
        // still equals the fault-free reference.
        let (g, rule) = hpp_world(12, 20, 4);
        let farm = LatticeFarm::new(2, ShardEngine::Wsa { width: 1 }, 2);
        let stride = 2; // depth
        let link_chip = 2 * stride + 1; // board 1's halo link
        let plan = FaultPlan::new(13).with_fault(Fault {
            component: Component::Link,
            chip: Some(link_chip),
            cell: None,
            kind: FaultKind::Transient { bit: 1, rate: 2e-3 },
        });
        let cfg = FarmRecoveryConfig { max_retries: 20, ..Default::default() };
        let reference = evolve(&g, &rule, Boundary::null(), 0, 600);
        let mut sess = farm.session_owned(&g, 0, Some(Arc::new(plan)), &cfg, None).unwrap();
        let mut left = 600u64;
        while left > 0 {
            let n = left.min(74);
            sess.step(&rule, n).unwrap();
            left -= n;
        }
        let ft = sess.finish().unwrap();
        assert_eq!(ft.report.grid(), &reference, "chunked recovered run is bit-exact");
        assert!(ft.recovery.detected >= 1);
        assert_eq!(ft.recovery.detected, ft.recovery.retransmits, "all absorbed at level 1");
    }

    #[test]
    fn session_checkpoint_rearms_budgets_and_counts() {
        let (g, rule) = hpp_world(8, 16, 2);
        let farm = LatticeFarm::new(2, ShardEngine::Wsa { width: 1 }, 2);
        let cfg = FarmRecoveryConfig { checkpoint_every: 100, ..Default::default() };
        let mut sess = farm.session_owned(&g, 0, None, &cfg, None).unwrap();
        let after_open = sess.recovery().checkpoints;
        assert_eq!(after_open, 2, "the opening barrier snapshots both slabs");
        sess.step(&rule, 4).unwrap();
        sess.checkpoint(None).unwrap();
        assert_eq!(sess.recovery().checkpoints, after_open + 2);
        sess.step(&rule, 4).unwrap();
        let reference = evolve(&g, &rule, Boundary::null(), 0, 8);
        assert_eq!(sess.grid().unwrap(), &reference);

        // A barrier is encoded only when something can read it. With no
        // restoring budget and no sink, periodic barriers fall due every
        // pass and none is taken...
        let bare = FarmRecoveryConfig { max_retries: 0, checkpoint_every: 1, ..Default::default() };
        let mut sess = farm.session_owned(&g, 0, None, &bare, None).unwrap();
        sess.step(&rule, 4).unwrap();
        assert_eq!(sess.recovery().checkpoints, 0);
        // ...while an explicit checkpoint still snapshots both blocks.
        sess.checkpoint(None).unwrap();
        assert_eq!(sess.recovery().checkpoints, 2);
        assert_eq!(sess.grid().unwrap(), &evolve(&g, &rule, Boundary::null(), 0, 4));
        // A global retry budget, a degrade budget, or a sink brings the
        // opening barrier back.
        let degrade =
            FarmRecoveryConfig { degrade: Some(FarmDegradeConfig { max_retired: 1 }), ..bare };
        for cfg in [FarmRecoveryConfig { max_retries: 1, ..bare }, degrade] {
            let sess = farm.session_owned(&g, 0, None, &cfg, None).unwrap();
            assert_eq!(sess.recovery().checkpoints, 2, "{cfg:?}");
        }
        let mut store = CheckpointStore::open(MemBackend::new()).unwrap();
        let sess = farm.session_owned(&g, 0, None, &bare, Some(&mut store)).unwrap();
        assert_eq!(sess.recovery().checkpoints, 2);
        assert_eq!(store.commits(), 1, "the opening barrier reached the sink");
    }

    #[test]
    fn grid_farms_are_bit_exact_across_shapes_boundaries_and_overlap() {
        // The tentpole's correctness bar: R×C block farms with corner
        // exchange equal the single-engine reference across grid shape
        // × boundary × overlap, including an uneven final pass (5
        // generations at depth 2).
        let (rows, cols) = (12usize, 24usize);
        let shape = Shape::grid2(rows, cols).unwrap();
        for (gr, gc) in [(1usize, 4usize), (2, 2), (2, 3), (3, 2)] {
            for overlap in [false, true] {
                // HPP on the null boundary.
                let hpp = init::random_hpp(shape, 0.4, 3).unwrap();
                let rule = HppRule::new();
                let reference = evolve(&hpp, &rule, Boundary::null(), 0, 5);
                let farm = LatticeFarm::new(gr * gc, ShardEngine::Wsa { width: 2 }, 2)
                    .with_grid(gr, gc)
                    .with_overlap(overlap);
                let report = farm.run(&rule, &hpp, 0, 5).unwrap();
                assert_eq!(report.grid(), &reference, "HPP null {gr}×{gc} overlap={overlap}");

                // Coordinate-hashing FHP-III on the torus: a block seam
                // or corner that shifts the frame anywhere fails this.
                let fhp = init::random_fhp(shape, FhpVariant::III, 0.35, 9, true).unwrap();
                let frule = FhpRule::new(FhpVariant::III, 4).with_wrap(rows, cols);
                let freference = evolve(&fhp, &frule, Boundary::Periodic, 0, 5);
                let tfarm = LatticeFarm::new(gr * gc, ShardEngine::Wsa { width: 2 }, 2)
                    .with_grid(gr, gc)
                    .with_periodic(true)
                    .with_overlap(overlap);
                let treport = tfarm.run(&frule, &fhp, 0, 5).unwrap();
                assert_eq!(treport.grid(), &freference, "FHP torus {gr}×{gc} overlap={overlap}");
            }
        }
    }

    #[test]
    fn two_tier_exchange_bills_the_slower_wire_and_counts_corners_once() {
        // 12 × 24 on a 2×2 grid at k = 2, null boundary: every block
        // owns 6 × 12 with one vertical and one horizontal seam, so per
        // pass each board imports 2 halo columns × 8 augmented rows
        // (128 bits — corners ride here) and 2 halo rows × 12 owned
        // columns (192 bits, corners excluded).
        let (g, rule) = hpp_world(12, 24, 1);
        let farm = LatticeFarm::new(4, ShardEngine::Wsa { width: 2 }, 2)
            .with_grid(2, 2)
            .with_link(BoardLink::new(8.0));
        let reference = evolve(&g, &rule, Boundary::null(), 0, 4);
        let report = farm.run(&rule, &g, 0, 4).unwrap();
        assert_eq!(report.grid(), &reference);
        assert_eq!(report.halo_traffic.bits_in, 2 * 4 * (128 + 192), "2 passes × 4 boards");
        for s in &report.per_shard {
            assert_eq!(s.halo_in_bits.get(), 2 * (128 + 192));
            assert_eq!((s.rows, s.cols), (6, 12));
        }
        // Separate wires: the barrier waits for the slower tier, here
        // the 192-bit inter frame at 8 bits/tick = 24 ticks per pass.
        assert_eq!(report.halo_ticks, Ticks::new(2 * 24));
        // Throttling only the inter-rack tier stretches exactly that
        // wait; results are untouched.
        let throttled = farm.with_tier_link(BoardLink::new(2.0));
        let treport = throttled.run(&rule, &g, 0, 4).unwrap();
        assert_eq!(treport.grid(), &reference);
        assert_eq!(treport.halo_ticks, Ticks::new(2 * 96), "192 bits at 2 bits/tick");
        assert_eq!(treport.halo_traffic.bits_in, report.halo_traffic.bits_in);
    }

    #[test]
    fn grid_farm_link_faults_recover_bit_exact_on_both_tiers() {
        // Transient weather on one board's intra link and another's
        // inter link (second bank of link chip ids): ARQ absorbs both,
        // and the recovered grid run equals the reference, with and
        // without overlap.
        let (rows, cols) = (12usize, 24usize);
        let shape = Shape::grid2(rows, cols).unwrap();
        let g = init::random_hpp(shape, 0.4, 6).unwrap();
        let rule = HppRule::new();
        let reference = evolve(&g, &rule, Boundary::null(), 0, 400);
        for overlap in [false, true] {
            let farm = LatticeFarm::new(4, ShardEngine::Wsa { width: 2 }, 2)
                .with_grid(2, 2)
                .with_overlap(overlap);
            let intra_chip = farm.link_chip(rows, cols, 0, 1).unwrap();
            let inter_chip = farm.link_chip_inter(rows, cols, 0, 2).unwrap();
            assert_eq!(inter_chip, intra_chip + 4 + 1, "second bank of link ids");
            let plan = FaultPlan::new(21)
                .with_fault(Fault {
                    component: Component::Link,
                    chip: Some(intra_chip),
                    cell: None,
                    kind: FaultKind::Transient { bit: 1, rate: 2e-3 },
                })
                .with_fault(Fault {
                    component: Component::Link,
                    chip: Some(inter_chip),
                    cell: None,
                    kind: FaultKind::Transient { bit: 1, rate: 2e-3 },
                });
            let ft = farm
                .run_with_recovery(
                    &rule,
                    &g,
                    0,
                    400,
                    Some(&plan),
                    &FarmRecoveryConfig { max_retries: 20, ..Default::default() },
                    |_, _| Ok(()),
                )
                .unwrap();
            assert_eq!(ft.report.grid(), &reference, "overlap={overlap}");
            assert!(ft.recovery.detected >= 1, "2e-3 must fire in 400 generations");
            assert_eq!(ft.recovery.rollbacks, 0, "ARQ contains both tiers at level 1");
        }
    }

    #[test]
    fn grid_farms_gate_the_degrade_budget_to_single_row_grids() {
        let (g, rule) = hpp_world(12, 24, 2);
        let farm = LatticeFarm::new(4, ShardEngine::Wsa { width: 1 }, 2).with_grid(2, 2);
        let cfg = FarmRecoveryConfig {
            degrade: Some(FarmDegradeConfig { max_retired: 1 }),
            ..Default::default()
        };
        let err = match farm.session_owned(&g, 0, None, &cfg, None) {
            Err(e) => e,
            Ok(_) => panic!("a 2×2 grid with a degrade budget must be refused"),
        };
        assert!(err.to_string().contains("single-row board grid"), "{err}");
        // The columnar layout of the same four boards still degrades.
        let columnar = LatticeFarm::new(4, ShardEngine::Wsa { width: 1 }, 2);
        assert!(columnar.session_owned(&g, 0, None, &cfg, None).is_ok());
        // And a grid session without a degrade budget runs fine.
        let mut sess =
            farm.session_owned(&g, 0, None, &FarmRecoveryConfig::default(), None).unwrap();
        sess.step(&rule, 5).unwrap();
        let reference = evolve(&g, &rule, Boundary::null(), 0, 5);
        assert_eq!(sess.grid().unwrap(), &reference);
    }

    #[test]
    fn grid_sessions_chunk_and_checkpoint_bit_exact() {
        // Durable round trip on block geometry: chunked stepping with a
        // mid-run checkpoint equals the one-shot reference on a torus
        // 2×3 grid.
        let (rows, cols) = (12usize, 18usize);
        let shape = Shape::grid2(rows, cols).unwrap();
        let g = init::random_fhp(shape, FhpVariant::I, 0.4, 8, true).unwrap();
        let rule = FhpRule::new(FhpVariant::I, 3).with_wrap(rows, cols);
        let reference = evolve(&g, &rule, Boundary::Periodic, 0, 9);
        let farm = LatticeFarm::new(6, ShardEngine::Wsa { width: 1 }, 2)
            .with_grid(2, 3)
            .with_periodic(true);
        let mut sess =
            farm.session_owned(&g, 0, None, &FarmRecoveryConfig::default(), None).unwrap();
        for n in [2u64, 3, 1, 3] {
            sess.step(&rule, n).unwrap();
            sess.checkpoint(None).unwrap();
        }
        assert_eq!(sess.grid().unwrap(), &reference);
    }

    /// HPP whose block kernel panics once, at `at`: the generation and
    /// the first augmented column of the board it fires on.
    struct PanicOnce {
        hpp: HppRule,
        at: (u64, usize),
        armed: std::sync::atomic::AtomicBool,
    }

    impl Rule for PanicOnce {
        type S = u8;
        fn update(&self, w: &lattice_core::Window<u8>) -> u8 {
            self.hpp.update(w)
        }
        fn block_kernel(
            &self,
            src: &dyn RowSource<u8>,
            t0: u64,
            origin: (usize, usize),
        ) -> Option<Box<dyn BlockKernel<u8>>> {
            if (t0, origin.1) == self.at && self.armed.swap(false, Ordering::SeqCst) {
                panic!("injected board panic");
            }
            self.hpp.block_kernel(src, t0, origin)
        }
    }

    /// FNV-1a over a report's `Debug` rendering: pins every field,
    /// lattice included, in one number.
    fn digest(text: &str) -> u64 {
        text.bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    }

    #[test]
    fn worker_faults_on_either_thread_keep_their_outcomes() {
        // A hang, a death and a panic on pass 2 of a 4-pass step, on the
        // supervisor's own board (0) and on a helper's (1), with and
        // without a watchdog. The digests, recovery tallies and
        // zero-budget error texts were recorded from the farm that
        // spawned one thread per board per pass, before the crew.
        let (g, hpp) = hpp_world(8, 16, 4);
        let reference = evolve(&g, &hpp, Boundary::null(), 0, 4);
        // Report digests: no detection, board 0 replayed, board 1 replayed.
        let (clean, replay0, replay1) =
            (0x4490_3d1b_ce31_1792u64, 0xcae2_5958_a5b9_2ff1u64, 0x42a3_e587_9b9b_17c9u64);
        let stats = |detected: u64| RecoveryStats {
            detected,
            local_rollbacks: detected,
            checkpoints: 8,
            checkpoint_bytes: 584,
            ..RecoveryStats::default()
        };
        let down = |board: usize, cause: &str| Err(format!("board {board} down: {cause}"));
        let died = "worker died before reporting";
        for watchdog in [None, Some(Duration::from_millis(150))] {
            let cfg = FarmRecoveryConfig { watchdog, ..Default::default() };
            let bare = FarmRecoveryConfig { max_retries: 0, local_retries: 0, ..cfg };
            for board in [0usize, 1] {
                let replay = [replay0, replay1][board];
                for what in ["hang", "die", "panic"] {
                    let fault = match what {
                        "hang" => Some(WorkerFault::Hang { millis: 400 }),
                        "die" => Some(WorkerFault::Die),
                        _ => None,
                    };
                    let farm = LatticeFarm::new(2, ShardEngine::Wsa { width: 1 }, 1);
                    let farm = match fault {
                        Some(fault) => farm.with_worker_fault(WorkerFaultSpec {
                            board,
                            pass: 2,
                            attempt: 0,
                            fault,
                        }),
                        None => farm,
                    };
                    let rule = PanicOnce {
                        hpp: HppRule::new(),
                        at: (2, [0, 7][board]),
                        armed: false.into(),
                    };
                    let (want_digest, want_stats, want_bare) = match (what, watchdog) {
                        ("hang", None) => (clean, stats(0), Ok(())),
                        ("hang", Some(_)) => {
                            (replay, stats(1), down(board, "missed the watchdog deadline"))
                        }
                        _ => (replay, stats(1), down(board, died)),
                    };
                    let case = format!("{what} on board {board}, watchdog {watchdog:?}");
                    rule.armed.store(what == "panic", Ordering::SeqCst);
                    let run = farm.run_with_recovery(&rule, &g, 0, 4, None, &bare, |_, _| Ok(()));
                    assert_eq!(run.map(|_| ()).map_err(|e| e.to_string()), want_bare, "{case}");
                    rule.armed.store(what == "panic", Ordering::SeqCst);
                    let ft =
                        farm.run_with_recovery(&rule, &g, 0, 4, None, &cfg, |_, _| Ok(())).unwrap();
                    assert_eq!(ft.report.grid(), &reference, "{case}");
                    assert_eq!(ft.recovery, want_stats, "{case}");
                    assert_eq!(digest(&format!("{:?}", ft.report)), want_digest, "{case}");
                }
            }
        }
    }

    #[test]
    fn a_step_spawns_its_helpers_once() {
        let (g, rule) = hpp_world(8, 16, 5);
        let farm = LatticeFarm::new(2, ShardEngine::Wsa { width: 1 }, 1);
        let cfg = FarmRecoveryConfig::default();
        let before = crew::spawns();
        let ft = farm.run_with_recovery(&rule, &g, 0, 24, None, &cfg, |_, _| Ok(())).unwrap();
        assert_eq!(ft.report.passes, 24);
        assert_eq!(crew::spawns() - before, 1, "one helper for the whole 24-pass step");
        assert_eq!(ft.report.grid(), &evolve(&g, &rule, Boundary::null(), 0, 24));
        // A helper that misses the watchdog is abandoned, and the
        // replay spawns its replacement.
        let hung = farm.with_worker_fault(WorkerFaultSpec {
            board: 1,
            pass: 5,
            attempt: 0,
            fault: WorkerFault::Hang { millis: 300 },
        });
        let cfg = FarmRecoveryConfig { watchdog: Some(Duration::from_millis(100)), ..cfg };
        let before = crew::spawns();
        let ft = hung.run_with_recovery(&rule, &g, 0, 24, None, &cfg, |_, _| Ok(())).unwrap();
        assert_eq!(ft.recovery.local_rollbacks, 1);
        assert_eq!(crew::spawns() - before, 2);
        assert_eq!(ft.report.grid(), &evolve(&g, &rule, Boundary::null(), 0, 24));
    }

    /// HPP whose kernel panics once, in the `run` that starts at
    /// generation `at.0` on the board whose first augmented column is
    /// `at.1`: a board failing mid-run.
    struct PanicInRun {
        hpp: HppRule,
        at: (u64, usize),
        armed: Arc<std::sync::atomic::AtomicBool>,
    }

    struct Ticking {
        inner: Box<dyn BlockKernel<u8>>,
        t: u64,
        at: Option<u64>,
        armed: Arc<std::sync::atomic::AtomicBool>,
    }

    impl BlockKernel<u8> for Ticking {
        fn run(&mut self, generations: u64) {
            if self.at == Some(self.t) && self.armed.swap(false, Ordering::SeqCst) {
                panic!("injected kernel panic");
            }
            self.inner.run(generations);
            self.t += generations;
        }
        fn import(&mut self, at: (usize, usize), src: &dyn RowSource<u8>) {
            self.inner.import(at, src);
        }
        fn unpack(&self, sink: &mut dyn RowSink<u8>) {
            self.inner.unpack(sink);
        }
        fn copy(&self, window: (Range<usize>, Range<usize>), frame: &mut Vec<u64>) {
            self.inner.copy(window, frame);
        }
        fn paste(&mut self, at: (usize, usize), shape: (usize, usize), frame: &[u64]) {
            self.inner.paste(at, shape, frame);
        }
        fn wrap(&mut self, rows: bool, cols: bool) -> bool {
            self.inner.wrap(rows, cols)
        }
    }

    impl Rule for PanicInRun {
        type S = u8;
        fn update(&self, w: &lattice_core::Window<u8>) -> u8 {
            self.hpp.update(w)
        }
        fn block_kernel(
            &self,
            src: &dyn RowSource<u8>,
            t0: u64,
            origin: (usize, usize),
        ) -> Option<Box<dyn BlockKernel<u8>>> {
            let inner = self.hpp.block_kernel(src, t0, origin)?;
            let at = (origin.1 == self.at.1).then_some(self.at.0);
            Some(Box::new(Ticking { inner, t: t0, at, armed: Arc::clone(&self.armed) }))
        }
    }

    #[test]
    fn a_board_panicking_mid_run_rewinds_or_leaves_the_run_start() {
        // A kernel panic in pass 4 of an 8-pass step, on the supervisor's
        // board (0, whose first augmented column wraps to the lattice's
        // last) or on the helper's (1, column 19). Under a local budget
        // with no restoring level behind it the step is not resident and
        // the board replays alone. Otherwise the step is one resident
        // run: the board poisons its mailboxes, so its neighbour stops
        // instead of waiting, and the run fails. Nothing commits mid-run:
        // a global retry rewinds to the opening barrier, bit-exact, and
        // with no budget the session still holds the lattice the run
        // started from, serves it, and steps on from it.
        let (g, hpp) = hpp_world(8, 40, 3);
        let farm = LatticeFarm::new(2, ShardEngine::Wsa { width: 1 }, 1).with_periodic(true);
        let at = |t| evolve(&g, &hpp, Boundary::Periodic, 0, t);
        let none = FarmRecoveryConfig::NONE;
        let local_only = FarmRecoveryConfig { local_retries: 2, ..none };
        let global = FarmRecoveryConfig { max_retries: 1, ..local_only };
        let panics = |t, column| PanicInRun {
            hpp: HppRule::new(),
            at: (t, column),
            armed: Arc::new(true.into()),
        };
        for (board, column) in [(0usize, usize::MAX), (1, 19)] {
            for (cfg, local, rollbacks) in [(local_only, 1, 0), (global, 0, 1)] {
                let mut session = farm.session_owned(&g, 0, None, &cfg, None).unwrap();
                session.step(&panics(3, column), 8).unwrap();
                let recovery = session.recovery();
                let case = format!("board {board}, {cfg:?}");
                assert_eq!((recovery.detected, recovery.local_rollbacks), (1, local), "{case}");
                assert_eq!(recovery.rollbacks, rollbacks, "{case}");
                assert_eq!(session.grid().unwrap(), &at(8), "{case}");
                assert_eq!(session.report().unwrap().passes, 8, "only the rerun commits: {case}");
            }

            let mut session = farm.session_owned(&g, 0, None, &none, None).unwrap();
            session.step(&hpp, 3).unwrap();
            let err = session.step(&panics(6, column), 8).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("board {board} down: worker died before reporting")
            );
            assert_eq!((session.time(), session.grid().unwrap()), (3, &at(3)), "board {board}");
            let report = session.report().unwrap();
            assert_eq!((report.passes, report.grid()), (3, &at(3)), "board {board}");
            session.checkpoint(None).unwrap();
            session.step(&hpp, 8).unwrap();
            assert_eq!(session.finish().unwrap().report.grid(), &at(11), "board {board}");
        }
    }
}
