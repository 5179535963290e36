//! The farm driver: `S` boards evolving one lattice in bulk-synchronous
//! lockstep.
//!
//! Each pass, every board receives its halo frames over the inter-board
//! links ([`crate::link::BoardLink`]: bandwidth-throttled, parity
//! checked), read straight from the committed lattice, then runs its
//! cycle-level engine — a WSA pipeline (§4) or an SPA slice array (§5)
//! — for `k` generations over the halo-augmented slab, on the step's
//! board crew: board 0 on the calling thread, every other board on the
//! helper that serves it for the whole step. The board reads that slab
//! a row at a time from the lattice, with the received frames laid over
//! it, and writes its owned sites straight into its rows of the next
//! lattice (a helper through a window buffer the caller copies in), so
//! no host gather copies the lattice at the barrier. A slab augmented
//! with `k` true generation-`t` columns per interior side evolves `k`
//! generations with every owned column bit-exact (boundary pollution
//! travels one column per generation), so the farmed run equals the
//! single-engine reference *exactly*, for HPP and — via the
//! origin-aware stream framing the engines already speak — for
//! coordinate-dependent FHP, on both the null boundary and the torus.
//!
//! A WSA board whose rule supplies a block kernel ([`Rule::block_kernel`],
//! whose one-pass case is `Rule::evolve_block`) skips the cycle loop
//! whenever no fault in the plan can fire on the engine chips it drives
//! ([`FaultPlan::spares`](lattice_engines_sim::FaultPlan::spares)):
//! halo-link weather leaves it on the fast path. The board computes its
//! block with the kernel and charges the ticks and traffic the cycle
//! engine would count
//! ([`Pipeline::kernel_cost`](lattice_engines_sim::Pipeline::kernel_cost),
//! DESIGN.md §19). Across a run of passes whose lattices nothing reads
//! (the crate's `Readers` value names who does), each board keeps its
//! planes from pass to pass, trades its halo frames as plane words with
//! its neighbours, and the lattice is built once, at the run's end.
//! Every report field is the same either way; only host time moves.
//!
//! The price is redundant halo recompute (each exchanged column is
//! evolved by two boards) and link time at the barrier; the machine
//! report accounts both, which is what the analytical board model in
//! `lattice-vlsi` predicts and `tab_farm_scaling` cross-checks.
//!
//! Every entry point runs [`FarmSession`]'s one pass loop:
//! [`LatticeFarm::run`] is a one-step session under a zero recovery
//! budget, [`LatticeFarm::run_with_recovery`] a one-step session under
//! the caller's, and [`LatticeFarm::session_owned`] hands the session to
//! the caller.
//!
//! This module holds the farm's configuration, validation, entry points
//! and report types; the seams of a pass (`exchange`, `board`, `pass`,
//! `session`, `ladder`, `resident`, `crew`) are crate-private modules,
//! mapped in DESIGN.md §10.

use crate::board::Committed;
use crate::link::BoardLink;
use crate::partition::{max_aug_width2d, partition2d, Block};
use crate::session::PlanRef;
use lattice_core::bits::Traffic;
use lattice_core::checkpoint::store::SnapshotSink;
use lattice_core::units::{
    u64_from_usize, Bits, BitsPerTick, Hz, Sites, SitesPerSec, SitesPerTick, Ticks,
};
use lattice_core::{Grid, LatticeError, Rule, State};
use lattice_engines_sim::{EngineReport, FaultPlan, RecoveryStats};
use std::sync::Arc;
use std::time::Duration;

pub use crate::pass::ShardAudit;
pub use crate::session::FarmSession;

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
    /// their halo frames for pass `n + 1` ship over double-buffered links
    /// ([`HaloWindow`](crate::HaloWindow)) while pass `n`'s interior is
    /// still evolving. The next pass barriers on halo *arrival*, so its
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
    pub(crate) const NONE: Self = FarmRecoveryConfig {
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
    pub(crate) fn restores(&self) -> bool {
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

    /// Enables (or disables) overlapped halo exchange
    /// ([`LatticeFarm::overlap`]). SPA boards then require
    /// `slice_width == 1`: the sweep regions are not generally
    /// slice-aligned.
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

    pub(crate) fn validate<S: State>(&self, grid: &Grid<S>) -> Result<(), LatticeError> {
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
    pub(crate) fn grid_at(&self, shards: usize) -> (usize, usize) {
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
    pub(crate) fn wrap_at(&self, grid_rows: usize, k: usize) -> usize {
        if self.periodic && grid_rows == 1 {
            k
        } else {
            0
        }
    }

    /// The block layout at `shards` live boards and pass depth `k`.
    pub(crate) fn blocks_at(
        &self,
        rows: usize,
        cols: usize,
        shards: usize,
        k: usize,
    ) -> Result<Vec<Block>, LatticeError> {
        let (gr, gc) = self.grid_at(shards);
        partition2d(rows, cols, gr, gc, k, self.periodic)
    }

    /// Physical chips per board under a degrade budget of
    /// `max_retired` boards, which must leave one: board `b` owns chip
    /// ids `[b·stride, (b+1)·stride)`, stable across passes (the final
    /// shallow pass uses a prefix), so stuck-at faults follow silicon.
    /// The stride fits every shard count the budget can reach: degraded
    /// re-partitioning widens slabs, and chip ids must not move when it
    /// does, or stuck-at faults would jump between boards.
    pub(crate) fn chip_stride(
        &self,
        rows: usize,
        cols: usize,
        max_retired: usize,
    ) -> Result<usize, LatticeError> {
        let shards = self.shards();
        if max_retired >= shards {
            return Err(LatticeError::InvalidConfig(
                "degrade budget must leave at least one board".into(),
            ));
        }
        let ShardEngine::Spa { slice_width } = self.engine else { return Ok(self.depth) };
        let mut stride = 0usize;
        for s in shards - max_retired..=shards {
            let (gr, gc) = self.grid_at(s);
            let max_aug = max_aug_width2d(rows, cols, gr, gc, self.depth, self.periodic)?;
            stride = stride.max(self.depth * max_aug.div_ceil(slice_width));
        }
        Ok(stride)
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
        Ok(session.finish().report)
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
    /// durable snapshot — one
    /// [`ShardBlob`](lattice_core::checkpoint::store::ShardBlob) per block, stamped with the
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
        Ok(session.finish())
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
    /// degrade budget of `max_retired` boards — the id a
    /// [`Fault`](lattice_engines_sim::Fault) targeting
    /// [`Component::Link`](lattice_engines_sim::Component::Link)
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
        Ok(shards * self.chip_stride(rows, cols, max_retired)? + b)
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::board::{run_board, BoardJob, BoardWork};
    use crate::crew;
    use crate::exchange::{owned_rows, Augmented, ExchangeOutcome};
    use crate::partition::sweep_regions2d;
    use crate::session::crop;
    use lattice_core::checkpoint::store::{CheckpointStore, MemBackend};
    use lattice_core::units::f64_from_u64;
    use lattice_core::BlockKernel;
    use lattice_core::{evolve, Boundary};
    use lattice_core::{RowSink, RowSource, Shape};
    use lattice_engines_sim::FaultCtx;
    use lattice_engines_sim::{Component, Fault, FaultKind};
    use lattice_gas::hpp::HppDir;
    use lattice_gas::{init, FhpRule, FhpVariant, HppRule};
    use std::ops::Range;
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
            let (mut pos, mut rec) = ([0, 0], RecoveryStats::default());
            farm.exchange_board(aug, 0, ctx, 0, &mut pos, 0, &mut rec, false).unwrap()
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
            let mid = sess.report();
            assert_eq!(mid.grid(), one.report.grid(), "mid-run snapshot sees the lattice");
            let ft = sess.finish();
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
        let ft = sess.finish();
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
        let ft = sess.finish();
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
        assert_eq!(sess.grid(), &reference);

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
        assert_eq!(sess.grid(), &evolve(&g, &rule, Boundary::null(), 0, 4));
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
        assert_eq!(sess.grid(), &reference);
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
        assert_eq!(sess.grid(), &reference);
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
                assert_eq!(session.grid(), &at(8), "{case}");
                assert_eq!(session.report().passes, 8, "only the rerun commits: {case}");
            }

            let mut session = farm.session_owned(&g, 0, None, &none, None).unwrap();
            session.step(&hpp, 3).unwrap();
            let err = session.step(&panics(6, column), 8).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("board {board} down: worker died before reporting")
            );
            assert_eq!((session.time(), session.grid()), (3, &at(3)), "board {board}");
            let report = session.report();
            assert_eq!((report.passes, report.grid()), (3, &at(3)), "board {board}");
            session.checkpoint(None).unwrap();
            session.step(&hpp, 8).unwrap();
            assert_eq!(session.finish().report.grid(), &at(11), "board {board}");
        }
    }
}
